package balance

import (
	"reflect"
	"strings"
	"testing"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/diffusion"
)

func TestNullBalancerIsInert(t *testing.T) {
	var b NullBalancer
	if b.Interval() != 0 {
		t.Errorf("interval %d, want 0 (balancing disabled)", b.Interval())
	}
	if n := b.Needs(); n.Cells || n.Rows || n.Units {
		t.Errorf("null policy requested observations: %+v", n)
	}
	b.Observe(Loads{Cells: []int64{1, 2, 3}})
	if p := b.Plan(5); !p.Empty() {
		t.Errorf("null plan not empty: %s", p)
	}
	b.Apply(Plan{})
	if h := b.History(); h != nil {
		t.Errorf("null history %v", h)
	}
}

func TestPlanEmptyAndString(t *testing.T) {
	if s := (Plan{}).String(); s != "noop" {
		t.Errorf("empty plan prints %q", s)
	}
	xb := decomp.MustUniformBounds(16, 4)
	p := Plan{X: &xb, Owner: []int{0, 1, 1, 0}}
	if p.Empty() {
		t.Fatal("non-trivial plan reported empty")
	}
	s := p.String()
	if !strings.Contains(s, "x=") || !strings.Contains(s, "owner=4@") {
		t.Errorf("plan string %q missing x cuts or owner digest", s)
	}
}

func TestOwnerDigestDeterministicAndDiscriminating(t *testing.T) {
	a := []int{0, 1, 2, 3, 0, 1}
	b := append([]int(nil), a...)
	if ownerDigest(a) != ownerDigest(b) {
		t.Error("equal tables digest differently")
	}
	b[3] = 0
	if ownerDigest(a) == ownerDigest(b) {
		t.Error("different tables share a digest")
	}
}

func TestDiffusionBalancerPlansAndLogs(t *testing.T) {
	params := diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2}
	b := &DiffusionBalancer{Params: params}
	if b.Interval() != 5 {
		t.Fatalf("interval %d", b.Interval())
	}
	if n := b.Needs(); !n.Cells || n.Rows || n.Units {
		t.Fatalf("needs %+v, want cells only without TwoPhase", n)
	}

	// Strongly left-skewed histogram: the first cut must diffuse left.
	L := 16
	cells := make([]int64, L)
	for i := range cells {
		cells[i] = 10
	}
	cells[0], cells[1] = 1000, 800
	loads := Loads{X: decomp.MustUniformBounds(L, 4), Cells: cells, Cores: 4}
	b.Observe(loads)
	plan := b.Plan(5)
	if plan.X == nil {
		t.Fatal("no x plan on a strongly skewed histogram")
	}
	if plan.Y != nil {
		t.Fatal("y plan produced without TwoPhase")
	}
	// Determinism: the same observation yields the identical plan.
	b2 := &DiffusionBalancer{Params: params}
	b2.Observe(loads)
	if got := b2.Plan(5); got.String() != plan.String() {
		t.Fatalf("plans differ for identical loads: %s vs %s", got, plan)
	}

	b.Apply(plan)
	h := b.History()
	if len(h) != 1 || !strings.HasPrefix(h[0], "step=5 x=") {
		t.Fatalf("history %v", h)
	}
	b.Apply(Plan{})
	if len(b.History()) != 1 {
		t.Error("empty plan was logged")
	}
}

func TestDiffusionBalancerTwoPhaseNeedsRows(t *testing.T) {
	b := &DiffusionBalancer{Params: diffusion.Params{Every: 3, Threshold: 0.05, Width: 1, MinWidth: 2, TwoPhase: true}}
	if n := b.Needs(); !n.Cells || !n.Rows {
		t.Fatalf("two-phase needs %+v", n)
	}
	L := 12
	cells := make([]int64, L)
	rows := make([]int64, L)
	for i := range cells {
		cells[i], rows[i] = 10, 10
	}
	rows[0] = 500 // y-skew only
	b.Observe(Loads{
		X: decomp.MustUniformBounds(L, 3), Y: decomp.MustUniformBounds(L, 3),
		Cells: cells, Rows: rows, Cores: 9,
	})
	plan := b.Plan(3)
	if plan.X != nil {
		t.Errorf("x plan on a uniform column histogram: %s", plan)
	}
	if plan.Y == nil {
		t.Error("no y plan on a skewed row histogram")
	}
}

func TestStrategyBalancerEmptyPlanOnZeroMoves(t *testing.T) {
	b := NewStrategyBalancer(ampi.NullLB{}, 4)
	if b.Interval() != 4 {
		t.Errorf("interval %d", b.Interval())
	}
	if n := b.Needs(); !n.Units || n.Cells || n.Rows {
		t.Errorf("needs %+v, want units only", n)
	}
	b.Observe(Loads{Units: []float64{5, 1, 1, 1}, Owner: []int{0, 0, 1, 1}, Cores: 2})
	if p := b.Plan(4); !p.Empty() {
		t.Fatalf("NullLB produced a plan: %s", p)
	}
	b.Apply(Plan{})
	if b.History() != nil {
		t.Error("no-op epoch was logged")
	}
}

func TestStrategyBalancerPlansAndLogs(t *testing.T) {
	b := NewStrategyBalancer(ampi.RotateLB{}, 2)
	b.Observe(Loads{Units: []float64{1, 1, 1, 1}, Owner: []int{0, 0, 1, 1}, Cores: 2})
	plan := b.Plan(2)
	if plan.Owner == nil {
		t.Fatal("RotateLB produced no plan")
	}
	if want := []int{1, 1, 0, 0}; !reflect.DeepEqual(plan.Owner, want) {
		t.Fatalf("owner %v, want %v", plan.Owner, want)
	}
	b.Apply(plan)
	h := b.History()
	if len(h) != 1 || !strings.HasPrefix(h[0], "step=2 moves=4 owner=4@") {
		t.Fatalf("history %v", h)
	}
}

func TestWorkStealBalancerSteals(t *testing.T) {
	b := NewStrategyBalancer(ampi.WorkStealLB{}, 6)
	if b.Interval() != 6 {
		t.Errorf("interval %d", b.Interval())
	}
	// Core 0 holds everything; core 1 is idle and must steal a VP.
	b.Observe(Loads{Units: []float64{8, 4, 2, 1}, Owner: []int{0, 0, 0, 0}, Cores: 2})
	plan := b.Plan(6)
	if plan.Owner == nil {
		t.Fatal("idle core did not steal")
	}
	if moves := ampi.Moves([]int{0, 0, 0, 0}, plan.Owner); moves != 1 {
		t.Fatalf("%d moves, want exactly 1 per hungry core", moves)
	}
	// Balanced loads: nothing to steal.
	b.Observe(Loads{Units: []float64{1, 1, 1, 1}, Owner: []int{0, 0, 1, 1}, Cores: 2})
	if p := b.Plan(12); !p.Empty() {
		t.Fatalf("steal on balanced loads: %s", p)
	}
}
