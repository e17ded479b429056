package driver

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/model"
)

func TestWorkStealMatchesSequential(t *testing.T) {
	cfg := testConfig(t, 16, 2000, 40)
	ref := sequentialReference(t, cfg)
	params := WorkStealParams{Overdecompose: 4, Every: 6}
	for _, p := range []int{1, 2, 4, 6} {
		res, err := must(NewWorkStealEngine(cfg, params)).Run(p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !res.Verified {
			t.Fatalf("P=%d: not verified", p)
		}
		assertBitwiseEqual(t, ref, res.Particles, fmt.Sprintf("worksteal P=%d", p))
	}
}

func TestWorkStealWithEventsAndDistributedVerify(t *testing.T) {
	cfg := testConfig(t, 16, 1500, 30)
	cfg.Schedule = dist.Schedule{
		{Step: 10, Region: dist.Rect{X0: 2, X1: 8, Y0: 2, Y1: 8}, Inject: 400, M: 1},
		{Step: 20, Region: dist.Rect{X0: 0, X1: 6, Y0: 0, Y1: 16}, Remove: true},
	}
	ref := sequentialReference(t, cfg)
	res, err := must(NewWorkStealEngine(cfg, WorkStealParams{Overdecompose: 4, Every: 8})).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, ref, res.Particles, "worksteal+events")

	dcfg := cfg
	dcfg.Verify = false
	dcfg.DistributedVerify = true
	dres, err := must(NewWorkStealEngine(dcfg, WorkStealParams{Overdecompose: 2, Every: 5, Threshold: 0.1})).Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if !dres.Verified {
		t.Error("distributed verification did not pass")
	}
	if dres.Particles != nil {
		t.Error("distributed verification must not gather particles")
	}
}

func TestWorkStealActuallySteals(t *testing.T) {
	cfg := testConfig(t, 32, 5000, 40)
	cfg.Dist = dist.Geometric{R: 0.85}
	res, err := must(NewWorkStealEngine(cfg, WorkStealParams{Overdecompose: 4, Every: 5})).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	for _, s := range res.PerRank {
		moves += s.Migrations
	}
	if moves == 0 {
		t.Error("worksteal never moved a VP on a strongly skewed workload")
	}
	if len(res.BalanceLog) == 0 {
		t.Error("no balance log despite migrations")
	}
}

func TestWorkStealParamsValidation(t *testing.T) {
	cfg := testConfig(t, 16, 100, 5)
	if _, err := NewWorkStealEngine(cfg, WorkStealParams{}); err == nil {
		t.Error("zero params accepted")
	}
	if _, err := NewWorkStealEngine(cfg, WorkStealParams{Overdecompose: 4, Every: 5, Threshold: 1.5}); err == nil {
		t.Error("threshold above 1 accepted")
	}
	if _, err := must(NewWorkStealEngine(cfg, WorkStealParams{Overdecompose: 100, Every: 5})).Run(2); err == nil {
		t.Error("VP grid larger than domain accepted")
	}
}

// TestAllPoliciesUnderChaos is the exchange-protocol stress for every
// balancing policy: random message delivery delays must not change a single
// particle bit in any of the four drivers.
func TestAllPoliciesUnderChaos(t *testing.T) {
	cfg := testConfig(t, 16, 1200, 24)
	cfg.Chaos = 300 * time.Microsecond
	cfg.Schedule = dist.Schedule{
		{Step: 8, Region: dist.Rect{X0: 2, X1: 10, Y0: 2, Y1: 10}, Inject: 300, M: 1},
		{Step: 16, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 16}, Remove: true},
	}
	ref := sequentialReference(t, cfg)
	for _, p := range []int{4, 5} {
		for _, run := range []struct {
			name string
			fn   func() (*Result, error)
		}{
			{"baseline", func() (*Result, error) { return NewBaselineEngine(cfg).Run(p) }},
			{"diffusion", func() (*Result, error) {
				return must(NewDiffusionEngine(cfg, diffusion.Params{Every: 4, Threshold: 0.05, Width: 1, MinWidth: 2, TwoPhase: true})).Run(p)
			}},
			{"ampi", func() (*Result, error) {
				return must(NewAMPIEngine(p, cfg, AMPIParams{Overdecompose: 4, Every: 6})).Run(p)
			}},
			{"worksteal", func() (*Result, error) {
				return must(NewWorkStealEngine(cfg, WorkStealParams{Overdecompose: 4, Every: 6})).Run(p)
			}},
		} {
			res, err := run.fn()
			if err != nil {
				t.Fatalf("%s P=%d: %v", run.name, p, err)
			}
			if !res.Verified {
				t.Fatalf("%s P=%d: not verified", run.name, p)
			}
			assertBitwiseEqual(t, ref, res.Particles, fmt.Sprintf("%s+chaos P=%d", run.name, p))
		}
	}
}

// TestEventIDContinuitySameStep pins the injection-ID protocol when removal
// and injection fire at the same step: every rank must advance the shared ID
// counter identically — including ranks that receive none of the injected
// particles — or later injections would mint colliding IDs.
func TestEventIDContinuitySameStep(t *testing.T) {
	cfg := testConfig(t, 16, 500, 1)
	cfg.Schedule = dist.Schedule{
		{Step: 1, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 16}, Remove: true},
		{Step: 1, Region: dist.Rect{X0: 1, X1: 5, Y0: 1, Y1: 5}, Inject: 100, M: 1},
		{Step: 1, Region: dist.Rect{X0: 8, X1: 12, Y0: 8, Y1: 12}, Inject: 50},
	}
	cfg.Schedule = cfg.Schedule.Sorted()

	// Four simulated ranks owning disjoint column stripes; the stripe
	// [12,16) overlaps neither injection region, so rank 3 receives nothing
	// and must still advance nextID past both batches.
	const ranks = 4
	states := make([]core.Events, ranks)
	got := make([]core.SoA, ranks)
	for r := 0; r < ranks; r++ {
		states[r] = core.NewEvents(cfg.distConfig(), cfg.Schedule)
		lo, hi := r*4, (r+1)*4
		states[r].Fire(1, func(func(*core.SoA)) {}, func(cx, _ int) *core.SoA {
			if cx >= lo && cx < hi {
				return &got[r]
			}
			return nil
		})
	}
	want := uint64(cfg.N) + 1 + 100 + 50
	for r := 0; r < ranks; r++ {
		if states[r].NextID != want {
			t.Errorf("rank %d: nextID %d, want %d", r, states[r].NextID, want)
		}
	}
	if got[3].Len() != 0 {
		t.Errorf("rank 3 owns no injection cells but received %d particles", got[3].Len())
	}
	// Every injected ID appears exactly once across ranks, and the two
	// batches occupy contiguous, non-overlapping ID ranges.
	seen := map[uint64]int{}
	for r := 0; r < ranks; r++ {
		for _, m := range got[r].Meta {
			seen[m.ID]++
		}
	}
	for id := uint64(cfg.N) + 1; id < want; id++ {
		if seen[id] != 1 {
			t.Fatalf("injected ID %d owned by %d ranks", id, seen[id])
		}
	}
	if len(seen) != 150 {
		t.Fatalf("%d distinct injected IDs, want 150", len(seen))
	}

	// End-to-end: the same-step schedule must stay bitwise-identical to the
	// sequential reference in all four drivers across rank counts.
	full := testConfig(t, 16, 1200, 24)
	full.Schedule = dist.Schedule{
		{Step: 12, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 16}, Remove: true},
		{Step: 12, Region: dist.Rect{X0: 1, X1: 7, Y0: 1, Y1: 7}, Inject: 300, M: 1},
		{Step: 18, Region: dist.Rect{X0: 8, X1: 14, Y0: 8, Y1: 14}, Inject: 200},
	}
	ref := sequentialReference(t, full)
	for _, p := range []int{2, 4} {
		for _, run := range []struct {
			name string
			fn   func() (*Result, error)
		}{
			{"baseline", func() (*Result, error) { return NewBaselineEngine(full).Run(p) }},
			{"diffusion", func() (*Result, error) {
				return must(NewDiffusionEngine(full, diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2})).Run(p)
			}},
			{"ampi", func() (*Result, error) {
				return must(NewAMPIEngine(p, full, AMPIParams{Overdecompose: 4, Every: 6})).Run(p)
			}},
			{"worksteal", func() (*Result, error) {
				return must(NewWorkStealEngine(full, WorkStealParams{Overdecompose: 4, Every: 6})).Run(p)
			}},
		} {
			res, err := run.fn()
			if err != nil {
				t.Fatalf("%s P=%d: %v", run.name, p, err)
			}
			assertBitwiseEqual(t, ref, res.Particles, fmt.Sprintf("%s same-step events P=%d", run.name, p))
		}
	}
}

// TestModelDriverDecisionIdentity is the structural guarantee the balance
// package exists for: the performance model and the real driver run the
// same DiffusionBalancer, so for an event-free workload — where the model's
// analytic histogram equals the measured one exactly — their balancing
// histories must match string-for-string.
func TestModelDriverDecisionIdentity(t *testing.T) {
	cfg := testConfig(t, 32, 5000, 60)
	cfg.Dist = dist.Geometric{R: 0.85}
	params := diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2}
	const p = 4

	res, err := must(NewDiffusionEngine(cfg, params)).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BalanceLog) == 0 {
		t.Fatal("driver produced no balancing decisions; the test would be vacuous")
	}

	w, err := model.NewWorkload(cfg.distConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, log := model.SimulateDiffusionTraced(model.Edison(), w, p, cfg.Steps, params)
	if !reflect.DeepEqual(res.BalanceLog, log) {
		t.Fatalf("decision histories diverge:\ndriver: %v\nmodel:  %v", res.BalanceLog, log)
	}
}

// TestBalanceLogMatchesMigrations cross-checks the log against the stats:
// a driver that reports migrations must have logged decisions and vice
// versa (for the block substrate, where each executed plan migrates).
func TestBalanceLogMatchesMigrations(t *testing.T) {
	cfg := testConfig(t, 32, 5000, 60)
	cfg.Dist = dist.Geometric{R: 0.85}
	res, err := must(NewDiffusionEngine(cfg, diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2})).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	migrations := 0
	for _, s := range res.PerRank {
		migrations += s.Migrations
	}
	if (migrations > 0) != (len(res.BalanceLog) > 0) {
		t.Errorf("migrations=%d but %d log lines", migrations, len(res.BalanceLog))
	}
	base, err := NewBaselineEngine(cfg).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.BalanceLog) != 0 {
		t.Errorf("baseline logged %d balancing decisions", len(base.BalanceLog))
	}
}
