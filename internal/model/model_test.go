package model

import (
	"math"
	"testing"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
)

func workload(t testing.TB, L, n int, r float64, sched dist.Schedule) *Workload {
	t.Helper()
	m := grid.MustMesh(L, 1)
	w, err := NewWorkload(dist.Config{Mesh: m, N: n, Dist: dist.Geometric{R: r}, Seed: 1}, sched)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorkloadConservesParticles(t *testing.T) {
	w := workload(t, 100, 50000, 0.95, nil)
	if w.Total() != 50000 {
		t.Fatalf("initial total %v", w.Total())
	}
	for s := 0; s < 500; s++ {
		w.Step()
		if w.Total() != 50000 {
			t.Fatalf("step %d: total %v", s, w.Total())
		}
	}
}

func TestWorkloadShiftMatchesClosedForm(t *testing.T) {
	// After s steps the histogram is the initial one shifted by s·(2k+1).
	w := workload(t, 64, 10000, 0.9, nil)
	initial := make([]float64, 64)
	for c := 0; c < 64; c++ {
		initial[c] = w.RangeSum(c, c+1)
	}
	for s := 0; s < 10; s++ {
		w.Step()
	}
	for c := 0; c < 64; c++ {
		want := initial[(c-10+64)%64]
		if got := w.RangeSum(c, c+1); got != want {
			t.Fatalf("column %d after 10 steps: %v, want %v", c, got, want)
		}
	}
}

func TestWorkloadRangeSumWraps(t *testing.T) {
	w := workload(t, 16, 1000, 1.0, nil) // uniform
	full := w.RangeSum(0, 16)
	if math.Abs(full-1000) > 1e-9 {
		t.Fatalf("full range %v", full)
	}
	// A wrapped range [12, 20) == [12,16)+[0,4).
	wrapped := w.RangeSum(12, 20)
	parts := w.RangeSum(12, 16) + w.RangeSum(0, 4)
	if math.Abs(wrapped-parts) > 1e-9 {
		t.Fatalf("wrapped %v != parts %v", wrapped, parts)
	}
}

func TestWorkloadEvents(t *testing.T) {
	sched := dist.Schedule{
		{Step: 5, Region: dist.Rect{X0: 0, X1: 16, Y0: 0, Y1: 16}, Inject: 4000},
		{Step: 8, Region: dist.Rect{X0: 0, X1: 16, Y0: 0, Y1: 8}, Remove: true},
	}
	w := workload(t, 16, 1000, 1.0, sched)
	for s := 1; s <= 5; s++ {
		w.Step()
	}
	if math.Abs(w.Total()-5000) > 1e-6 {
		t.Fatalf("after injection: %v", w.Total())
	}
	for s := 6; s <= 8; s++ {
		w.Step()
	}
	// Removal of the lower half of every column removes half the particles.
	if math.Abs(w.Total()-2500) > 1e-6 {
		t.Fatalf("after removal: %v", w.Total())
	}
}

func TestWorkloadHistogramMatchesRangeSum(t *testing.T) {
	w := workload(t, 32, 5000, 0.9, nil)
	for s := 0; s < 7; s++ {
		w.Step()
	}
	h := w.Histogram()
	for c := 0; c < 32; c++ {
		if math.Abs(float64(h[c])-w.RangeSum(c, c+1)) > 0.5 {
			t.Fatalf("column %d: histogram %d vs range %v", c, h[c], w.RangeSum(c, c+1))
		}
	}
}

func TestMachineCostMonotonicity(t *testing.T) {
	m := Edison()
	if m.MsgCost(0, 0, 1000) != 0 {
		t.Error("same-core message should be free")
	}
	is := m.MsgCost(0, 1, 1000)  // intra-socket
	in := m.MsgCost(0, 13, 1000) // intra-node (across sockets)
	xn := m.MsgCost(0, 24, 1000) // inter-node
	if !(is < in && in < xn) {
		t.Errorf("cost ordering violated: %v %v %v", is, in, xn)
	}
	if m.MsgCost(0, 1, 2000) <= m.MsgCost(0, 1, 1000) {
		t.Error("cost must grow with bytes")
	}
	if m.SyncCost(1) != 0 || m.SyncCost(2) <= 0 {
		t.Error("sync cost endpoints wrong")
	}
	if m.AllreduceCost(1, 100) != 0 || m.AllreduceCost(64, 100) <= m.AllreduceCost(4, 100) {
		t.Error("allreduce cost must grow with P")
	}
}

const testSteps = 1500

func TestSerialTimeMatchesComputeBound(t *testing.T) {
	m := Edison()
	w := workload(t, 128, 100000, 0.99, nil)
	o := SimulateSerial(m, w, testSteps)
	want := m.TimePerParticle * 100000 * testSteps
	if math.Abs(o.Seconds-want) > want*1e-9 {
		t.Fatalf("serial %v, want %v", o.Seconds, want)
	}
}

func TestBaselineSlowerThanIdealFasterThanSerial(t *testing.T) {
	m := Edison()
	serial := SimulateSerial(m, workload(t, 128, 100000, 0.99, nil), testSteps)
	base := SimulateBaseline(m, workload(t, 128, 100000, 0.99, nil), 8, testSteps)
	if base.Seconds >= serial.Seconds {
		t.Fatalf("baseline %v not faster than serial %v", base.Seconds, serial.Seconds)
	}
	if base.Seconds <= serial.Seconds/8 {
		t.Fatalf("baseline %v beat perfect speedup %v on a skewed workload", base.Seconds, serial.Seconds/8)
	}
	if base.MaxFinalLoad <= base.IdealLoad {
		t.Fatalf("skewed baseline should be imbalanced: max %v ideal %v", base.MaxFinalLoad, base.IdealLoad)
	}
}

func TestDiffusionBeatsBaselineOnSkewedWorkload(t *testing.T) {
	m := Edison()
	base := SimulateBaseline(m, workload(t, 128, 200000, 0.97, nil), 16, testSteps)
	params := diffusion.Params{Every: 2, Threshold: 0.02, Width: 2, MinWidth: 3}
	diff := SimulateDiffusion(m, workload(t, 128, 200000, 0.97, nil), 16, testSteps, params)
	if diff.Seconds >= base.Seconds {
		t.Fatalf("diffusion %v did not beat baseline %v", diff.Seconds, base.Seconds)
	}
	if diff.Migrations == 0 {
		t.Fatal("diffusion never migrated")
	}
	if diff.MaxFinalLoad >= base.MaxFinalLoad {
		t.Fatalf("diffusion max load %v not better than baseline %v", diff.MaxFinalLoad, base.MaxFinalLoad)
	}
}

func TestAMPIBeatsBaselineOnSkewedWorkload(t *testing.T) {
	m := Edison()
	base := SimulateBaseline(m, workload(t, 128, 200000, 0.97, nil), 16, testSteps)
	am := SimulateAMPI(m, workload(t, 128, 200000, 0.97, nil), 16, testSteps,
		AMPIModelParams{Overdecompose: 8, Every: 100})
	if am.Seconds >= base.Seconds {
		t.Fatalf("ampi %v did not beat baseline %v", am.Seconds, base.Seconds)
	}
	if am.Migrations == 0 {
		t.Fatal("ampi never migrated")
	}
}

func TestUniformWorkloadNeedsNoBalancing(t *testing.T) {
	// With r=1 the distribution is uniform: baseline is already balanced
	// and the balanced variants must not be much better (the paper's
	// r=1 degenerate case).
	m := Edison()
	mk := func() *Workload { return workload(t, 128, 100000, 1.0, nil) }
	base := SimulateBaseline(m, mk(), 16, testSteps)
	diff := SimulateDiffusion(m, mk(), 16, testSteps, diffusion.Params{Every: 2, Threshold: 0.02, Width: 2, MinWidth: 3})
	if diff.Seconds < base.Seconds*0.95 {
		t.Fatalf("diffusion %v should not beat balanced baseline %v", diff.Seconds, base.Seconds)
	}
	if ratio := base.MaxFinalLoad / base.IdealLoad; ratio > 1.1 {
		t.Fatalf("uniform baseline imbalance %v", ratio)
	}
}

func TestGreedyEpochCostGrowsWithFrequency(t *testing.T) {
	// Figure 5's green line: smaller F = more reshuffles = more LB time.
	m := Edison()
	fast := SimulateAMPI(m, workload(t, 128, 200000, 0.97, nil), 16, testSteps, AMPIModelParams{Overdecompose: 4, Every: 20})
	slow := SimulateAMPI(m, workload(t, 128, 200000, 0.97, nil), 16, testSteps, AMPIModelParams{Overdecompose: 4, Every: 500})
	if fast.LBSeconds <= slow.LBSeconds {
		t.Fatalf("LB cost at F=20 (%v) should exceed F=500 (%v)", fast.LBSeconds, slow.LBSeconds)
	}
}

func TestOverdecompositionReducesImbalance(t *testing.T) {
	// Figure 5's red line mechanism: more VPs = finer balancing granularity.
	m := Edison()
	d1 := SimulateAMPI(m, workload(t, 128, 200000, 0.97, nil), 16, testSteps, AMPIModelParams{Overdecompose: 1, Every: 200})
	d8 := SimulateAMPI(m, workload(t, 128, 200000, 0.97, nil), 16, testSteps, AMPIModelParams{Overdecompose: 8, Every: 200})
	if d8.MaxFinalLoad >= d1.MaxFinalLoad {
		t.Fatalf("d=8 max load %v not better than d=1 %v", d8.MaxFinalLoad, d1.MaxFinalLoad)
	}
}

func TestRefineMovesLessThanGreedy(t *testing.T) {
	m := Edison()
	greedy := SimulateAMPI(m, workload(t, 128, 200000, 0.97, nil), 16, testSteps,
		AMPIModelParams{Overdecompose: 4, Every: 100, Strategy: ampi.GreedyLB{}})
	refine := SimulateAMPI(m, workload(t, 128, 200000, 0.97, nil), 16, testSteps,
		AMPIModelParams{Overdecompose: 4, Every: 100, Strategy: ampi.RefineLB{}})
	if refine.Migrations >= greedy.Migrations {
		t.Fatalf("refine moved %d VPs, greedy %d — refine should move fewer", refine.Migrations, greedy.Migrations)
	}
}

func TestSimulationsAreDeterministic(t *testing.T) {
	m := Edison()
	a := SimulateAMPI(m, workload(t, 64, 50000, 0.95, nil), 8, 500, AMPIModelParams{Overdecompose: 4, Every: 50})
	b := SimulateAMPI(m, workload(t, 64, 50000, 0.95, nil), 8, 500, AMPIModelParams{Overdecompose: 4, Every: 50})
	if a != b {
		t.Fatalf("ampi model not deterministic:\n%+v\n%+v", a, b)
	}
	c := SimulateDiffusion(m, workload(t, 64, 50000, 0.95, nil), 8, 500, diffusion.Params{Every: 5, Threshold: 0.02, Width: 5, MinWidth: 6})
	d := SimulateDiffusion(m, workload(t, 64, 50000, 0.95, nil), 8, 500, diffusion.Params{Every: 5, Threshold: 0.02, Width: 5, MinWidth: 6})
	if c != d {
		t.Fatalf("diffusion model not deterministic")
	}
}

func TestTunersReturnBestOfGrid(t *testing.T) {
	m := Edison()
	wfac := func() *Workload { return workload(t, 64, 50000, 0.95, nil) }
	grid := []diffusion.Params{
		{Every: 2, Threshold: 0.02, Width: 2, MinWidth: 3},
		{Every: 100, Threshold: 0.02, Width: 100, MinWidth: 101}, // effectively off
	}
	p, best := TuneDiffusion(m, wfac, 8, 500, grid)
	for _, g := range grid {
		o := SimulateDiffusion(m, wfac(), 8, 500, g)
		if o.Seconds < best.Seconds {
			t.Fatalf("tuner missed better params %+v (%v < %v at %+v)", g, o.Seconds, best.Seconds, p)
		}
	}
}

func TestModelDiffusionDecisionMatchesDriverDecision(t *testing.T) {
	// The model and the real driver share diffusion.BalanceStepGuarded; for
	// the same histogram they must compute identical cuts. This pins the
	// "same decision logic" design claim.
	w := workload(t, 64, 20000, 0.9, nil)
	for s := 0; s < 40; s++ {
		w.Step()
	}
	hist := w.Histogram()
	var manual [64]int64
	for c := 0; c < 64; c++ {
		manual[c] = int64(w.RangeSum(c, c+1) + 0.5)
	}
	for c := range hist {
		if hist[c] != manual[c] {
			t.Fatalf("histogram disagrees with range sums at %d", c)
		}
	}
}

func TestBlockIsOneVPPerRank(t *testing.T) {
	// The block substrate is the VP substrate at one VP per rank with no
	// balancing and no scheduling overhead: one owner grid, one host table
	// and one cost pass make the two outcomes equal bit for bit.
	m := Edison()
	m.VPOverheadPerStep = 0
	const steps = 300
	for _, p := range []int{1, 2, 4, 6, 8, 16} {
		block := SimulateBaseline(m, workload(t, 128, 200000, 0.97, nil), p, steps)
		vp := SimulateAMPI(m, workload(t, 128, 200000, 0.97, nil), p, steps,
			AMPIModelParams{Overdecompose: 1, Every: steps + 1, Strategy: ampi.NullLB{}})
		if block != vp {
			t.Errorf("P=%d: block and one-VP-per-rank outcomes differ:\nblock %+v\nvp    %+v", p, block, vp)
		}
	}
}
