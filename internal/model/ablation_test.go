package model

import (
	"reflect"
	"testing"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/diffusion"
)

// The paper's §V-B attributes the AMPI strong-scaling gap to
// locality-agnostic VP migration fragmenting the subdomains, and closes
// with the hypothesis that a balancer "properly hinted" about locality
// would not suffer it. These ablations test that causal chain in the model.

func TestHintedStrategyReducesModeledFragmentationPenalty(t *testing.T) {
	m := Edison()
	const p, steps = 96, 1500
	mk := func() *Workload { return workload(t, 1498, 600000, 0.999, nil) }

	greedy := SimulateAMPI(m, mk(), p, steps, AMPIModelParams{Overdecompose: 8, Every: 160, Strategy: ampi.GreedyLB{}})
	hinted := SimulateAMPI(m, mk(), p, steps, AMPIModelParams{Overdecompose: 8, Every: 160, Strategy: &ampi.HintedGreedyLB{}})

	// The hint must cut the communication share of the makespan.
	if hinted.CommSeconds >= greedy.CommSeconds {
		t.Errorf("hinted comm %.3fs not below greedy %.3fs", hinted.CommSeconds, greedy.CommSeconds)
	}
	// And the total must improve: same balance class, less fragmentation.
	if hinted.Seconds >= greedy.Seconds {
		t.Errorf("hinted total %.3fs not below greedy %.3fs", hinted.Seconds, greedy.Seconds)
	}
}

func TestFatNodeNarrowsAMPIGap(t *testing.T) {
	// On a machine with few node boundaries, locality-agnostic migration
	// hurts less: the ampi/diffusion gap at multi-node strong scaling must
	// shrink relative to the Edison-class machine.
	const p, steps = 384, 1500
	mk := func() *Workload { return workload(t, 1498, 600000, 0.999, nil) }
	gap := func(m Machine) float64 {
		diff := SimulateDiffusion(m, mk(), p, steps, diffusion.Params{Every: 2, Threshold: 0.02, Width: 4, MinWidth: 5})
		am := SimulateAMPI(m, mk(), p, steps, AMPIModelParams{Overdecompose: 4, Every: 640})
		return am.Seconds / diff.Seconds
	}
	edison := gap(Edison())
	fat := gap(FatNode())
	if fat >= edison {
		t.Errorf("fat-node ampi/diffusion gap %.2f not below Edison's %.2f", fat, edison)
	}
}

func TestDiffusionKnobsInterfere(t *testing.T) {
	// The paper (§IV-B) notes frequency, threshold and width "have
	// interfering results … and therefore should be co-tuned": a width that
	// is good at one frequency is bad at another, because the product
	// Width/Every must outpace the drift.
	m := Edison()
	mk := func() *Workload { return workload(t, 1498, 600000, 0.999, nil) }
	const p, steps = 24, 1500

	fastNarrow := SimulateDiffusion(m, mk(), p, steps, diffusion.Params{Every: 2, Threshold: 0.02, Width: 4, MinWidth: 5})
	slowNarrow := SimulateDiffusion(m, mk(), p, steps, diffusion.Params{Every: 50, Threshold: 0.02, Width: 4, MinWidth: 5})
	slowWide := SimulateDiffusion(m, mk(), p, steps, diffusion.Params{Every: 50, Threshold: 0.02, Width: 100, MinWidth: 101})

	if fastNarrow.Seconds >= slowNarrow.Seconds {
		t.Errorf("width 4 at Every=2 (%.2fs) should beat the same width at Every=50 (%.2fs)",
			fastNarrow.Seconds, slowNarrow.Seconds)
	}
	if slowWide.Seconds >= slowNarrow.Seconds {
		t.Errorf("at Every=50, width 100 (%.2fs) should beat width 4 (%.2fs): the cuts must track the drift",
			slowWide.Seconds, slowNarrow.Seconds)
	}
}

func TestLaggingBalancerWorseThanNone(t *testing.T) {
	// A balancer whose cut speed cannot keep up with the drift chases the
	// cloud and concentrates capacity where the load used to be.
	m := Edison()
	mk := func() *Workload { return workload(t, 1498, 600000, 0.999, nil) }
	const p, steps = 24, 1500
	base := SimulateBaseline(m, mk(), p, steps)
	lagging := SimulateDiffusion(m, mk(), p, steps, diffusion.Params{Every: 100, Threshold: 0.02, Width: 1, MinWidth: 2})
	// "Worse than none" is workload-dependent; at minimum it must be far
	// from the well-tuned configuration.
	tuned := SimulateDiffusion(m, mk(), p, steps, diffusion.Params{Every: 2, Threshold: 0.02, Width: 8, MinWidth: 9})
	if lagging.Seconds < tuned.Seconds*1.2 {
		t.Errorf("lagging (%.2fs) unexpectedly close to tuned (%.2fs)", lagging.Seconds, tuned.Seconds)
	}
	if tuned.Seconds >= base.Seconds {
		t.Errorf("tuned diffusion (%.2fs) should beat baseline (%.2fs)", tuned.Seconds, base.Seconds)
	}
}

func TestTwoPhaseCostsButDoesNotHelpOnYUniformWorkload(t *testing.T) {
	// The paper's experiments restrict diffusion to the x direction because
	// the workload is uniform in y; the model's two-phase run must agree
	// (no benefit, slight extra decision cost).
	m := Edison()
	mk := func() *Workload { return workload(t, 1498, 600000, 0.999, nil) }
	const p, steps = 96, 1500
	params := diffusion.Params{Every: 2, Threshold: 0.02, Width: 8, MinWidth: 9}
	xOnly := SimulateDiffusion(m, mk(), p, steps, params)
	params.TwoPhase = true
	two := SimulateDiffusion(m, mk(), p, steps, params)
	if two.Seconds < xOnly.Seconds {
		t.Errorf("two-phase (%.2fs) cannot beat x-only (%.2fs) on a y-uniform workload", two.Seconds, xOnly.Seconds)
	}
	if two.Seconds > xOnly.Seconds*1.2 {
		t.Errorf("two-phase overhead too large: %.2fs vs %.2fs", two.Seconds, xOnly.Seconds)
	}
}

// The benchmarks below print the model seconds EXPERIMENTS.md quotes for
// the ablations the tests above assert
// (go test -run '^$' -bench Ablation -benchtime 1x ./internal/model).

// BenchmarkAblationLBStrategies compares the runtime balancers at 96 cores:
// Charm-style GreedyLB (locality-agnostic, the paper's behaviour), RefineLB
// (incremental), and the locality-hinted greedy the paper's §V-B suggests.
func BenchmarkAblationLBStrategies(b *testing.B) {
	mach := Edison()
	mk := func() *Workload { return workload(b, 1498, 600000, 0.999, nil) }
	strategies := []struct {
		name string
		s    ampi.Strategy
	}{{"GreedyLB", ampi.GreedyLB{}}, {"RefineLB", ampi.RefineLB{}}, {"HintedGreedyLB", &ampi.HintedGreedyLB{}}}
	for i := 0; i < b.N; i++ {
		for _, st := range strategies {
			o := SimulateAMPI(mach, mk(), 96, 1500, AMPIModelParams{Overdecompose: 8, Every: 160, Strategy: st.s})
			if i == 0 {
				b.Logf("%-16s %7.2fs (compute %.2f, comm %.2f, lb %.2f, migrations %d)",
					st.name, o.Seconds, o.ComputeSeconds, o.CommSeconds, o.LBSeconds, o.Migrations)
			}
		}
	}
}

// BenchmarkAblationDiffusionKnobs sweeps the three interfering diffusion
// parameters (§IV-B) around the tuned point, demonstrating that the cut
// speed Width/Every must outpace the workload drift.
func BenchmarkAblationDiffusionKnobs(b *testing.B) {
	mach := Edison()
	mk := func() *Workload { return workload(b, 1498, 600000, 0.999, nil) }
	configs := []diffusion.Params{
		{Every: 2, Threshold: 0.02, Width: 8, MinWidth: 9},      // tuned
		{Every: 2, Threshold: 0.02, Width: 1, MinWidth: 2},      // too narrow
		{Every: 50, Threshold: 0.02, Width: 8, MinWidth: 9},     // too rare
		{Every: 50, Threshold: 0.02, Width: 100, MinWidth: 101}, // rare but wide
		{Every: 2, Threshold: 0.5, Width: 8, MinWidth: 9},       // too timid
	}
	for i := 0; i < b.N; i++ {
		for _, p := range configs {
			o := SimulateDiffusion(mach, mk(), 24, 1500, p)
			if i == 0 {
				b.Logf("every=%-3d width=%-3d thresh=%.2f: %7.2fs (maxload %.0f/%.0f)",
					p.Every, p.Width, p.Threshold, o.Seconds, o.MaxFinalLoad, o.IdealLoad)
			}
		}
	}
}

// BenchmarkAblationTwoPhase compares x-only diffusion (the paper's
// experimental choice) with the full two-phase scheme on the y-uniform
// paper workload: phase 2 costs a reduction and buys nothing here.
func BenchmarkAblationTwoPhase(b *testing.B) {
	mach := Edison()
	mk := func() *Workload { return workload(b, 1498, 600000, 0.999, nil) }
	params := diffusion.Params{Every: 2, Threshold: 0.02, Width: 8, MinWidth: 9}
	twoPhase := params
	twoPhase.TwoPhase = true
	for i := 0; i < b.N; i++ {
		x := SimulateDiffusion(mach, mk(), 96, 1500, params)
		two := SimulateDiffusion(mach, mk(), 96, 1500, twoPhase)
		if i == 0 {
			b.Logf("x-only %7.3fs   two-phase %7.3fs (overhead %+.1f%%)", x.Seconds, two.Seconds, (two.Seconds/x.Seconds-1)*100)
		}
	}
}

// BenchmarkAblationOverdecomposition isolates the d knob's two sides: finer
// balance granularity vs per-VP scheduling and fragmentation overhead.
func BenchmarkAblationOverdecomposition(b *testing.B) {
	mach := Edison()
	mk := func() *Workload { return workload(b, 1498, 600000, 0.999, nil) }
	for i := 0; i < b.N; i++ {
		for _, d := range []int{1, 4, 16, 64} {
			o := SimulateAMPI(mach, mk(), 96, 1500, AMPIModelParams{Overdecompose: d, Every: 640})
			if i == 0 {
				b.Logf("d=%-3d %7.2fs (compute %.2f, comm %.2f, maxload %.0f/%.0f)",
					d, o.Seconds, o.ComputeSeconds, o.CommSeconds, o.MaxFinalLoad, o.IdealLoad)
			}
		}
	}
}

// TestSimulateAMPIDefaultsToGreedyLB pins where the model's default strategy
// lives: AMPIModelParams without a Strategy decides exactly as GreedyLB.
func TestSimulateAMPIDefaultsToGreedyLB(t *testing.T) {
	m := Edison()
	run := func(s ampi.Strategy) []string {
		_, log := SimulateAMPITraced(m, workload(t, 128, 200000, 0.97, nil), 16, 200, AMPIModelParams{Overdecompose: 4, Every: 20, Strategy: s})
		return log
	}
	got, want := run(nil), run(ampi.GreedyLB{})
	if len(want) == 0 {
		t.Fatal("GreedyLB never moved a VP; the comparison would be vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("nil strategy logged\n%v\nGreedyLB logged\n%v", got, want)
	}
}

// TestSimulateAMPILeavesStrategyUnchanged checks that the model hints a
// topology-aware strategy in a copy, as the driver does: the caller's value
// stays unhinted.
func TestSimulateAMPILeavesStrategyUnchanged(t *testing.T) {
	h := &ampi.HintedGreedyLB{}
	SimulateAMPI(Edison(), workload(t, 128, 200000, 0.97, nil), 16, 50, AMPIModelParams{Overdecompose: 4, Every: 20, Strategy: h})
	if !reflect.DeepEqual(h, &ampi.HintedGreedyLB{}) {
		t.Errorf("SimulateAMPI wrote into the caller's strategy: %+v", h)
	}
}
