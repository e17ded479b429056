package driver

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
)

func testConfig(t testing.TB, L, n, steps int) Config {
	t.Helper()
	m, err := grid.NewMesh(L, grid.DefaultCharge)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Mesh: m, N: n, Steps: steps,
		Dist:   dist.Geometric{R: 0.92},
		Seed:   12345,
		Verify: true,
	}
}

// must returns the engine a constructor built from parameters the test
// knows are valid, and panics if the constructor refused them.
func must(eng *Engine, err error) *Engine {
	if err != nil {
		panic(err)
	}
	return eng
}

// sequentialReference runs the serial simulation and returns its particles
// sorted by ID.
func sequentialReference(t testing.TB, cfg Config) *core.SoA {
	t.Helper()
	sim, err := core.NewSimulation(cfg.distConfig(), cfg.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(cfg.Steps)
	if err := sim.Verify(core.DefaultTolerance); err != nil {
		t.Fatalf("sequential reference failed verification: %v", err)
	}
	sim.Particles.SortByID()
	return sim.Particles
}

func assertBitwiseEqual(t *testing.T, want, got *core.SoA, label string) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d particles, reference has %d", label, got.Len(), want.Len())
	}
	for i := range want.Len() {
		if w, g := want.At(i), got.At(i); w != g {
			t.Fatalf("%s: particle %d differs:\nref: %+v\ngot: %+v", label, w.ID, w, g)
		}
	}
}

// assertSameCounts fails unless got counted exactly what ref did: every
// RankStats field but the phase times, and the per-peer exchange rows, each
// of which sums to its rank's BytesExchanged.
func assertSameCounts(t *testing.T, ref, got *Result, what string) {
	t.Helper()
	counts := func(st RankStats) RankStats {
		st.Compute, st.Exchange, st.Balance, st.Migrate, st.Overlap = 0, 0, 0, 0, 0
		return st
	}
	if len(got.PerRank) != len(ref.PerRank) {
		t.Fatalf("%s: %d ranks, reference %d", what, len(got.PerRank), len(ref.PerRank))
	}
	for r := range ref.PerRank {
		if a, b := counts(ref.PerRank[r]), counts(got.PerRank[r]); a != b {
			t.Fatalf("%s rank %d: counts diverged:\nreference %+v\ngot       %+v", what, r, a, b)
		}
	}
	if ref.Timeline == nil || got.Timeline == nil {
		t.Fatalf("%s: no timeline to compare the exchange rows of", what)
	}
	if !reflect.DeepEqual(ref.Timeline.PeerXchg, got.Timeline.PeerXchg) {
		t.Fatalf("%s: exchange rows diverged:\nreference %+v\ngot       %+v", what, ref.Timeline.PeerXchg, got.Timeline.PeerXchg)
	}
	for _, res := range []*Result{ref, got} {
		for _, row := range res.Timeline.PeerXchg {
			var sum int64
			for _, b := range row.Bytes {
				sum += b
			}
			if want := res.PerRank[row.Rank].BytesExchanged; sum != want {
				t.Fatalf("%s rank %d: exchange row sums to %d bytes, BytesExchanged is %d", what, row.Rank, sum, want)
			}
		}
	}
}

func TestBaselineMatchesSequential(t *testing.T) {
	cfg := testConfig(t, 16, 2000, 40)
	ref := sequentialReference(t, cfg)
	for _, p := range []int{1, 2, 4, 6} {
		res, err := NewBaselineEngine(cfg).Run(p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !res.Verified {
			t.Fatalf("P=%d: not verified", p)
		}
		assertBitwiseEqual(t, ref, res.Particles, fmt.Sprintf("baseline P=%d", p))
		if res.FinalParticles != 2000 {
			t.Fatalf("P=%d: final count %d", p, res.FinalParticles)
		}
	}
}

func TestDiffusionMatchesSequential(t *testing.T) {
	cfg := testConfig(t, 16, 2000, 40)
	ref := sequentialReference(t, cfg)
	params := diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2}
	for _, p := range []int{1, 2, 4, 6} {
		res, err := must(NewDiffusionEngine(cfg, params)).Run(p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !res.Verified {
			t.Fatalf("P=%d: not verified", p)
		}
		assertBitwiseEqual(t, ref, res.Particles, fmt.Sprintf("diffusion P=%d", p))
	}
}

func TestAMPIMatchesSequential(t *testing.T) {
	cfg := testConfig(t, 16, 2000, 40)
	ref := sequentialReference(t, cfg)
	params := AMPIParams{Overdecompose: 4, Every: 10}
	for _, p := range []int{1, 2, 4} {
		res, err := must(NewAMPIEngine(p, cfg, params)).Run(p)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !res.Verified {
			t.Fatalf("P=%d: not verified", p)
		}
		assertBitwiseEqual(t, ref, res.Particles, fmt.Sprintf("ampi P=%d", p))
	}
}

func TestDriversWithInjectionAndRemoval(t *testing.T) {
	cfg := testConfig(t, 16, 1500, 30)
	cfg.Schedule = dist.Schedule{
		{Step: 10, Region: dist.Rect{X0: 2, X1: 8, Y0: 2, Y1: 8}, Inject: 400, K: 0, M: 1},
		{Step: 20, Region: dist.Rect{X0: 0, X1: 6, Y0: 0, Y1: 16}, Remove: true},
	}
	ref := sequentialReference(t, cfg)
	base, err := NewBaselineEngine(cfg).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, ref, base.Particles, "baseline+events")

	diff, err := must(NewDiffusionEngine(cfg, diffusion.Params{Every: 7, Threshold: 0.05, Width: 1, MinWidth: 2})).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, ref, diff.Particles, "diffusion+events")

	am, err := must(NewAMPIEngine(4, cfg, AMPIParams{Overdecompose: 2, Every: 8})).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, ref, am.Particles, "ampi+events")
}

func TestDriversWithFastAndVerticalParticles(t *testing.T) {
	cfg := testConfig(t, 20, 800, 25)
	cfg.K = 1 // 3 cells per step: exchanges skip over neighbor subdomains
	cfg.M = -2
	ref := sequentialReference(t, cfg)

	base, err := NewBaselineEngine(cfg).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, ref, base.Particles, "baseline k=1 m=-2")

	am, err := must(NewAMPIEngine(2, cfg, AMPIParams{Overdecompose: 4, Every: 5})).Run(2)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, ref, am.Particles, "ampi k=1 m=-2")
}

func TestDriversLeftwardDrift(t *testing.T) {
	cfg := testConfig(t, 16, 600, 20)
	cfg.Dir = -1
	ref := sequentialReference(t, cfg)
	res, err := must(NewDiffusionEngine(cfg, diffusion.Params{Every: 5, Threshold: 0.1, Width: 1, MinWidth: 2})).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, ref, res.Particles, "diffusion dir=-1")
}

func TestDiffusionActuallyMigrates(t *testing.T) {
	cfg := testConfig(t, 32, 5000, 60)
	cfg.Dist = dist.Geometric{R: 0.85} // strongly skewed
	params := diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2}
	res, err := must(NewDiffusionEngine(cfg, params)).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	migrations := 0
	for _, s := range res.PerRank {
		migrations += s.Migrations
	}
	if migrations == 0 {
		t.Error("diffusion never migrated on a strongly skewed workload")
	}
}

func TestDiffusionImprovesBalanceOverBaseline(t *testing.T) {
	cfg := testConfig(t, 32, 8000, 60)
	cfg.Dist = dist.Geometric{R: 0.85}
	base, err := NewBaselineEngine(cfg).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := must(NewDiffusionEngine(cfg, diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2})).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §V-B comparison: max particles per rank at the end.
	if diff.MaxFinalParticles >= base.MaxFinalParticles {
		t.Errorf("diffusion max/rank %d did not beat baseline %d",
			diff.MaxFinalParticles, base.MaxFinalParticles)
	}
}

func TestAMPIActuallyMigratesVPs(t *testing.T) {
	cfg := testConfig(t, 32, 5000, 40)
	cfg.Dist = dist.Geometric{R: 0.85}
	res, err := must(NewAMPIEngine(4, cfg, AMPIParams{Overdecompose: 4, Every: 10})).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	for _, s := range res.PerRank {
		moves += s.Migrations
	}
	if moves == 0 {
		t.Error("ampi never migrated a VP on a strongly skewed workload")
	}
}

func TestAMPIImprovesBalanceOverBaseline(t *testing.T) {
	cfg := testConfig(t, 32, 8000, 60)
	cfg.Dist = dist.Geometric{R: 0.85}
	base, err := NewBaselineEngine(cfg).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	am, err := must(NewAMPIEngine(4, cfg, AMPIParams{Overdecompose: 8, Every: 10})).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if am.MaxFinalParticles >= base.MaxFinalParticles {
		t.Errorf("ampi max/rank %d did not beat baseline %d",
			am.MaxFinalParticles, base.MaxFinalParticles)
	}
}

func TestAMPIStrategies(t *testing.T) {
	cfg := testConfig(t, 16, 1000, 20)
	ref := sequentialReference(t, cfg)
	for _, tc := range []struct {
		name string
		s    ampi.Strategy
	}{
		{"NullLB", ampi.NullLB{}}, {"RotateLB", ampi.RotateLB{}}, {"GreedyLB", ampi.GreedyLB{}},
		{"RefineLB", ampi.RefineLB{}}, {"HintedGreedyLB", &ampi.HintedGreedyLB{}}, {"WorkStealLB", ampi.WorkStealLB{}},
	} {
		res, err := must(NewAMPIEngine(3, cfg, AMPIParams{Overdecompose: 4, Every: 6, Strategy: tc.s})).Run(3)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertBitwiseEqual(t, ref, res.Particles, tc.name)
	}
}

func TestSinusoidalAndPatchDistributions(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    dist.Distribution
	}{
		{"sinusoidal", dist.Sinusoidal{}},
		{"linear", dist.Linear{Alpha: 1, Beta: 2}},
		{"patch", dist.Patch{X0: 3, X1: 9, Y0: 3, Y1: 9}},
		{"uniform", dist.Uniform{}},
	} {
		cfg := testConfig(t, 16, 1200, 25)
		cfg.Dist = tc.d
		ref := sequentialReference(t, cfg)
		res, err := NewBaselineEngine(cfg).Run(4)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertBitwiseEqual(t, ref, res.Particles, tc.name)
	}
}

func TestDistributedVerify(t *testing.T) {
	cfg := testConfig(t, 16, 1500, 30)
	cfg.Verify = false
	cfg.DistributedVerify = true
	cfg.Schedule = dist.Schedule{
		{Step: 10, Region: dist.Rect{X0: 2, X1: 8, Y0: 2, Y1: 8}, Inject: 200, M: 1},
		{Step: 20, Region: dist.Rect{X0: 0, X1: 6, Y0: 0, Y1: 16}, Remove: true},
	}
	for _, run := range []struct {
		name string
		fn   func() (*Result, error)
	}{
		{"baseline", func() (*Result, error) { return NewBaselineEngine(cfg).Run(4) }},
		{"diffusion", func() (*Result, error) {
			return must(NewDiffusionEngine(cfg, diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2})).Run(4)
		}},
		{"ampi", func() (*Result, error) {
			return must(NewAMPIEngine(4, cfg, AMPIParams{Overdecompose: 4, Every: 10})).Run(4)
		}},
	} {
		res, err := run.fn()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if !res.Verified {
			t.Errorf("%s: distributed verification did not pass", run.name)
		}
		if res.Particles != nil {
			t.Errorf("%s: distributed verification must not gather particles", run.name)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	m, _ := grid.NewMesh(8, 1)
	if _, err := NewBaselineEngine(Config{Mesh: m, N: 1, Steps: 1}).Run(0); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := NewBaselineEngine(Config{Mesh: m, N: 1, Steps: -1}).Run(2); err == nil {
		t.Error("negative steps accepted")
	}
	if _, err := NewBaselineEngine(Config{N: 1, Steps: 1}).Run(2); err == nil {
		t.Error("zero mesh accepted")
	}
	if _, err := NewDiffusionEngine(Config{Mesh: m, N: 1, Steps: 1}, diffusion.Params{}); err == nil {
		t.Error("invalid diffusion params accepted")
	}
	if _, err := NewAMPIEngine(2, Config{Mesh: m, N: 1, Steps: 1}, AMPIParams{}); err == nil {
		t.Error("invalid ampi params accepted")
	}
	if _, err := must(NewAMPIEngine(2, Config{Mesh: m, N: 1, Steps: 1}, AMPIParams{Overdecompose: 100, Every: 5})).Run(2); err == nil {
		t.Error("VP grid larger than domain accepted")
	}
}

func TestDriversUnderChaosDelays(t *testing.T) {
	// Random message delivery delays must not change any result: the
	// protocols rely only on (source, tag) matching and sequence-numbered
	// collectives.
	cfg := testConfig(t, 16, 800, 20)
	cfg.Chaos = 500 * time.Microsecond
	ref := sequentialReference(t, cfg)
	base, err := NewBaselineEngine(cfg).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, ref, base.Particles, "baseline+chaos")
	am, err := must(NewAMPIEngine(3, cfg, AMPIParams{Overdecompose: 4, Every: 5})).Run(3)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, ref, am.Particles, "ampi+chaos")
	diff, err := must(NewDiffusionEngine(cfg, diffusion.Params{Every: 4, Threshold: 0.05, Width: 1, MinWidth: 2, TwoPhase: true})).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, ref, diff.Particles, "diffusion+chaos")
}

func TestZeroStepsRun(t *testing.T) {
	cfg := testConfig(t, 8, 100, 0)
	res, err := NewBaselineEngine(cfg).Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.FinalParticles != 100 {
		t.Fatalf("zero-step run: verified=%v n=%d", res.Verified, res.FinalParticles)
	}
}

// TestKitchenSink combines every feature at once: fast leftward vertical
// particles, two-phase diffusion, chaos delays, an event schedule, and
// distributed verification at an awkward rank count.
func TestKitchenSink(t *testing.T) {
	cfg := testConfig(t, 24, 2500, 36)
	cfg.K = 1
	cfg.M = -2
	cfg.Dir = -1
	cfg.Dist = dist.Sinusoidal{}
	cfg.Chaos = 200 * time.Microsecond
	cfg.Verify = false
	cfg.DistributedVerify = true
	cfg.Schedule = dist.Schedule{
		{Step: 9, Region: dist.Rect{X0: 0, X1: 12, Y0: 12, Y1: 24}, Inject: 600, K: 2, M: 1},
		{Step: 18, Region: dist.Rect{X0: 6, X1: 18, Y0: 0, Y1: 24}, Remove: true},
		{Step: 27, Region: dist.Rect{X0: 0, X1: 24, Y0: 0, Y1: 6}, Inject: 300},
	}
	res, err := must(NewDiffusionEngine(cfg, diffusion.Params{Every: 3, Threshold: 0.05, Width: 1, MinWidth: 2, TwoPhase: true})).Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("kitchen sink run not verified")
	}
	am, err := must(NewAMPIEngine(5, cfg, AMPIParams{Overdecompose: 4, Every: 4, Strategy: ampi.WorkStealLB{}})).Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if !am.Verified {
		t.Fatal("ampi kitchen sink run not verified")
	}
	if res.FinalParticles != am.FinalParticles {
		t.Fatalf("final counts disagree: %d vs %d", res.FinalParticles, am.FinalParticles)
	}
}

func TestResultHighWater(t *testing.T) {
	cfg := testConfig(t, 16, 1000, 10)
	res, err := NewBaselineEngine(cfg).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if hw := res.MaxParticlesHighWater(); hw < res.MaxFinalParticles {
		t.Errorf("high water %d below final max %d", hw, res.MaxFinalParticles)
	}
}
