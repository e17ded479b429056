package driver

import (
	"testing"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
)

// TestTwoPhaseMatchesSequential checks correctness of the full two-phase
// scheme (x then y boundary balancing) against the sequential reference.
func TestTwoPhaseMatchesSequential(t *testing.T) {
	cfg := testConfig(t, 16, 2000, 40)
	cfg.M = 1 // vertical motion makes the y-phase actually migrate rows
	ref := sequentialReference(t, cfg)
	params := diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2, TwoPhase: true}
	for _, p := range []int{1, 4, 6} {
		res, err := RunDiffusion(p, cfg, params)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !res.Verified {
			t.Fatalf("P=%d: not verified", p)
		}
		assertBitwiseEqual(t, ref, res.Particles, "two-phase")
	}
}

// TestTwoPhaseBalancesVerticalSkew uses a patch workload concentrated in a
// horizontal band: the x-only scheme cannot fix the y imbalance (the paper
// notes a fixed decomposition "can easily be defeated by rotating the
// particle distribution over 90°"), while the two-phase scheme can.
func TestTwoPhaseBalancesVerticalSkew(t *testing.T) {
	cfg := testConfig(t, 32, 8000, 60)
	// All particles in the bottom quarter, spread across all columns.
	cfg.Dist = dist.Patch{X0: 0, X1: 32, Y0: 0, Y1: 8}
	cfg.M = 0

	xOnly, err := RunDiffusion(4, cfg, diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	two, err := RunDiffusion(4, cfg, diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2, TwoPhase: true})
	if err != nil {
		t.Fatal(err)
	}
	if !two.Verified || !xOnly.Verified {
		t.Fatal("runs not verified")
	}
	if two.MaxFinalParticles >= xOnly.MaxFinalParticles {
		t.Errorf("two-phase max/rank %d did not beat x-only %d on a vertically skewed workload",
			two.MaxFinalParticles, xOnly.MaxFinalParticles)
	}
}

// TestDiffusion1DFigure3Scenario reproduces the paper's Figure 3
// illustration: a 1D block-column decomposition whose diffusion scheme
// sends border columns from heavy ranks to light neighbors, making the
// per-rank particle counts visibly more balanced — and still bitwise
// correct.
func TestDiffusion1DFigure3Scenario(t *testing.T) {
	cfg := testConfig(t, 32, 6000, 60)
	cfg.Dist = dist.Geometric{R: 0.9}
	ref := sequentialReference(t, cfg)
	// The diffusion engine on a 4×1 grid: every rank owns a full-height
	// column block.
	run1D := func(params diffusion.Params) *Result {
		t.Helper()
		eng := &Engine{
			Name: "diffusion",
			Cfg:  cfg,
			Substrate: func(c *comm.Comm, cfg Config) (Substrate, error) {
				return newBlockSubstrate(c, cfg, c.Size(), 1)
			},
			Balancer: func() balance.Balancer { return &balance.DiffusionBalancer{Params: params} },
		}
		res, err := eng.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run1D(diffusion.Params{Every: 1, Threshold: 0.05, Width: 2, MinWidth: 3})
	assertBitwiseEqual(t, ref, res.Particles, "diffusion-1d")

	// The static reference with the same 1D layout: an absurd threshold
	// disables all balancing actions.
	static := run1D(diffusion.Params{Every: 1, Threshold: 1e12, Width: 2, MinWidth: 3})
	if res.MaxFinalParticles >= static.MaxFinalParticles {
		t.Errorf("1D diffusion max/rank %d did not beat static 1D %d",
			res.MaxFinalParticles, static.MaxFinalParticles)
	}
	migrations := 0
	for _, s := range res.PerRank {
		migrations += s.Migrations
	}
	if migrations == 0 {
		t.Error("1D diffusion never moved a boundary")
	}
}

// TestTwoPhaseWithEvents stresses row migration together with injection and
// removal events.
func TestTwoPhaseWithEvents(t *testing.T) {
	cfg := testConfig(t, 16, 1200, 30)
	cfg.M = -1
	cfg.Schedule = dist.Schedule{
		{Step: 10, Region: dist.Rect{X0: 0, X1: 16, Y0: 0, Y1: 4}, Inject: 500, M: 2},
		{Step: 20, Region: dist.Rect{X0: 4, X1: 12, Y0: 4, Y1: 12}, Remove: true},
	}
	ref := sequentialReference(t, cfg)
	res, err := RunDiffusion(6, cfg, diffusion.Params{Every: 4, Threshold: 0.05, Width: 1, MinWidth: 2, TwoPhase: true})
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, ref, res.Particles, "two-phase+events")
}
