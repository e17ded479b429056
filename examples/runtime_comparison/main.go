// Runtime comparison: all four parallel implementations side by side on the
// paper's skewed workload — the three of paper §IV plus the work-stealing
// driver its §VI future work sketches — the small-scale, real-execution
// analogue of the paper's Figure 6. On a single host the goroutine ranks
// share cores, so wall-clock times reflect overheads rather than parallel
// speedup; the load-balance quality columns are the interesting part.
// For the paper-scale scaling curves, run cmd/picbench.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/stats"
)

func main() {
	const ranks = 8
	mesh := grid.MustMesh(128, grid.DefaultCharge)
	cfg := driver.Config{
		Mesh:   mesh,
		N:      80000,
		Dist:   dist.Geometric{R: 0.97},
		Seed:   11,
		Steps:  300,
		Verify: true,
	}

	fmt.Printf("PIC PRK, %d ranks, %d particles, %d steps, geometric r=0.97\n\n", ranks, cfg.N, cfg.Steps)
	fmt.Printf("%-12s %-10s %-10s %-12s %-10s %-9s\n",
		"impl", "wall", "max/rank", "imbalance", "migrations", "verified")

	// run runs eng on the ranks, or stops at err, its constructor's error.
	run := func(name string, eng *driver.Engine, err error) {
		start := time.Now()
		var res *driver.Result
		if err == nil {
			res, err = eng.Run(ranks)
		}
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		loads := make([]float64, len(res.PerRank))
		migrations := 0
		for i, s := range res.PerRank {
			loads[i] = float64(s.FinalParticles)
			migrations += s.Migrations
		}
		sum := stats.Summarize(loads)
		fmt.Printf("%-12s %-10v %-10d %-12.3f %-10d %-9v\n",
			name, time.Since(start).Round(time.Millisecond),
			res.MaxFinalParticles, sum.Imbalance, migrations, res.Verified)
	}

	run("mpi-2d", driver.NewBaselineEngine(cfg), nil)
	// Width/Every is co-tuned so the boundary tracking outpaces the
	// one-cell-per-step drift of the particle cloud (§IV-B).
	eng, err := driver.NewDiffusionEngine(cfg, diffusion.Params{Every: 1, Threshold: 0.05, Width: 2, MinWidth: 3})
	run("mpi-2d-LB", eng, err)
	eng, err = driver.NewAMPIEngine(ranks, cfg, driver.AMPIParams{Overdecompose: 8, Every: 25})
	run("ampi", eng, err)
	eng, err = driver.NewWorkStealEngine(cfg, driver.WorkStealParams{Overdecompose: 8, Every: 25})
	run("worksteal", eng, err)

	fmt.Println("\nall four implementations produce bitwise-identical particle states;")
	fmt.Println("they differ only in where the work lives (imbalance) and what moving it costs")
}
