// Skewed migration: the workload of the paper's experiments (§III-E1) — a
// geometric particle distribution drifting across the domain — run on 6
// goroutine ranks with and without the diffusion load balancer. The example
// prints the per-rank particle counts so the imbalance, and what the
// balancer does about it, is visible directly.
package main

import (
	"fmt"
	"log"

	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/stats"
)

func main() {
	const ranks = 6
	mesh := grid.MustMesh(96, grid.DefaultCharge)
	cfg := driver.Config{
		Mesh:   mesh,
		N:      60000,
		Dist:   dist.Geometric{R: 0.96}, // skewed: particle density falls 50x across the domain
		Seed:   7,
		Steps:  200,
		Verify: true,
	}

	fmt.Println("workload: geometric r=0.96 — the particle cloud drifts right one cell per step")
	fmt.Printf("ranks: %d (2D block decomposition)\n\n", ranks)

	base, err := driver.NewBaselineEngine(cfg).Run(ranks)
	if err != nil {
		log.Fatal(err)
	}
	printLoads("mpi-2d (no load balancing)", base)

	// Width/Every must outpace the drift: the cloud moves one cell per
	// step, so cuts must be able to move strictly faster than one cell per
	// step to first converge and then track it — the co-tuning of the
	// three interfering knobs that the paper's §IV-B calls out. A balancer
	// that lags the drift is worse than no balancer at all (try Width: 1).
	params := diffusion.Params{Every: 1, Threshold: 0.05, Width: 2, MinWidth: 3}
	eng, err := driver.NewDiffusionEngine(cfg, params)
	if err != nil {
		log.Fatal(err)
	}
	diff, err := eng.Run(ranks)
	if err != nil {
		log.Fatal(err)
	}
	printLoads("mpi-2d-LB (diffusion, x-direction)", diff)

	migrations := 0
	var bytes int64
	for _, s := range diff.PerRank {
		migrations += s.Migrations
		bytes += s.BytesMigrated
	}
	fmt.Printf("the balancer shifted subdomain boundaries %d times, shipping %d bytes of mesh data\n", migrations, bytes)
	fmt.Printf("max particles per rank: %d -> %d (ideal %d)\n",
		base.MaxFinalParticles, diff.MaxFinalParticles, cfg.N/ranks)
}

func printLoads(label string, res *driver.Result) {
	fmt.Printf("%s\n", label)
	loads := make([]float64, len(res.PerRank))
	for i, s := range res.PerRank {
		loads[i] = float64(s.FinalParticles)
		fmt.Printf("  rank %d: %6d particles %s\n", s.Rank, s.FinalParticles, bar(s.FinalParticles, 60000/2))
	}
	fmt.Printf("  %v, verified=%v\n\n", stats.Summarize(loads), res.Verified)
}

func bar(n, max int) string {
	w := n * 40 / max
	if w > 40 {
		w = 40
	}
	out := ""
	for i := 0; i < w; i++ {
		out += "#"
	}
	return out
}
