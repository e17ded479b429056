package model

import (
	"github.com/parres/picprk/internal/diffusion"
)

// The paper tunes each implementation's parameters per concurrency level
// and reports the best run ("For each implementation we tuned the relevant
// parameters and picked the best performing execution", §V-B). These
// helpers perform that grid search against the model.

// WorkloadFactory produces a fresh workload for each tuning trial.
type WorkloadFactory func() *Workload

// DiffusionGrid returns the parameter grid the tuner searches: the three
// interfering knobs of §IV-B. Frequencies and widths are paired so the
// boundary can track the drifting distribution (the cloud moves (2k+1)
// cells per step, so a cut must be able to move ≈ Every·speed cells per
// epoch to follow it) as well as lag it.
func DiffusionGrid(speed int) []diffusion.Params {
	var grid []diffusion.Params
	for _, every := range []int{1, 2, 5, 10, 25, 50, 100} {
		for _, wmul := range []int{1, 2, 4} {
			width := every * speed * wmul
			grid = append(grid, diffusion.Params{
				Every: every, Threshold: 0.02, Width: width, MinWidth: width + 1,
			})
		}
	}
	return grid
}

// TuneDiffusion runs the modeled diffusion implementation over the grid and
// returns the best parameters and outcome.
func TuneDiffusion(m Machine, wf WorkloadFactory, p, steps int, grid []diffusion.Params) (diffusion.Params, Outcome) {
	return tune(grid, func(params diffusion.Params) Outcome { return SimulateDiffusion(m, wf(), p, steps, params) })
}

// AMPIGrid returns the (d, F) grid for the modeled AMPI implementation,
// covering the ranges of the paper's Figure 5 sweep plus very rare LB
// invocations: with high over-decomposition a core hosts a mixture of VPs
// from all over the domain, so per-core load drifts slowly and one or two
// greedy epochs per run can suffice (the effect behind the paper's
// weak-scaling discussion, §V-C).
func AMPIGrid() []AMPIModelParams {
	var grid []AMPIModelParams
	for _, d := range []int{2, 4, 8, 16, 32} {
		for _, f := range []int{40, 160, 640, 1000, 2000, 3000} {
			grid = append(grid, AMPIModelParams{Overdecompose: d, Every: f})
		}
	}
	return grid
}

// TuneAMPI runs the modeled AMPI implementation over the grid and returns
// the best parameters and outcome.
func TuneAMPI(m Machine, wf WorkloadFactory, p, steps int, grid []AMPIModelParams) (AMPIModelParams, Outcome) {
	return tune(grid, func(params AMPIModelParams) Outcome { return SimulateAMPI(m, wf(), p, steps, params) })
}

// tune returns the grid point whose run is fastest; ties go to the first.
func tune[P any](grid []P, sim func(P) Outcome) (P, Outcome) {
	var bestP P
	var best Outcome
	for i, params := range grid {
		if o := sim(params); i == 0 || o.Seconds < best.Seconds {
			best, bestP = o, params
		}
	}
	return bestP, best
}
