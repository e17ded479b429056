package sweep

import (
	"fmt"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/model"
)

// Scale selects how thoroughly the experiments run.
type Scale int

// Full reproduces the paper's exact problem sizes; Quick shrinks grids and
// step counts proportionally for smoke tests and CI (shapes persist, exact
// values shift).
const (
	Full Scale = iota
	Quick
)

// paperWorkload builds a workload factory for the paper's standard skewed
// initialization (§III-E1 with r = 0.999, k = 0).
func paperWorkload(L, n int) model.WorkloadFactory {
	m := grid.MustMesh(L, 1)
	return func() *model.Workload {
		w, err := model.NewWorkload(dist.Config{Mesh: m, N: n, Dist: dist.Geometric{R: 0.999}, Seed: 1}, nil)
		if err != nil {
			panic(err) // static known-good configuration
		}
		return w
	}
}

func scaled(s Scale, full, quick int) int {
	if s == Quick {
		return quick
	}
	return full
}

// Fig5 reproduces Figure 5: sensitivity of the AMPI implementation to the
// load-balancing interval F (at fixed d=4) and to the over-decomposition
// degree d (at fixed F=1000). Grid 5,998², 6.4M particles, 6,000 steps,
// 192 cores.
func Fig5(mach model.Machine, s Scale) *Figure {
	L := scaled(s, 5998, 1498)
	n := 6400000 // model cost is independent of n; keep the paper's count
	steps := scaled(s, 6000, 1500)
	p := scaled(s, 192, 48)
	wf := paperWorkload(L, n)

	fs := []int{20, 40, 80, 160, 320, 640, 1280}
	ds := []int{1, 2, 4, 8, 16, 32, 64}
	fig := &Figure{
		ID:     "fig5",
		Title:  "AMPI tuning: LB interval F (d=4) and over-decomposition d (F=1000)",
		Config: fmt.Sprintf("%dx%d cells, %d particles, %d steps, %d cores, geometric r=0.999 k=0", L, L, n, steps, p),
		XLabel: "increase",
		XTicks: []string{"1x", "2x", "4x", "8x", "16x", "32x", "64x"},
	}
	fSeries := Series{Name: "varying interval F (F=20·x)", Unit: "s"}
	for _, f := range fs {
		o := model.SimulateAMPI(mach, wf(), p, steps, model.AMPIModelParams{Overdecompose: 4, Every: f})
		fSeries.Values = append(fSeries.Values, o.Seconds)
	}
	dSeries := Series{Name: "varying over-decomposition d (d=x)", Unit: "s"}
	for _, d := range ds {
		o := model.SimulateAMPI(mach, wf(), p, steps, model.AMPIModelParams{Overdecompose: d, Every: 1000})
		dSeries.Values = append(dSeries.Values, o.Seconds)
	}
	fig.Series = []Series{fSeries, dSeries}

	bestF, worstF := minMax(fSeries.Values)
	bestD, worstD := minMax(dSeries.Values)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("F-sweep best/worst improvement: %.1fx (paper §V-A: 4.2x, 180s @F=20 vs 43s @F=160)", worstF/bestF),
		fmt.Sprintf("d-sweep best/worst improvement: %.1fx (paper §V-A: 2.2x, 104s @d=1 vs 47s @d=16)", worstD/bestD),
	)
	return fig
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// strongScalingPoint runs the three implementations, tuned per the paper's
// methodology, at one core count.
func strongScalingPoint(mach model.Machine, wf model.WorkloadFactory, p, steps int, s Scale) (base, diff, am model.Outcome) {
	base = model.SimulateBaseline(mach, wf(), p, steps)
	dgrid := model.DiffusionGrid(1)
	agrid := model.AMPIGrid()
	if s == Quick {
		dgrid = dgrid[:6] // the small-Every entries, which dominate anyway
		// A diverse sub-grid: over-decomposition degrees and LB intervals
		// spanning the full ranges.
		agrid = nil
		for _, d := range []int{4, 8, 16} {
			for _, f := range []int{160, 640, 2000} {
				agrid = append(agrid, model.AMPIModelParams{Overdecompose: d, Every: f})
			}
		}
	}
	_, diff = model.TuneDiffusion(mach, wf, p, steps, dgrid)
	_, am = model.TuneAMPI(mach, wf, p, steps, agrid)
	return base, diff, am
}

// Fig6Left reproduces Figure 6 (left): strong scaling on a single node,
// 1–24 cores. Grid 2,998², 600k particles, 6,000 steps.
func Fig6Left(mach model.Machine, s Scale) *Figure {
	L := scaled(s, 2998, 1498)
	n := 600000 // model cost is independent of n; keep the paper's count
	steps := scaled(s, 6000, 1500)
	wf := paperWorkload(L, n)
	ps := []int{1, 4, 8, 12, 16, 20, 24}

	fig := &Figure{
		ID:     "fig6-left",
		Title:  "Strong scaling, single node",
		Config: fmt.Sprintf("%dx%d cells, %d particles, %d steps, geometric r=0.999 k=0, params tuned per point", L, L, n, steps),
		XLabel: "cores",
	}
	var bs, dsr, as Series
	bs = Series{Name: "mpi-2d", Unit: "s"}
	dsr = Series{Name: "mpi-2d-LB", Unit: "s"}
	as = Series{Name: "ampi", Unit: "s"}
	var lastBase, lastDiff, lastAMPI model.Outcome
	for _, p := range ps {
		fig.XTicks = append(fig.XTicks, fmt.Sprint(p))
		base, diff, am := strongScalingPoint(mach, wf, p, steps, s)
		bs.Values = append(bs.Values, base.Seconds)
		dsr.Values = append(dsr.Values, diff.Seconds)
		as.Values = append(as.Values, am.Seconds)
		lastBase, lastDiff, lastAMPI = base, diff, am
	}
	fig.Series = []Series{bs, dsr, as}
	last := len(ps) - 1
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("at %d cores: ampi %.1fx and mpi-2d-LB %.1fx faster than mpi-2d (paper §V-B: 1.3x and 1.6x)",
			ps[last], bs.Values[last]/as.Values[last], bs.Values[last]/dsr.Values[last]),
		fmt.Sprintf("max particles/core at end: mpi-2d %.0f, mpi-2d-LB %.0f, ampi %.0f, ideal %.0f (paper §V-B: 62,645 / 30,585 / - / 25,000)",
			lastBase.MaxFinalLoad, lastDiff.MaxFinalLoad, lastAMPI.MaxFinalLoad, lastBase.IdealLoad),
	)
	return fig
}

// Fig6Right reproduces Figure 6 (right): strong scaling across nodes,
// 24–384 cores, same problem as Fig6Left.
func Fig6Right(mach model.Machine, s Scale) *Figure {
	L := scaled(s, 2998, 1498)
	n := 600000 // model cost is independent of n; keep the paper's count
	steps := scaled(s, 6000, 1500)
	wf := paperWorkload(L, n)
	ps := []int{24, 48, 96, 192, 384}

	fig := &Figure{
		ID:     "fig6-right",
		Title:  "Strong scaling, multiple nodes",
		Config: fmt.Sprintf("%dx%d cells, %d particles, %d steps, geometric r=0.999 k=0, params tuned per point", L, L, n, steps),
		XLabel: "cores",
	}
	serial := model.SimulateSerial(mach, wf(), steps)
	bs := Series{Name: "mpi-2d", Unit: "s"}
	dsr := Series{Name: "mpi-2d-LB", Unit: "s"}
	as := Series{Name: "ampi", Unit: "s"}
	for _, p := range ps {
		fig.XTicks = append(fig.XTicks, fmt.Sprint(p))
		base, diff, am := strongScalingPoint(mach, wf, p, steps, s)
		bs.Values = append(bs.Values, base.Seconds)
		dsr.Values = append(dsr.Values, diff.Seconds)
		as.Values = append(as.Values, am.Seconds)
	}
	fig.Series = []Series{bs, dsr, as}
	last := len(ps) - 1
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("max speedup over serial (%.0fs): mpi-2d-LB %.0fx, ampi %.0fx (paper §V-B: 179x and 92x)",
			serial.Seconds, serial.Seconds/dsr.Values[last], serial.Seconds/as.Values[last]),
		fmt.Sprintf("at %d cores mpi-2d-LB outperforms ampi by %.1fx (paper §V-B: factor of 2)",
			ps[last], as.Values[last]/dsr.Values[last]),
	)
	return fig
}

// Fig7 reproduces Figure 7: weak scaling. Grid 11,998² fixed; 400k
// particles at 48 cores, scaled proportionally with cores; 6,000 steps.
func Fig7(mach model.Machine, s Scale) *Figure {
	L := scaled(s, 11998, 2998)
	nBase := 400000 // model cost is independent of n; keep the paper's count
	steps := scaled(s, 6000, 1500)
	pBase := 48
	ps := []int{48, 192, 768, 3072}
	if s == Quick {
		ps = []int{48, 192, 768}
	}

	fig := &Figure{
		ID:     "fig7",
		Title:  "Weak scaling (grid fixed, particles proportional to cores)",
		Config: fmt.Sprintf("%dx%d cells, %d particles @%d cores (scaled with P), %d steps, geometric r=0.999 k=0", L, L, nBase, pBase, steps),
		XLabel: "cores",
	}
	bs := Series{Name: "mpi-2d", Unit: "s"}
	dsr := Series{Name: "mpi-2d-LB", Unit: "s"}
	as := Series{Name: "ampi", Unit: "s"}
	for _, p := range ps {
		fig.XTicks = append(fig.XTicks, fmt.Sprint(p))
		wf := paperWorkload(L, nBase*p/pBase)
		base, diff, am := strongScalingPoint(mach, wf, p, steps, s)
		bs.Values = append(bs.Values, base.Seconds)
		dsr.Values = append(dsr.Values, diff.Seconds)
		as.Values = append(as.Values, am.Seconds)
	}
	fig.Series = []Series{bs, dsr, as}
	last := len(ps) - 1
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("at %s cores: ampi %.1fx and mpi-2d-LB %.1fx faster than mpi-2d (paper §V-C: 2.4x and 1.8x at 3,072)",
			fig.XTicks[last], bs.Values[last]/as.Values[last], bs.Values[last]/dsr.Values[last]),
	)
	return fig
}

// FigWorkSteal is the comparative-strategy study the paper's §VI proposes
// as future work, run on the model: the VP substrate driven by GreedyLB
// (Charm++'s classic full reassignment), RefineLB (the paper's choice) and
// WorkStealLB (demand-driven stealing) across LB intervals F. The same
// ampi.Strategy code runs in the real VP drivers via
// balance.StrategyBalancer, so this figure rates the policies the drivers
// actually execute.
func FigWorkSteal(mach model.Machine, s Scale) *Figure {
	L := scaled(s, 5998, 1498)
	n := 6400000 // model cost is independent of n; keep the paper's count
	steps := scaled(s, 6000, 1500)
	p := scaled(s, 192, 48)
	wf := paperWorkload(L, n)
	fs := []int{20, 80, 320, 1280}

	fig := &Figure{
		ID:     "fig-ws",
		Title:  "Balancing strategy comparison: global reassignment vs refinement vs work stealing (d=4)",
		Config: fmt.Sprintf("%dx%d cells, %d particles, %d steps, %d cores, geometric r=0.999 k=0", L, L, n, steps, p),
		XLabel: "LB interval F",
	}
	strategies := []struct {
		name string
		s    ampi.Strategy
	}{
		{"GreedyLB", ampi.GreedyLB{}},
		{"RefineLB", ampi.RefineLB{}},
		{"WorkStealLB", ampi.WorkStealLB{}},
	}
	var bytesMoved [3]float64
	for i, st := range strategies {
		ser := Series{Name: st.name, Unit: "s"}
		for _, f := range fs {
			o := model.SimulateAMPI(mach, wf(), p, steps, model.AMPIModelParams{Overdecompose: 4, Every: f, Strategy: st.s})
			ser.Values = append(ser.Values, o.Seconds)
			bytesMoved[i] += o.BytesMigrated
		}
		fig.Series = append(fig.Series, ser)
		if i == 0 {
			fig.XTicks = make([]string, len(fs))
			for j, f := range fs {
				fig.XTicks[j] = fmt.Sprint(f)
			}
		}
	}
	greedyBest, _ := minMax(fig.Series[0].Values)
	stealBest, _ := minMax(fig.Series[2].Values)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("best WorkStealLB vs best GreedyLB: %.2fx (stealing bounds migration volume per epoch)", greedyBest/stealBest),
		fmt.Sprintf("migration volume summed over the F-sweep: GreedyLB %.1f GB, RefineLB %.1f GB, WorkStealLB %.1f GB",
			bytesMoved[0]/1e9, bytesMoved[1]/1e9, bytesMoved[2]/1e9),
	)
	return fig
}

// All returns every registered figure reproduction.
func All(mach model.Machine, s Scale) []*Figure {
	return []*Figure{
		Fig5(mach, s),
		Fig6Left(mach, s),
		Fig6Right(mach, s),
		Fig7(mach, s),
		FigWorkSteal(mach, s),
	}
}
