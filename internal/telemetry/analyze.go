package telemetry

import (
	"sort"
	"time"

	"github.com/parres/picprk/internal/stats"
	"github.com/parres/picprk/internal/trace"
)

// Analysis helpers shared by cmd/picstat and the tests: per-step aggregates
// over ranks, run-wide phase totals, and worst-step ranking.

// StepStat aggregates one step's samples across ranks.
type StepStat struct {
	Step int
	// Wall is the step's wall-clock estimate: the maximum over ranks of
	// the rank's summed phase time. Steps are bulk-synchronous (the
	// exchange is collective), so the slowest rank sets the pace and the
	// difference to the other ranks is idle time — the cost of imbalance.
	Wall time.Duration
	// Phases sums each phase over all ranks (CPU time, not wall time).
	Phases trace.PhaseDurations
	// Load summarizes the per-rank particle counts; Load.Imbalance is the
	// paper's max-over-mean metric at this step.
	Load stats.Summary
	// Counters sums each counter over ranks: movement and traffic for the
	// step, and for gauges the global level (the particle population).
	Counters [NumCounters]int64
	// Decision is the balancer decision executed this step, if any.
	Decision string
}

// StepStats folds the timeline into one StepStat per step, in step order.
func (tl *Timeline) StepStats() []StepStat {
	var out []StepStat
	loads := make([]float64, 0, tl.P)
	for lo := 0; lo < len(tl.Samples); {
		hi := lo
		for hi < len(tl.Samples) && tl.Samples[hi].Step == tl.Samples[lo].Step {
			hi++
		}
		st := StepStat{Step: tl.Samples[lo].Step}
		loads = loads[:0]
		for _, s := range tl.Samples[lo:hi] {
			var rankTotal time.Duration
			for _, p := range trace.Phases() {
				st.Phases[p] += s.Phases[p]
				rankTotal += s.Phases[p]
			}
			if rankTotal > st.Wall {
				st.Wall = rankTotal
			}
			loads = append(loads, float64(s.Counters[Particles]))
			for c := range NumCounters {
				st.Counters[c] += s.Counters[c]
			}
			if st.Decision == "" {
				st.Decision = s.Decision
			}
		}
		st.Load = stats.Summarize(loads)
		out = append(out, st)
		lo = hi
	}
	return out
}

// PhaseTotals sums each phase over every sample in the timeline.
func (tl *Timeline) PhaseTotals() trace.PhaseDurations {
	var tot trace.PhaseDurations
	for i := range tl.Samples {
		for _, p := range trace.Phases() {
			tot[p] += tl.Samples[i].Phases[p]
		}
	}
	return tot
}

// WorstSteps returns the n steps with the largest Wall time, slowest first
// (ties broken by step order). The input is not modified.
func WorstSteps(ss []StepStat, n int) []StepStat {
	ranked := append([]StepStat(nil), ss...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Wall > ranked[j].Wall })
	if n < len(ranked) {
		ranked = ranked[:n]
	}
	return ranked
}
