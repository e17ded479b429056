package telemetry

import (
	"sort"
	"time"

	"github.com/parres/picprk/internal/stats"
)

// Analysis helpers shared by cmd/picstat and the tests: per-step aggregates
// over ranks and worst-step ranking.

// StepStat aggregates one step's samples across ranks.
type StepStat struct {
	Step int
	// Wall is the step's wall-clock estimate: the maximum over ranks of
	// the rank's summed span time. Steps are bulk-synchronous (the
	// exchange is collective), so the slowest rank sets the pace and the
	// difference to the other ranks is idle time — the cost of imbalance.
	Wall time.Duration
	// Load summarizes the per-rank particle counts; Load.Imbalance is the
	// paper's max-over-mean metric at this step.
	Load stats.Summary
	// Counters sums each row over ranks: CPU time per span (not wall time),
	// movement and traffic for the step, and for gauges the global level
	// (the particle population).
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
			st.Wall = max(st.Wall, time.Duration(spanSum(&s)))
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

// spanSum is the sample's time on its rank: the sum of its span rows, each
// clamped at zero.
func spanSum(s *Sample) (ns int64) {
	for c := range NumCounters {
		if c.Kind() == KindSpan {
			ns += max(s.Counters[c], 0)
		}
	}
	return ns
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
