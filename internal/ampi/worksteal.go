package ampi

import "sort"

// WorkStealLB approximates the demand-driven balancing of task-based
// runtimes (the paper's future work lists Charm++, HPX, Legion and Grappa
// as targets for a comparative study): instead of a global reassignment,
// only *underloaded* cores act — each requests one VP from the currently
// heaviest core. Migration volume is therefore bounded by the number of
// hungry cores per invocation, trading convergence speed for minimal
// disruption.
type WorkStealLB struct {
	// Threshold is the hunger trigger: a core steals when its load is
	// below (1−Threshold) of the heaviest core's (default 0.25) — in a BSP
	// step, every core finishing that much earlier than the straggler is
	// effectively idle.
	Threshold float64
}

// Plan implements Strategy.
func (w WorkStealLB) Plan(loads []float64, owner []int, ncores int) []int {
	out := append([]int(nil), owner...)
	if ncores < 2 {
		return out
	}
	th := w.Threshold
	if th <= 0 {
		th = 0.25
	}
	coreLoads := make([]float64, ncores)
	byCore := make([][]int, ncores)
	var total float64
	for vp, c := range out {
		coreLoads[c] += loads[vp]
		byCore[c] = append(byCore[c], vp)
		total += loads[vp]
	}
	mean := total / float64(ncores)
	var maxLoad float64
	for _, l := range coreLoads {
		if l > maxLoad {
			maxLoad = l
		}
	}

	// Hungry cores in ascending load order (the hungriest steals first).
	hungry := make([]int, 0, ncores)
	for c := 0; c < ncores; c++ {
		if coreLoads[c] < (1-th)*maxLoad {
			hungry = append(hungry, c)
		}
	}
	sort.SliceStable(hungry, func(a, b int) bool {
		if coreLoads[hungry[a]] != coreLoads[hungry[b]] {
			return coreLoads[hungry[a]] < coreLoads[hungry[b]]
		}
		return hungry[a] < hungry[b]
	})

	for _, thief := range hungry {
		// Victim: the heaviest core right now.
		victim := 0
		for c := 1; c < ncores; c++ {
			if coreLoads[c] > coreLoads[victim] || (coreLoads[c] == coreLoads[victim] && c < victim) {
				victim = c
			}
		}
		if victim == thief || coreLoads[victim] <= mean {
			continue
		}
		// Steal the largest VP that keeps the victim at or above the
		// thief's post-steal load (no role reversal).
		best := -1
		for _, vp := range byCore[victim] {
			l := loads[vp]
			if l <= 0 {
				continue
			}
			if coreLoads[victim]-l < coreLoads[thief]+l {
				continue
			}
			if best == -1 || l > loads[best] || (l == loads[best] && vp < best) {
				best = vp
			}
		}
		if best == -1 {
			continue
		}
		out[best] = thief
		coreLoads[victim] -= loads[best]
		coreLoads[thief] += loads[best]
		byCore[victim] = removeInt(byCore[victim], best)
		byCore[thief] = append(byCore[thief], best)
	}
	return out
}
