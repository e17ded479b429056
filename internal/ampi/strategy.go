// Package ampi holds the placement policies of the Adaptive MPI execution
// model of paper §IV-C: the application is over-decomposed into virtual
// processors (VPs), several of which are hosted by each core (rank), and a
// pluggable load-balancing strategy periodically reassigns VPs to cores from
// their measured loads, as the Charm++ scheduler underneath AMPI does. The
// package is pure policy: the strategies, the compact initial placement
// (BlockPlacement) and the measures of an assignment (MaxCoreLoad, Moves,
// Fragmentation, GridNeighbors). Hosting VPs and PUP-migrating them between
// cores is the driver's VP substrate.
package ampi

import (
	"container/heap"
	"math"
	"sort"
)

// Strategy computes a new VP-to-core assignment from measured loads.
// Implementations must be deterministic pure functions: every core runs the
// same Plan on the same globally-reduced inputs and must reach the same
// assignment without further coordination.
type Strategy interface {
	// Plan returns the new owner core of every VP. loads[vp] is the
	// measured load of VP vp; owner[vp] its current core; ncores the number
	// of cores. The returned slice is freshly allocated.
	Plan(loads []float64, owner []int, ncores int) []int
}

// NullLB never migrates anything (the no-load-balancing reference point).
type NullLB struct{}

// Plan implements Strategy.
func (NullLB) Plan(loads []float64, owner []int, ncores int) []int {
	return append([]int(nil), owner...)
}

// RotateLB shifts every VP to the next core; useless for balancing but
// maximally stressful for the migration machinery, so tests use it.
type RotateLB struct{}

// Plan implements Strategy.
func (RotateLB) Plan(loads []float64, owner []int, ncores int) []int {
	out := make([]int, len(owner))
	for vp, c := range owner {
		out[vp] = (c + 1) % ncores
	}
	return out
}

// GreedyLB is Charm++'s classic greedy strategy: ignore current placement,
// sort VPs by decreasing load and assign each to the currently least-loaded
// core. It produces excellent balance but pays no attention to locality or
// migration volume — the behaviour the paper's strong-scaling discussion
// blames for fragmenting subdomains (§V-B).
type GreedyLB struct{}

// Plan implements Strategy.
func (GreedyLB) Plan(loads []float64, owner []int, ncores int) []int {
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if loads[order[a]] != loads[order[b]] {
			return loads[order[a]] > loads[order[b]]
		}
		return order[a] < order[b]
	})
	h := make(coreHeap, ncores)
	for c := 0; c < ncores; c++ {
		h[c] = coreLoad{core: c}
	}
	heap.Init(&h)
	out := make([]int, len(loads))
	for _, vp := range order {
		least := h[0]
		out[vp] = least.core
		least.load += loads[vp]
		h[0] = least
		heap.Fix(&h, 0)
	}
	return out
}

// RefineLB is the strategy the paper's experiments use: "the AMPI load
// balancer that migrates VPs from the most loaded to the least loaded core"
// (§V). It keeps the current placement and iteratively moves one VP at a
// time from the heaviest core to the lightest, choosing the VP that most
// narrows the gap, until no move improves the maximum load (or MaxMoves is
// reached). Migration volume stays proportional to the imbalance.
type RefineLB struct {
	// MaxMoves caps the number of migrations per invocation; 0 means
	// 4·len(VPs).
	MaxMoves int
}

// Plan implements Strategy.
func (r RefineLB) Plan(loads []float64, owner []int, ncores int) []int {
	out := append([]int(nil), owner...)
	if ncores < 2 {
		return out
	}
	coreLoads := make([]float64, ncores)
	byCore := make([][]int, ncores)
	for vp, c := range out {
		coreLoads[c] += loads[vp]
		byCore[c] = append(byCore[c], vp)
	}
	maxMoves := r.MaxMoves
	if maxMoves <= 0 {
		maxMoves = 4 * len(loads)
	}
	for move := 0; move < maxMoves; move++ {
		maxC, minC := 0, 0
		for c := 1; c < ncores; c++ {
			if coreLoads[c] > coreLoads[maxC] || (coreLoads[c] == coreLoads[maxC] && c < maxC) {
				maxC = c
			}
			if coreLoads[c] < coreLoads[minC] || (coreLoads[c] == coreLoads[minC] && c < minC) {
				minC = c
			}
		}
		gap := coreLoads[maxC] - coreLoads[minC]
		if gap <= 0 {
			break
		}
		// The best VP to move brings the pair as close as possible without
		// overshooting: load closest to gap/2 from below... moving load l
		// changes the pair's max to max(maxLoad-l, minLoad+l), which
		// improves iff 0 < l < gap. Choose l nearest to gap/2.
		best := -1
		var bestDist float64
		for _, vp := range byCore[maxC] {
			l := loads[vp]
			if l <= 0 || l >= gap {
				continue
			}
			d := math.Abs(l - gap/2)
			if best == -1 || d < bestDist || (d == bestDist && vp < best) {
				best = vp
				bestDist = d
			}
		}
		if best == -1 {
			break // no VP move can improve the heaviest core
		}
		out[best] = minC
		coreLoads[maxC] -= loads[best]
		coreLoads[minC] += loads[best]
		byCore[maxC] = removeInt(byCore[maxC], best)
		byCore[minC] = append(byCore[minC], best)
	}
	return out
}

func removeInt(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

type coreLoad struct {
	core int
	load float64
}

type coreHeap []coreLoad

func (h coreHeap) Len() int { return len(h) }
func (h coreHeap) Less(a, b int) bool {
	if h[a].load != h[b].load {
		return h[a].load < h[b].load
	}
	return h[a].core < h[b].core
}
func (h coreHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *coreHeap) Push(x any)   { *h = append(*h, x.(coreLoad)) }
func (h *coreHeap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// MaxCoreLoad returns the highest per-core total under an assignment; used
// by tests and by the tuning harness to compare strategies.
func MaxCoreLoad(loads []float64, owner []int, ncores int) float64 {
	cl := make([]float64, ncores)
	for vp, c := range owner {
		cl[c] += loads[vp]
	}
	var m float64
	for _, l := range cl {
		if l > m {
			m = l
		}
	}
	return m
}

// Moves counts how many VPs change cores between two assignments.
func Moves(oldOwner, newOwner []int) int {
	n := 0
	for i := range oldOwner {
		if oldOwner[i] != newOwner[i] {
			n++
		}
	}
	return n
}
