package ampi

import "sort"

// TopologyAware is implemented by strategies that want the application's
// VP adjacency and the machine's node granularity before planning. The
// paper's §V-B closes by noting that a runtime balancer cannot preserve
// subdomain compactness "unless it is properly hinted" — this interface is
// that hint.
type TopologyAware interface {
	// WithTopology returns a copy of the strategy hinted with, for every
	// VP, the ids of its spatial neighbor VPs, and the number of cores per
	// node. The receiver is left unchanged, so one value can seed engines
	// of different shapes.
	WithTopology(neighbors [][]int, coresPerNode int) Strategy
}

// hintSlack is the relative load headroom within which HintedGreedyLB lets
// locality override pure load order.
const hintSlack = 0.05

// HintedGreedyLB is GreedyLB with a locality hint: among cores whose load
// is within hintSlack of the least-loaded candidate, it prefers the core on
// the node that already hosts the most spatial neighbors of the VP being
// placed. Balance quality stays greedy-class while subdomain fragmentation
// — and with it the inter-node boundary traffic the paper blames for the
// AMPI strong-scaling gap — is greatly reduced.
type HintedGreedyLB struct {
	neighbors    [][]int
	coresPerNode int
}

// WithTopology implements TopologyAware.
func (*HintedGreedyLB) WithTopology(neighbors [][]int, coresPerNode int) Strategy {
	return &HintedGreedyLB{neighbors: neighbors, coresPerNode: coresPerNode}
}

// Plan implements Strategy.
func (h *HintedGreedyLB) Plan(loads []float64, owner []int, ncores int) []int {
	cpn := h.coresPerNode
	if cpn <= 0 {
		cpn = 1
	}
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

	coreLoad := make([]float64, ncores)
	out := make([]int, len(loads))
	for i := range out {
		out[i] = -1
	}
	var total float64
	for _, l := range loads {
		total += l
	}

	for _, vp := range order {
		// The least-loaded core sets the baseline; any core within the
		// slack band is an acceptable candidate.
		min := coreLoad[0]
		for _, l := range coreLoad[1:] {
			if l < min {
				min = l
			}
		}
		band := min + hintSlack*total/float64(ncores)
		best := -1
		bestAffinity := -1
		for c := 0; c < ncores; c++ {
			if coreLoad[c] > band {
				continue
			}
			aff := h.affinity(vp, c, out, cpn, owner)
			// Prefer higher affinity; break ties by lower load, then core id.
			if best == -1 || aff > bestAffinity ||
				(aff == bestAffinity && coreLoad[c] < coreLoad[best]) ||
				(aff == bestAffinity && coreLoad[c] == coreLoad[best] && c < best) {
				best = c
				bestAffinity = aff
			}
		}
		out[vp] = best
		coreLoad[best] += loads[vp]
	}
	return out
}

// affinity counts how many of the VP's spatial neighbors are (or were) on
// the candidate core's node: already-placed neighbors count double (they
// are certain), previous-owner placements count once (likely to stay).
func (h *HintedGreedyLB) affinity(vp, core int, placed []int, cpn int, owner []int) int {
	if h.neighbors == nil || vp >= len(h.neighbors) {
		return 0
	}
	node := core / cpn
	aff := 0
	for _, nb := range h.neighbors[vp] {
		if p := placed[nb]; p >= 0 {
			if p/cpn == node {
				aff += 2
			}
		} else if owner[nb]/cpn == node {
			aff++
		}
	}
	return aff
}

// GridNeighbors builds the 4-neighbor adjacency of a vx×vy VP grid with
// periodic wrap, the topology hint for the PIC PRK's spatial decomposition.
func GridNeighbors(vx, vy int) [][]int {
	out := make([][]int, vx*vy)
	for j := 0; j < vy; j++ {
		for i := 0; i < vx; i++ {
			vp := j*vx + i
			out[vp] = []int{
				j*vx + (i+1)%vx,
				j*vx + (i-1+vx)%vx,
				((j+1)%vy)*vx + i,
				((j-1+vy)%vy)*vx + i,
			}
		}
	}
	return out
}

// Fragmentation measures the locality damage of an assignment: the fraction
// of VP neighbor pairs that live on different nodes. 0 means perfectly
// compact; a random assignment approaches 1 - 1/nodes.
func Fragmentation(neighbors [][]int, owner []int, coresPerNode, ncores int) float64 {
	if coresPerNode <= 0 {
		coresPerNode = 1
	}
	pairs, split := 0, 0
	for vp, nbs := range neighbors {
		for _, nb := range nbs {
			if nb <= vp {
				continue // count each undirected pair once
			}
			pairs++
			if owner[vp]/coresPerNode != owner[nb]/coresPerNode {
				split++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(split) / float64(pairs)
}
