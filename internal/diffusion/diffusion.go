// Package diffusion implements the application-specific, diffusion-based
// load-balancing strategy of paper §IV-B (after Cybenko and Boillat): each
// block periodically compares its workload with its neighbors' and, when the
// difference exceeds a threshold, sheds its border cell-columns to the
// lighter neighbor. The Cartesian-product decomposition is preserved, so the
// decision reduces to editing a 1D boundary array per direction.
//
// The decision is a pure function of the globally-reduced load vector:
// every rank computes the identical new boundary array without negotiation,
// and the performance-model layer reuses the very same function, so model
// and real drivers make identical decisions for identical load histories.
package diffusion

import (
	"fmt"

	"github.com/parres/picprk/internal/decomp"
)

// Params tunes the diffusion scheme. The paper calls out three interfering
// knobs that must be co-tuned: the frequency of balancing actions, the
// trigger threshold τ, and the width of the exchanged border region.
type Params struct {
	// Every is the number of time steps between balancing actions
	// (frequency knob). Drivers interpret it; BalanceStepGuarded does not.
	Every int
	// Threshold is τ expressed as a fraction of the mean block load:
	// a pair (i, i+1) triggers when |load[i]-load[i+1]| > Threshold·mean.
	Threshold float64
	// Width is the number of border cell-columns migrated per action.
	Width int
	// MinWidth is the minimum block width in cells; shifts that would
	// shrink a block below it are skipped.
	MinWidth int
	// TwoPhase enables the full two-phase scheme of §IV-B: after balancing
	// the x-direction cuts from column sums, balance the y-direction cuts
	// from row sums. The paper's experiments restrict balancing to the
	// x direction because the skewed workload drifts along x and is uniform
	// in y; TwoPhase pays an extra reduction per epoch and helps only when
	// the workload also varies in y.
	TwoPhase bool
}

// DefaultParams are reasonable defaults for the paper's skewed workload.
func DefaultParams() Params {
	return Params{Every: 100, Threshold: 0.1, Width: 1, MinWidth: 2}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Every <= 0 {
		return fmt.Errorf("diffusion: Every must be positive, got %d", p.Every)
	}
	if p.Threshold < 0 {
		return fmt.Errorf("diffusion: negative threshold %v", p.Threshold)
	}
	if p.Width <= 0 {
		return fmt.Errorf("diffusion: Width must be positive, got %d", p.Width)
	}
	if p.MinWidth < 1 {
		return fmt.Errorf("diffusion: MinWidth must be >= 1, got %d", p.MinWidth)
	}
	return nil
}

// BalanceStepGuarded computes one diffusion action: given the current 1D
// bounds and the load (particle count) of each cell-column, it returns the
// new bounds and whether any cut moved. For every adjacent pair of blocks
// whose load difference exceeds τ·mean (a trigger fixed Jacobi-style from the
// input loads), the cut between them shifts by Width cells toward the heavier
// block, which thereby cedes its border columns. Cuts are visited left to
// right, and a shift is skipped if it would shrink either affected block
// below MinWidth given the shifts already applied, or if it would raise the
// heavier load of the pair: near a steep gradient one cell-column can carry
// more particles than the whole imbalance, and a fixed-width scheme without
// this guard shuttles that column back and forth on every invocation. The
// guard is why the input is per cell-column, which the parallel driver
// obtains with one extra reduction over its column communicator — the cost
// the paper attributes to co-tuning the scheme. The computation is
// deterministic, so all ranks agree on the result without communication
// beyond the load reductions themselves.
//
// The domain is periodic, but like the paper's reference implementation the
// diffusion acts on the linear chain of blocks only (no wrap-around pair):
// particles stream across the seam, and the chain ends adapt via their inner
// neighbors.
func BalanceStepGuarded(b decomp.Bounds, cellLoads []int64, p Params) (decomp.Bounds, bool) {
	n := b.N()
	if n < 2 {
		return b, false
	}
	loads := BlockLoads(b, cellLoads)
	var total int64
	for _, l := range loads {
		total += l
	}
	mean := float64(total) / float64(n)
	trigger := p.Threshold * mean

	nb := b.Clone()
	changed := false
	for j := 1; j < n; j++ {
		left, right := loads[j-1], loads[j]
		diff := float64(left - right)
		var shift int
		switch {
		case diff > trigger:
			shift = -p.Width
		case -diff > trigger:
			shift = +p.Width
		default:
			continue
		}
		cut := nb.Cuts[j] + shift
		if cut-nb.Cuts[j-1] < p.MinWidth || nb.Cuts[j+1]-cut < p.MinWidth {
			continue
		}
		// Load carried by the columns that would change hands.
		var moved int64
		lo, hi := cut, nb.Cuts[j]
		if shift > 0 {
			lo, hi = nb.Cuts[j], cut
		}
		for c := lo; c < hi; c++ {
			moved += cellLoads[c]
		}
		var newLeft, newRight int64
		if shift < 0 {
			newLeft, newRight = left-moved, right+moved
		} else {
			newLeft, newRight = left+moved, right-moved
		}
		if max(newLeft, newRight) > max(left, right) {
			// Overshoot: the move would worsen the pair. Moves of equal max
			// are allowed — they occur when the border cells are empty, and
			// repeating them lets the cut slide across an empty region
			// toward the load instead of stalling at a plateau.
			continue
		}
		nb.Cuts[j] = cut
		// Gauss-Seidel update so the next pair's decision sees the move.
		loads[j-1], loads[j] = newLeft, newRight
		changed = true
	}
	return nb, changed
}

// BlockLoads aggregates per-cell-column loads into per-block loads under
// the given bounds.
func BlockLoads(b decomp.Bounds, cellLoads []int64) []int64 {
	out := make([]int64, b.N())
	for i := 0; i < b.N(); i++ {
		var s int64
		for c := b.Lo(i); c < b.Hi(i); c++ {
			s += cellLoads[c]
		}
		out[i] = s
	}
	return out
}
