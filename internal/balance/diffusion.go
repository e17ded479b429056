package balance

import (
	"fmt"

	"github.com/parres/picprk/internal/diffusion"
)

// DiffusionBalancer is the paper's "mpi-2d-LB" policy (§IV-B): the
// x-direction cuts of a block decomposition diffuse toward the lighter
// neighbor whenever an adjacent pair's load difference exceeds the
// threshold, with overshoot protection; with Params.TwoPhase the y-cuts
// are balanced from row sums as well. The decision itself lives in
// internal/diffusion — this type adapts it to the Balancer interface so
// the driver engine and the performance model share it verbatim.
type DiffusionBalancer struct {
	Params diffusion.Params

	loads    Loads
	lastStep int
	history  []string
}

// Interval implements Balancer.
func (b *DiffusionBalancer) Interval() int { return b.Params.Every }

// Needs implements Balancer: the guarded decision wants per-cell-column
// loads, and the second phase per-cell-row loads.
func (b *DiffusionBalancer) Needs() Needs {
	return Needs{Cells: true, Rows: b.Params.TwoPhase}
}

// Observe implements Balancer.
func (b *DiffusionBalancer) Observe(l Loads) { b.loads = l }

// Plan implements Balancer. The y decision is taken from the same
// observation as the x decision: it depends only on the y-cuts and the
// global row histogram, neither of which an x-cut move changes, so one
// observation per epoch suffices for both phases.
func (b *DiffusionBalancer) Plan(step int) Plan {
	b.lastStep = step
	var plan Plan
	if newX, changed := diffusion.BalanceStepGuarded(b.loads.X, b.loads.Cells, b.Params); changed {
		plan.X = &newX
	}
	if b.Params.TwoPhase {
		if newY, changed := diffusion.BalanceStepGuarded(b.loads.Y, b.loads.Rows, b.Params); changed {
			plan.Y = &newY
		}
	}
	return plan
}

// Apply implements Balancer.
func (b *DiffusionBalancer) Apply(p Plan) {
	if p.Empty() {
		return
	}
	b.history = append(b.history, fmt.Sprintf("step=%d %s", b.lastStep, p))
}

// History implements Balancer.
func (b *DiffusionBalancer) History() []string { return b.history }

// RestoreHistory implements HistoryRestorer.
func (b *DiffusionBalancer) RestoreHistory(h []string) { b.history = h }
