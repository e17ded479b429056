package balance

import (
	"fmt"

	"github.com/parres/picprk/internal/ampi"
)

// StrategyBalancer adapts an ampi.Strategy — a pure function from measured
// per-VP loads to a new owner table — to the Balancer interface. It is the
// policy of both VP drivers: the paper's "ampi" (§IV-C, RefineLB by
// default) and demand-driven work stealing (§VI future work, WorkStealLB).
type StrategyBalancer struct {
	strategy ampi.Strategy
	every    int

	loads     Loads
	lastStep  int
	lastMoves int
	history   []string
}

// NewStrategyBalancer builds the policy: every steps, s reassigns VPs to
// cores from the globally-reduced per-VP loads. s must be non-nil.
func NewStrategyBalancer(s ampi.Strategy, every int) *StrategyBalancer {
	return &StrategyBalancer{strategy: s, every: every}
}

// Interval implements Balancer.
func (b *StrategyBalancer) Interval() int { return b.every }

// Needs implements Balancer.
func (b *StrategyBalancer) Needs() Needs { return Needs{Units: true} }

// Observe implements Balancer.
func (b *StrategyBalancer) Observe(l Loads) { b.loads = l }

// Plan implements Balancer: run the strategy and return its owner table,
// or an empty plan when nothing would move.
func (b *StrategyBalancer) Plan(step int) Plan {
	b.lastStep = step
	newOwner := b.strategy.Plan(b.loads.Units, b.loads.Owner, b.loads.Cores)
	if len(newOwner) == len(b.loads.Owner) {
		b.lastMoves = ampi.Moves(b.loads.Owner, newOwner)
		if b.lastMoves == 0 {
			return Plan{}
		}
	}
	return Plan{Owner: newOwner}
}

// Apply implements Balancer.
func (b *StrategyBalancer) Apply(p Plan) {
	if p.Empty() {
		return
	}
	b.history = append(b.history, fmt.Sprintf("step=%d moves=%d %s", b.lastStep, b.lastMoves, p))
}

// History implements Balancer.
func (b *StrategyBalancer) History() []string { return b.history }

// RestoreHistory implements HistoryRestorer.
func (b *StrategyBalancer) RestoreHistory(h []string) { b.history = h }
