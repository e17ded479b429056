// Package balance defines the load-balancing policy layer shared by the
// parallel drivers and the performance model. A Balancer turns observed
// load state into a rebalancing Plan; the driver engine executes plans
// against real particles and mesh data, the model executes them against
// its analytic workload — but both run the *same* policy code, so the
// paper's guarantee that model and drivers make identical decisions for
// identical load histories is structural, not by convention.
//
// Three adapters cover the paper's implementation matrix:
//
//   - NullBalancer: no balancing (the "mpi-2d" baseline).
//   - DiffusionBalancer: the application-specific diffusion scheme of
//     §IV-B, editing block-decomposition cut arrays (optionally two-phase).
//   - StrategyBalancer: an ampi.Strategy reassigning over-decomposed
//     virtual processors to cores — RefineLB for the paper's "ampi" driver
//     (§IV-C), WorkStealLB for demand-driven stealing (§VI future work).
package balance

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"

	"github.com/parres/picprk/internal/decomp"
)

// Needs declares which observations a policy consumes, so the substrate
// only pays for the reductions the policy actually uses.
type Needs struct {
	// Cells requests the globally-reduced per-cell-column histogram.
	Cells bool
	// Rows requests the globally-reduced per-cell-row histogram.
	Rows bool
	// Units requests per-VP loads plus the current VP-to-core owner table.
	Units bool
}

// Loads is one observation of the system's load state. Which fields are
// populated follows the policy's Needs; the decomposition fields (X, Y for
// block policies, Owner/Cores for unit policies) describe the assignment
// the plan will amend.
type Loads struct {
	// X, Y are the current cut arrays of a block decomposition.
	X, Y decomp.Bounds
	// Cells and Rows are global per-cell-column / per-cell-row histograms.
	Cells, Rows []int64
	// Units holds per-VP loads; Owner the current VP-to-core table.
	Units []float64
	Owner []int
	// Cores is the number of cores the plan may assign work to.
	Cores int
}

// Plan is a policy decision. Nil fields mean "leave unchanged"; a zero Plan
// is a no-op. Plans must be pure data — executing one is the substrate's
// job — and deterministic: every rank computes the identical plan from the
// identical Loads.
type Plan struct {
	// X, Y are replacement cut arrays for a block decomposition.
	X, Y *decomp.Bounds
	// Owner is a replacement VP-to-core table.
	Owner []int
}

// Empty reports whether the plan changes nothing.
func (p Plan) Empty() bool { return p.X == nil && p.Y == nil && p.Owner == nil }

// String renders the plan compactly. Owner tables can be large, so they are
// summarized by length and digest rather than printed in full.
func (p Plan) String() string {
	if p.Empty() {
		return "noop"
	}
	var parts []string
	if p.X != nil {
		parts = append(parts, fmt.Sprintf("x=%v", p.X.Cuts))
	}
	if p.Y != nil {
		parts = append(parts, fmt.Sprintf("y=%v", p.Y.Cuts))
	}
	if p.Owner != nil {
		parts = append(parts, "owner="+ownerDigest(p.Owner))
	}
	return strings.Join(parts, " ")
}

// ownerDigest fingerprints an owner table: length plus an FNV-1a hash.
// Decision-identity tests compare digests instead of full tables.
func ownerDigest(owner []int) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range owner {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(c)))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%d@%016x", len(owner), h.Sum64())
}

// Balancer is a load-balancing policy. The driver engine (and the model's
// simulation loop) call it in a fixed cadence: every Interval() steps,
// Observe the loads the policy Needs, ask for a Plan, and — if the plan is
// non-empty and was executed — Apply it so the policy can update its
// history. Implementations are used by one rank loop at a time and need not
// be safe for concurrent use; each rank constructs its own instance.
type Balancer interface {
	// Interval is the number of steps between balancing actions; 0 disables
	// balancing entirely.
	Interval() int
	// Needs declares which Loads fields Observe expects populated.
	Needs() Needs
	// Observe records one load measurement.
	Observe(Loads)
	// Plan computes the rebalancing decision for the given step from the
	// most recent observation. It must be deterministic.
	Plan(step int) Plan
	// Apply informs the policy that the returned plan was executed.
	Apply(Plan)
	// History returns one line per executed (non-empty) plan, in order.
	// Identical load histories must yield identical histories — the
	// model-vs-driver decision-identity tests compare these verbatim.
	History() []string
}

// HistoryRestorer is the optional checkpoint hook: a Balancer that records
// history implements it so the driver's epoch supervisor can roll the
// decision log back to (or forward onto) a committed checkpoint. All other
// per-step balancer state is recomputed from fresh Observe/Plan calls each
// cadence, so the history is the only state a restore must carry for the
// BalanceLog of a recovered run to match an uninterrupted one verbatim.
type HistoryRestorer interface {
	// RestoreHistory replaces the decision history with h (taking ownership
	// of the slice).
	RestoreHistory(h []string)
}

// NullBalancer is the baseline policy: never balance.
type NullBalancer struct{}

// Interval implements Balancer: 0 disables balancing.
func (NullBalancer) Interval() int { return 0 }

// Needs implements Balancer.
func (NullBalancer) Needs() Needs { return Needs{} }

// Observe implements Balancer.
func (NullBalancer) Observe(Loads) {}

// Plan implements Balancer.
func (NullBalancer) Plan(int) Plan { return Plan{} }

// Apply implements Balancer.
func (NullBalancer) Apply(Plan) {}

// History implements Balancer.
func (NullBalancer) History() []string { return nil }
