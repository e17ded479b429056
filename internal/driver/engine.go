package driver

import (
	"time"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/comm/wire"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/trace"
)

// Substrate is what a driver variant contributes to the engine: the
// physical realization of particles and mesh data on one rank. The engine
// owns the step pipeline and the balancing cadence; the substrate owns how
// particles move, how leavers find their owner, and how a balance.Plan is
// executed against real data. Two substrates exist: the block substrate
// (static or diffusing 2D block decomposition) and the VP substrate
// (over-decomposed virtual processors with PUP migration). They share one
// step (step.go) and differ in which cells a rank hosts and how a plan
// moves them.
type Substrate interface {
	// MoveExchange advances every local particle one time step and delivers
	// the ones that crossed a boundary to their owners: one move pass, then
	// one exchange. It is collective, and accounts the pass as
	// telemetry.Compute and the exchange as telemetry.Exchange on rec.
	MoveExchange(rec *trace.Recorder) error
	// Exchange rehomes particles without moving them: whatever a
	// classification sweep finds outside its owner's subdomain is delivered
	// to that owner. The engine calls it after an Execute that returned
	// rehome. It is collective and accounts its time as telemetry.Exchange
	// on rec; when every particle is already home it ships nothing.
	Exchange(rec *trace.Recorder) error
	// ApplyEvents fires the injection/removal events scheduled for step.
	ApplyEvents(ev *core.Events, step int)
	// Count returns the local particle count.
	Count() int
	// Measure collectively gathers the load observations a policy asked
	// for. All ranks must call it with the same Needs.
	Measure(n balance.Needs) balance.Loads
	// Execute applies a non-empty plan: migrating mesh data and/or VP
	// state. It returns rehome=true when particles must be re-exchanged
	// because their owning rank may have changed (block substrate; VP
	// migration moves particles with their VP, so it never rehomes).
	Execute(p balance.Plan) (rehome bool, err error)
	// CheckOwnership asserts every local particle is where the current
	// decomposition says it belongs — a cheap per-step invariant that
	// catches routing bugs long before verification would. Particles this
	// step's fused classify pass already found at home are not re-read; what
	// entered since (arrivals, injections) always is.
	CheckOwnership(step int) error
	// Local calls visit on each of the rank's particle containers in turn,
	// stopping at the first error: the read-only view of the rank's
	// particles, on their columns, that the end of a run verifies and, under
	// cfg.Verify, gathers.
	Local(visit func(*core.SoA) error) error
	// Particles returns the local particle set in AoS form, freshly
	// allocated. No run path calls it: it is the export bench/ wraps.
	Particles() []particle.Particle
	// MigrationStats reports accumulated LB data movement: actions that
	// moved data to or from this rank, and payload bytes sent.
	MigrationStats() (migrations int, bytes int64)
	// PeerExchange reports the rank's exchange ledger over the run, the
	// same on every transport: per destination rank the payload bytes sent
	// (framed columnar size) and payload messages, and the messages posted
	// and elided in all. The slices are the substrate's, read-only.
	PeerExchange() (bytes, msgs []int64, sent, elided int64)
	// Checkpoint serializes the rank's full dynamic state — everything not
	// derivable from the Config — through the PUP paths. Called only at
	// epoch boundaries, so the steady-state step stays allocation-free.
	Checkpoint() ([]byte, error)
	// Restore replaces the rank's dynamic state with a Checkpoint blob
	// taken on a substrate built from the identical Config (possibly in
	// another process — the blob is self-describing and validated). Derived
	// structures (owner tables, frontiers) are rebuilt.
	Restore(buf []byte) error
	// Close releases per-rank resources (the move worker pool). The engine
	// calls it exactly once when the rank's pipeline exits.
	Close()
}

// Engine runs the PIC PRK step pipeline — init, move, exchange, events,
// balance, verify — for any combination of substrate and balancing policy.
// All four drivers (baseline, diffusion, ampi, worksteal) are Engine
// constructors; no per-rank step loop exists outside it.
type Engine struct {
	// Name labels the Result ("baseline", "diffusion", ...).
	Name string
	// Cfg is the run configuration.
	Cfg Config
	// Substrate constructs one rank's substrate. It runs inside the SPMD
	// region; collective setup is allowed and must be performed by every
	// rank in the same order.
	Substrate func(c *comm.Comm, cfg Config) (Substrate, error)
	// Balancer constructs one rank's policy instance. Instances must not
	// be shared between ranks (they hold per-rank observation state).
	Balancer func() balance.Balancer

	// store holds the committed epoch shards across world generations when
	// checkpointing is on. start installs a fresh one before any rank runs
	// (only rank 0 touches it mid-run, but every rank reads the pointer);
	// RunElastic keeps it across generations so a new world can resume.
	store *commitStore
	// hosted is the set of wire nodes this process hosts in the running
	// world generation. RunElastic installs it before any worker starts.
	hosted *hostedNodes
	// StepHook, when set, runs at the top of every step on every rank —
	// fault-injection instrumentation: the chaos tests and picrun's
	// PICRUN_CHAOS_KILL hook kill a rank from it mid-run.
	StepHook func(c *comm.Comm, step int)
}

// Run executes the engine on p ranks and returns rank 0's result. The
// transport resolved from Cfg decides the world: in-process goroutine ranks
// by default, or for "tcp"/"unix" a socket world run by the RunElastic
// supervisor, with the other p-1 ranks joining as worker goroutines in this
// process — one wire node per rank, every payload through the full
// serialize/frame/deserialize path, bitwise identical to the in-process run.
func (e *Engine) Run(p int) (*Result, error) {
	if tr := e.Cfg.ResolveTransport(); wire.ValidNetwork(tr) {
		return e.runSockets(tr, p)
	}
	if err := e.start(p); err != nil {
		return nil, err
	}
	return e.runWorld(comm.NewWorld(p, e.Cfg.WorldOptions()))
}

// start validates the Config for p ranks and installs the run's commit
// store — the one place it is created, and only when checkpointing is on.
func (e *Engine) start(p int) error {
	if err := e.Cfg.validate(p); err != nil {
		return err
	}
	e.store = nil
	if e.Cfg.CheckpointEvery > 0 {
		e.store = &commitStore{}
	}
	return nil
}

// runWorld executes the engine's rank pipeline on an already-constructed
// world. It returns rank 0's result, or nil when this world does not host
// rank 0 (a worker's normal exit).
func (e *Engine) runWorld(w *comm.World) (*Result, error) {
	if err := e.Cfg.validate(w.Size()); err != nil {
		return nil, err
	}
	var res *Result
	var resErr error
	start := time.Now()
	err := w.Run(func(c *comm.Comm) error {
		r, err := e.runRank(c)
		if c.Rank() == 0 {
			res, resErr = r, err
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if resErr != nil {
		return nil, resErr
	}
	if res == nil {
		return nil, nil
	}
	res.Name = e.Name
	res.Elapsed = time.Since(start)
	return res, nil
}
