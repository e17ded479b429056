package driver

import (
	"sync"
	"time"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/comm/wire"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/telemetry"
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
	// the ones that crossed a boundary to their owners: frontier particles
	// move first and their leavers go on the wire, interior particles move
	// while the exchange is in flight. It is collective. Compute/Exchange
	// time splits are accounted on rec, plus the overlap credit
	// (rec.AddOverlap).
	MoveExchange(rec *trace.Recorder) error
	// Exchange rehomes particles without moving them: whatever a
	// classification sweep finds outside its owner's subdomain is delivered
	// to that owner. The engine calls it after an Execute that returned
	// rehome. It is collective and accounts its time as trace.Exchange on
	// rec; when every particle is already home it ships nothing.
	Exchange(rec *trace.Recorder) error
	// ApplyEvents fires the injection/removal events scheduled for step.
	ApplyEvents(es *eventState, step int)
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
	// VerifyLocal runs the per-rank half of distributed verification over
	// every local particle container, on the columns in place.
	VerifyLocal(v *core.ColumnVerifier) error
	// Particles returns the local particle set in AoS form, for the
	// gathered verification of cfg.Verify.
	Particles() []particle.Particle
	// MigrationStats reports accumulated LB data movement: actions that
	// moved data to or from this rank, and payload bytes sent.
	MigrationStats() (migrations int, bytes int64)
	// ExchangeBytes reports accumulated particle-exchange payload bytes sent
	// by this rank, in the framed columnar wire size.
	ExchangeBytes() int64
	// PeerExchange reports the accumulated per-destination exchange matrix:
	// framed payload bytes and payload messages sent to each peer rank. The
	// slices are the substrate's own storage — read-only, valid until Close.
	PeerExchange() (bytes, msgs []int64)
	// Checkpoint serializes the rank's full dynamic state — everything not
	// derivable from the Config — through the PUP paths. Called only at
	// epoch boundaries, so the steady-state step stays allocation-free.
	Checkpoint() ([]byte, error)
	// Restore replaces the rank's dynamic state with a Checkpoint blob
	// taken on a substrate built from the identical Config (possibly in
	// another process — the blob is self-describing and validated). Derived
	// structures (owner tables, frontier masks) are rebuilt.
	Restore(buf []byte) error
	// Close releases per-rank resources (the move worker pool). The engine
	// calls it exactly once when the rank's pipeline exits.
	Close()
}

// Engine runs the PIC PRK step pipeline — init, move, exchange, events,
// balance, verify — for any combination of substrate and balancing policy.
// All four drivers (baseline, diffusion, ampi, worksteal) are thin
// wrappers over Engine.Run; no per-rank step loop exists outside it.
type Engine struct {
	// Name labels the Result ("baseline", "diffusion", ...).
	Name string
	// Cfg is the run configuration.
	Cfg Config
	// Substrate constructs one rank's substrate. It runs inside the SPMD
	// region; collective setup (communicator splits) is allowed and must
	// be performed by every rank in the same order.
	Substrate func(c *comm.Comm, cfg Config) (Substrate, error)
	// Balancer constructs one rank's policy instance. Instances must not
	// be shared between ranks (they hold per-rank observation state).
	Balancer func() balance.Balancer

	// store holds the committed epoch shards across world generations when
	// checkpointing is on. Run installs a fresh one per invocation (before
	// dispatching rank goroutines — only rank 0 touches it mid-run, but
	// every rank reads the pointer); RunElastic pre-installs one and
	// preserves it across generations so a new world can resume.
	store *commitStore
	// StepHook, when set, runs at the top of every step on every rank —
	// fault-injection instrumentation: the chaos tests and picrun's
	// PICRUN_CHAOS_KILL hook kill a rank from it mid-run.
	StepHook func(c *comm.Comm, step int)
}

// Run executes the engine on p ranks and returns rank 0's result. The
// transport resolved from Cfg decides the substrate: in-process goroutine
// ranks by default, or one wire node per rank over loopback sockets for
// "tcp"/"unix" — the latter exercises the full serialize/frame/deserialize
// path and must produce bitwise-identical results.
func (e *Engine) Run(p int) (*Result, error) {
	if err := e.Cfg.validate(p); err != nil {
		return nil, err
	}
	if e.Cfg.CheckpointEvery > 0 {
		// Fresh store per Run, installed before the rank goroutines fan out
		// (runWire's concurrent RunWorld calls must not race on it). Only
		// RunWorld preserves an existing store — that is how RunElastic
		// carries the resume state across world generations.
		e.store = newCommitStore()
	}
	switch tr := e.Cfg.ResolveTransport(); tr {
	case TransportInproc:
		return e.RunWorld(comm.NewWorld(p, e.Cfg.WorldOptions()))
	default:
		return e.runWire(tr, p)
	}
}

// RunWorld executes the engine's rank pipeline on an already-constructed
// world — the entry point for picrun worker processes, whose world wraps a
// wire node joined to a remote rendezvous. It returns rank 0's result, or
// nil when this world does not host rank 0 (a worker's normal exit).
func (e *Engine) RunWorld(w *comm.World) (*Result, error) {
	if err := e.Cfg.validate(w.Size()); err != nil {
		return nil, err
	}
	if e.Cfg.CheckpointEvery > 0 && e.store == nil {
		e.store = newCommitStore()
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

// runWire runs the engine over a loopback socket cluster: p wire nodes in
// this process, one rank each, every payload crossing a real socket.
func (e *Engine) runWire(network string, p int) (*Result, error) {
	nodes, err := wire.LoopbackCluster(network, p)
	if err != nil {
		return nil, err
	}
	if e.Cfg.Live != nil {
		for _, n := range nodes {
			e.Cfg.Live.AddWireSource(n.WireReport)
		}
	}
	results := make([]*Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for i, n := range nodes {
		go func(i int, n *wire.Node) {
			defer wg.Done()
			results[i], errs[i] = e.RunWorld(comm.NewTransportWorld(n, e.Cfg.WorldOptions()))
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if results[0] != nil {
		// Every node lives in this process, so rank 0's result can carry the
		// whole cluster's wire accounting (all peers, all offsets).
		rep := &telemetry.WireReport{}
		for _, n := range nodes {
			rep.Merge(n.WireReport())
		}
		results[0].Wire = rep
	}
	return results[0], nil
}

// rankTimeline carries one rank's telemetry to rank 0.
type rankTimeline struct {
	Samples []telemetry.Sample
	Dropped int
}

// gatherTimeline merges every rank's sample ring into one Timeline at rank
// 0. It is collective when ring sampling is enabled (every rank constructs
// a ring or none does, since Config is identical) and a no-op otherwise.
func gatherTimeline(c *comm.Comm, name string, cfg Config, ring *telemetry.Ring) *telemetry.Timeline {
	if ring == nil {
		return nil
	}
	all := comm.Gather(c, 0, rankTimeline{Samples: ring.Samples(), Dropped: ring.Dropped()})
	if c.Rank() != 0 {
		return nil
	}
	perRank := make([][]telemetry.Sample, len(all))
	dropped := 0
	for i, rt := range all {
		perRank[i] = rt.Samples
		dropped += rt.Dropped
	}
	tl := telemetry.New(name, c.Size(), cfg.Steps, perRank...)
	tl.Dropped = dropped
	return tl
}

// gatherPeerXchg collects every rank's per-peer exchange matrix row at rank
// 0. Collective; the rows are copied out of the substrate's live storage so
// the gathered Timeline owns its data.
func gatherPeerXchg(c *comm.Comm, sub Substrate) []telemetry.PeerXchg {
	bytes, msgs := sub.PeerExchange()
	row := telemetry.PeerXchg{
		Rank:  c.Rank(),
		Bytes: append([]int64(nil), bytes...),
		Msgs:  append([]int64(nil), msgs...),
	}
	rows := comm.Gather(c, 0, row)
	if c.Rank() != 0 {
		return nil
	}
	return rows
}
