package driver

// The multi-process supervisor: RunElastic is the only coordinator of a
// world whose ranks live in separate processes (or nodes), and
// RunElasticWorker the only worker. Each world generation is a rendezvous
// bootstrap followed by one run of the rank lifecycle (epoch.go). Without
// Config.Recover the recovery budget is 0 and a run is one generation: a
// lost peer fails it with comm.ErrPeerLost. With Recover, a comm.ErrPeerLost
// unwind becomes a rollback/readmit cycle instead of a dead run: the
// rendezvous restarts on the same pinned address, survivors rejoin, a
// replacement worker is admitted into the vacated rank slot, and the new
// world's restore resumes every rank from the last committed epoch. Workers
// are stateless across generations (shards are scattered by the new rank
// assignment), so survivors and replacements run the identical code path.

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/comm/wire"
	"github.com/parres/picprk/internal/telemetry"
)

// commitStore holds the last committed epoch across world generations. It
// lives on the coordinator (rank 0's process); only rank 0 touches it
// mid-run, but RunElastic reads it between generations, so it locks.
type commitStore struct {
	mu sync.Mutex
	// gen is the current world generation (0 = initial).
	gen int
	// step is the last committed step and shards its per-rank state; a nil
	// shards means nothing committed yet (a rollback restarts from scratch).
	step   int
	shards []rankShard
	// samples holds, per rank, the per-step samples every commit so far
	// carried: with the final reports' samples, the whole run's timeline,
	// whichever generation recorded each step.
	samples [][]telemetry.Sample
	// events is the run's epoch lifecycle record, in occurrence order.
	events []telemetry.Event

	commits, rollbacks, readmits int
}

// commit transactionally replaces the committed epoch and moves the samples
// its shards carried into the store, so a resume scatters none back. The
// caller (rank 0's commit phase) only reaches it after the gather completed,
// so the store never holds a partial epoch.
func (s *commitStore) commit(step int, shards []rankShard, wallNS int64) telemetry.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) < len(shards) {
		s.samples = append(s.samples, make([][]telemetry.Sample, len(shards)-len(s.samples))...)
	}
	for i := range shards {
		s.samples[i] = append(s.samples[i], shards[i].Samples...)
		shards[i].Samples = nil
	}
	s.step = step
	s.shards = shards
	s.commits++
	ev := telemetry.Event{Kind: telemetry.EventCommit, Step: step, Gen: s.gen, Rank: -1, WallNS: wallNS}
	s.events = append(s.events, ev)
	return ev
}

// resume returns the shards the generation-start scatter sends to p ranks:
// the committed epoch's, each checked to be of the epoch's step and to carry
// a checkpoint, or p empty shards when nothing is committed.
func (s *commitStore) resume(p int) ([]rankShard, error) {
	if s == nil {
		return make([]rankShard, p), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shards == nil {
		return make([]rankShard, p), nil
	}
	if len(s.shards) != p {
		return nil, fmt.Errorf("driver: committed epoch has %d shards for %d ranks", len(s.shards), p)
	}
	for i, sh := range s.shards {
		if sh.Step != s.step || len(sh.Sub) == 0 {
			return nil, fmt.Errorf("driver: committed shard %d is of step %d with a %d-byte checkpoint, epoch is step %d",
				i, sh.Step, len(sh.Sub), s.step)
		}
	}
	return s.shards, nil
}

// noteRollback records a lost world: survivors will roll back to the last
// committed step (0 = restart from scratch), and the next generation
// begins.
func (s *commitStore) noteRollback(wallNS int64) telemetry.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rollbacks++
	step := 0
	if s.shards != nil {
		step = s.step
	}
	ev := telemetry.Event{Kind: telemetry.EventRollback, Step: step, Gen: s.gen, Rank: -1, WallNS: wallNS}
	s.events = append(s.events, ev)
	s.gen++
	return ev
}

// noteReadmit records a replacement worker admitted into the vacated rank
// slot of the new generation.
func (s *commitStore) noteReadmit(rank int, wallNS int64) telemetry.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readmits++
	ev := telemetry.Event{Kind: telemetry.EventReadmit, Gen: s.gen, Rank: rank, WallNS: wallNS}
	s.events = append(s.events, ev)
	return ev
}

// summary returns the run's recovery counters, a copy of its event record
// and of the per-rank sample lists the commits carried.
func (s *commitStore) summary() (RecoveryStats, []telemetry.Event, [][]telemetry.Sample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stats := RecoveryStats{
		Generations: s.gen + 1,
		Commits:     s.commits,
		Rollbacks:   s.rollbacks,
		Readmits:    s.readmits,
	}
	return stats, append([]telemetry.Event(nil), s.events...), append([][]telemetry.Sample(nil), s.samples...)
}

// hostedNodes is the set of wire nodes this process hosts in the running
// world generation: the coordinator's node 0 and, under Engine.Run, the
// in-process workers' nodes. Live reads it at scrape time; the supervisor
// merges it into the generation's Result.Wire once every node's world has
// returned. A nil set (a worker's engine) hosts nothing.
type hostedNodes struct {
	mu      sync.Mutex
	nodes   []*wire.Node
	running sync.WaitGroup // the nodes whose world has not returned
}

// host adds a node that joined the running generation and returns the
// function its caller calls once the node's world has returned.
func (h *hostedNodes) host(n *wire.Node) (done func()) {
	if h == nil {
		return func() {}
	}
	h.mu.Lock()
	h.nodes = append(h.nodes, n)
	h.mu.Unlock()
	h.running.Add(1)
	return h.running.Done
}

// report merges the wire reports of the generation's nodes.
func (h *hostedNodes) report() telemetry.WireReport {
	h.mu.Lock()
	defer h.mu.Unlock()
	var rep telemetry.WireReport
	for _, n := range h.nodes {
		rep.Merge(n.WireReport())
	}
	return rep
}

// DefaultMaxRecoveries bounds the rollback/readmit cycles of a run with
// Config.Recover set; a run without it has a budget of 0.
const DefaultMaxRecoveries = 3

// ElasticOptions configures a multi-process (or multi-node) run.
type ElasticOptions struct {
	// Network is the wire transport: "tcp" or "unix".
	Network string
	// Listen is the rendezvous listen address ("" = an ephemeral loopback
	// address). The address resolved in generation 0 is pinned for every
	// later generation, so survivors and replacements rejoin the same
	// place.
	Listen string
	// Ranks is the world size. The coordinator hosts rank 0; SpawnWorkers
	// must supply the other Ranks-1 joiners.
	Ranks int
	// SpawnWorkers launches workers for one generation, pointing them at
	// the rendezvous address. Generation 0 must launch Ranks-1 workers; for
	// later generations the callback launches only replacements for dead
	// ones (survivors rejoin by themselves — RunElasticWorker loops). It
	// owns all process/goroutine bookkeeping. Nil when every worker joins
	// externally.
	SpawnWorkers func(gen int, addr string) error
	// Bind overrides the coordinator node's mesh listener address (see
	// wire.JoinOptions.Bind).
	Bind string
}

// RunElastic executes the engine as the coordinator of a multi-process (or
// multi-node) run, hosting rank 0. With Config.Recover each lost peer
// starts a new generation that resumes from the last committed epoch, up
// to DefaultMaxRecoveries times, so the final result is bitwise identical
// to an uninterrupted run; without it a lost peer fails the run with the
// loss error after the one generation. The result's Wire is the merged
// report of the nodes this process hosted in the generation that finished
// the run, and Cfg.Live reads the running generation's nodes.
func (e *Engine) RunElastic(o ElasticOptions) (*Result, error) {
	if err := e.start(o.Ranks); err != nil {
		return nil, err
	}
	if !wire.ValidNetwork(o.Network) {
		return nil, fmt.Errorf("driver: RunElastic requires a wire transport, got %q", o.Network)
	}
	e.hosted = &hostedNodes{}
	e.Cfg.Live.SetWireSource(e.hosted.report)
	budget := 0
	if e.Cfg.Recover {
		budget = DefaultMaxRecoveries
	}
	addr := o.Listen
	if addr == "" {
		addr = wire.DefaultAddr(o.Network)
	}
	recoveries, lostRank := 0, -1
	for gen := 0; ; gen++ {
		res, runAddr, err := e.runGeneration(o, gen, addr, lostRank)
		if runAddr != "" {
			addr = runAddr // pin the resolved address for rejoins
		}
		if err == nil {
			return res, nil
		}
		var pl comm.ErrPeerLost
		if !errors.As(err, &pl) || recoveries >= budget {
			return nil, err
		}
		recoveries++
		lostRank = pl.Rank
		ev := e.store.noteRollback(time.Now().UnixNano())
		e.Cfg.Live.ObserveEvent(ev)
	}
}

// runGeneration runs one world generation: rendezvous, spawn callback,
// join, run. It returns the resolved rendezvous address so the caller can
// pin it across generations even when this generation failed.
func (e *Engine) runGeneration(o ElasticOptions, gen int, addr string, lostRank int) (*Result, string, error) {
	e.hosted.mu.Lock()
	e.hosted.nodes = nil
	e.hosted.mu.Unlock()
	rv, err := wire.StartRendezvous(o.Network, addr, o.Ranks)
	if err != nil {
		return nil, "", err
	}
	addr = rv.Addr()
	if o.SpawnWorkers != nil {
		if err := o.SpawnWorkers(gen, addr); err != nil {
			rv.Close()
			return nil, addr, err
		}
	}
	node, err := wire.Join(o.Network, addr, wire.JoinOptions{Rank: 0, Bind: o.Bind})
	if err != nil {
		rv.Close()
		return nil, addr, err
	}
	if err := rv.Wait(); err != nil {
		return nil, addr, err
	}
	if gen > 0 {
		// The world re-formed: the replacement took the vacated slot.
		ev := e.store.noteReadmit(lostRank, time.Now().UnixNano())
		e.Cfg.Live.ObserveEvent(ev)
	}
	done := e.hosted.host(node)
	res, runErr := e.runWorld(comm.NewTransportWorld(node, e.Cfg.WorldOptions()))
	done()
	if runErr != nil {
		return nil, addr, runErr
	}
	e.hosted.running.Wait()
	rep := e.hosted.report()
	res.Wire = &rep
	return res, addr, nil
}

// RunElasticWorker executes the worker side of a multi-process run: join
// the coordinator's rendezvous (with retry — the coordinator may not be
// listening yet, and between generations there is a window with no
// listener), run the assigned rank, and — when the world dies under it
// with a lost peer and recovery is armed — rejoin the next generation.
// Returns nil when a generation runs to completion.
func (e *Engine) RunElasticWorker(network, addr string) error {
	for {
		node, err := joinWithRetry(network, addr, wire.JoinOptions{Rank: -1})
		if err != nil {
			return err
		}
		done := e.hosted.host(node)
		_, err = e.runWorld(comm.NewTransportWorld(node, e.Cfg.WorldOptions()))
		done()
		var pl comm.ErrPeerLost
		if err == nil || !e.Cfg.Recover || !errors.As(err, &pl) {
			return err
		}
	}
}

// runSockets runs a p-rank socket world inside this process: the RunElastic
// supervisor hosts rank 0, and p-1 goroutines run RunElasticWorker's loop
// on this engine, started once the generation-0 rendezvous listens. A lost
// node cannot be replaced in process, so a later generation fails the run;
// so does any worker's error. It returns after every worker has returned.
func (e *Engine) runSockets(network string, p int) (*Result, error) {
	var wg sync.WaitGroup
	errs := make([]error, max(p-1, 0))
	spawn := func(gen int, addr string) error {
		if gen > 0 {
			return fmt.Errorf("driver: the in-process %s world lost a node", network)
		}
		wg.Add(len(errs))
		for i := range errs {
			go func() {
				defer wg.Done()
				errs[i] = e.RunElasticWorker(network, addr)
			}()
		}
		return nil
	}
	res, err := e.RunElastic(ElasticOptions{Network: network, Ranks: p, SpawnWorkers: spawn})
	wg.Wait()
	if err := cmp.Or(err, errors.Join(errs...)); err != nil {
		return nil, err
	}
	return res, nil
}

// joinRetryBudget bounds how long a worker keeps retrying the rendezvous
// before giving up.
const joinRetryBudget = 30 * time.Second

// joinWithRetry dials the rendezvous with capped exponential backoff. A
// Join error usually just means the coordinator has not (re)started the
// listener yet.
func joinWithRetry(network, addr string, o wire.JoinOptions) (*wire.Node, error) {
	deadline := time.Now().Add(joinRetryBudget)
	delay := 50 * time.Millisecond
	for {
		node, err := wire.Join(network, addr, o)
		if err == nil {
			return node, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("driver: rendezvous rejoin budget exhausted: %w", err)
		}
		time.Sleep(delay)
		if delay *= 2; delay > time.Second {
			delay = time.Second
		}
	}
}
