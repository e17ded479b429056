package driver

// The epoch-based engine lifecycle. A run is a sequence of epochs —
// CheckpointEvery steps bracketed by distributed checkpoint barriers —
// driven by a per-rank state machine:
//
//	Init ─→ Restore ─→ Steps ─→ Commit ─→ Steps ─→ … ─→ Finalize ─→ Done
//	            ↑                  │
//	            └──(next world generation after a rank loss)──┘
//
// Init constructs the substrate and policy from the Config (replayable by
// construction, so every generation starts from the identical state).
// Restore is the generation-start handshake: rank 0 broadcasts whether a
// committed epoch exists, and if so scatters the per-rank shards so every
// rank — survivor or replacement alike — adopts the committed state. Steps
// runs the unchanged per-step pipeline to the next epoch boundary; the
// boundary steps serialize each rank's full substrate state and gather the
// shards to rank 0 (Commit). Rollback and Readmit are cross-generation
// transitions owned by the supervisor (RunElastic in recovery.go): a lost
// rank unwinds every survivor's world with comm.ErrPeerLost, the rendezvous
// re-admits a replacement into the vacated slot, and the next generation's
// Restore resumes from the last commit — bitwise identical to an
// uninterrupted run, because the restart replays initialization and the
// shards carry every piece of divergent state (particles, cuts or VP
// placement, event ID cursor, balancer history, counters).
//
// With CheckpointEvery == 0 the machine degenerates to Init → Steps →
// Finalize, the pre-epoch pipeline: no handshake, no commits, and the
// steady-state step stays allocation-free either way (checkpoint work is
// confined to boundary steps).

import (
	"fmt"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/telemetry"
	"github.com/parres/picprk/internal/trace"
)

// rankShard is one rank's slice of a committed epoch: everything beyond the
// replayable Config that the rank needs to resume from the boundary step.
// Sub is the substrate checkpoint (see checkpoint.go); the rest is the
// engine-level state threaded through the step loop.
type rankShard struct {
	// Rank is the owning rank; Step the committed (completed) step.
	Rank, Step int
	// NextID is the injection ID cursor after Step's events.
	NextID uint64
	// MaxParticles is the rank's particle high-water mark up to Step.
	MaxParticles int
	// Bal is the balancer's history up to Step (its only checkpoint state —
	// see balance.HistoryRestorer).
	Bal []string
	// Sub is the substrate's serialized dynamic state.
	Sub []byte
}

// resumeInfo is the generation-start handshake rank 0 broadcasts: whether a
// committed epoch exists to resume from, and which step it ended on.
type resumeInfo struct {
	Resume bool
	Step   int
}

// epochPhase enumerates the per-rank lifecycle states.
type epochPhase int

const (
	phaseInit epochPhase = iota
	phaseRestore
	phaseSteps
	phaseCommit
	phaseFinalize
	phaseDone
)

// epochRunner is one rank's pass through the lifecycle: the state the old
// monolithic step loop kept on its stack, now threaded across phases.
type epochRunner struct {
	e   *Engine
	c   *comm.Comm
	cfg Config

	sub Substrate
	bal balance.Balancer
	es  eventState
	rec *trace.Recorder

	// Telemetry: when sampling, each step snapshots the recorder delta plus
	// the counters into the per-rank ring and/or the live aggregate. Both
	// sinks are nil-safe, and when sampling is off the step path touches
	// none of this — the steady-state step stays allocation-free and the
	// run is bitwise identical to an unsampled one.
	ring           *telemetry.Ring
	sampling       bool
	prevMigrations int
	prevBytes      int64
	prevXBytes     int64
	prevMsgsSent   int64
	prevMsgsElided int64
	lastWall       int64

	interval int
	needs    balance.Needs

	// step is the next step to run (1-based).
	step int
	res  *Result
}

// runRank is the per-rank lifecycle shared by every driver.
func (e *Engine) runRank(c *comm.Comm) (*Result, error) {
	r := &epochRunner{e: e, c: c, cfg: e.Cfg}
	defer func() {
		if r.sub != nil {
			r.sub.Close()
		}
	}()
	for ph := phaseInit; ph != phaseDone; {
		var err error
		if ph, err = r.advance(ph); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// advance runs one phase and returns the successor.
func (r *epochRunner) advance(ph epochPhase) (epochPhase, error) {
	switch ph {
	case phaseInit:
		if err := r.init(); err != nil {
			return phaseDone, err
		}
		if r.cfg.CheckpointEvery > 0 {
			return phaseRestore, nil
		}
		return phaseSteps, nil
	case phaseRestore:
		if err := r.restore(); err != nil {
			return phaseDone, err
		}
		return phaseSteps, nil
	case phaseSteps:
		return r.runSteps()
	case phaseCommit:
		if err := r.commit(); err != nil {
			return phaseDone, err
		}
		if r.step > r.cfg.Steps {
			return phaseFinalize, nil
		}
		return phaseSteps, nil
	case phaseFinalize:
		if err := r.finalize(); err != nil {
			return phaseDone, err
		}
		return phaseDone, nil
	}
	return phaseDone, fmt.Errorf("driver: invalid epoch phase %d", ph)
}

// init constructs the rank's substrate, policy, and telemetry from the
// Config — deterministically, so every world generation initializes to the
// identical state before Restore diverges it.
func (r *epochRunner) init() error {
	sub, err := r.e.Substrate(r.c, r.cfg)
	if err != nil {
		return err
	}
	r.sub = sub
	r.bal = r.e.Balancer()
	r.es = newEventState(r.cfg)
	r.rec = &trace.Recorder{}
	r.rec.ObserveParticles(sub.Count())

	if r.cfg.Telemetry {
		capacity := r.cfg.TelemetryCap
		if capacity == 0 {
			capacity = r.cfg.Steps
		}
		r.ring = telemetry.NewRing(capacity)
	}
	r.sampling = r.ring != nil || r.cfg.Live != nil
	r.interval = r.bal.Interval()
	r.needs = r.bal.Needs()
	r.step = 1
	return nil
}

// restore is the generation-start handshake of a checkpointed run: rank 0
// consults the commit store and broadcasts whether there is a committed
// epoch to resume from; if so, it scatters the per-rank shards and every
// rank adopts its own. Survivors and replacements are indistinguishable
// here — both just initialized from scratch, and both adopt a shard.
func (r *epochRunner) restore() error {
	var info resumeInfo
	var shards []rankShard
	if r.c.Rank() == 0 && r.e.store != nil {
		info, shards = r.e.store.resume()
	}
	info = comm.Bcast(r.c, 0, info)
	if !info.Resume {
		return nil
	}
	if r.c.Rank() == 0 && len(shards) != r.c.Size() {
		return fmt.Errorf("driver: committed epoch has %d shards for %d ranks", len(shards), r.c.Size())
	}
	sh := comm.Scatter(r.c, 0, shards)
	if sh.Rank != r.c.Rank() || sh.Step != info.Step {
		return fmt.Errorf("driver: rank %d received shard for rank %d step %d (resuming step %d)",
			r.c.Rank(), sh.Rank, sh.Step, info.Step)
	}
	return r.adopt(sh)
}

// adopt installs a committed shard: substrate state, balancer history, the
// event ID cursor, the particle high-water mark, and the sampling deltas
// (so post-resume samples report per-step deltas against the restored
// cumulative counters, as an uninterrupted run would).
func (r *epochRunner) adopt(sh rankShard) error {
	if err := r.sub.Restore(sh.Sub); err != nil {
		return err
	}
	if hr, ok := r.bal.(balance.HistoryRestorer); ok {
		hr.RestoreHistory(append([]string(nil), sh.Bal...))
	}
	r.es.nextID = sh.NextID
	if sh.MaxParticles > r.rec.MaxParticles {
		r.rec.MaxParticles = sh.MaxParticles
	}
	r.prevMigrations, r.prevBytes = r.sub.MigrationStats()
	r.prevXBytes = r.sub.ExchangeBytes()
	r.prevMsgsSent, r.prevMsgsElided = r.c.ExchangeMsgStats()
	r.step = sh.Step + 1
	return nil
}

// runSteps runs the unchanged per-step pipeline to the next epoch boundary
// (step%CheckpointEvery == 0) or to the end of the run.
func (r *epochRunner) runSteps() (epochPhase, error) {
	every := r.cfg.CheckpointEvery
	for ; r.step <= r.cfg.Steps; r.step++ {
		if err := r.oneStep(r.step); err != nil {
			return phaseDone, err
		}
		if every > 0 && r.step%every == 0 {
			r.step++
			return phaseCommit, nil
		}
	}
	return phaseFinalize, nil
}

// commit is the epoch boundary: every rank serializes its substrate and the
// engine-level resume state into a rankShard, and the shards gather to rank
// 0, which records the commit transactionally — a rank lost mid-gather
// unwinds the world before the store updates, so the store never holds a
// partial epoch.
func (r *epochRunner) commit() error {
	stepDone := r.step - 1
	blob, err := r.sub.Checkpoint()
	if err != nil {
		return err
	}
	sh := rankShard{
		Rank:         r.c.Rank(),
		Step:         stepDone,
		NextID:       r.es.nextID,
		MaxParticles: r.rec.MaxParticles,
		Bal:          r.bal.History(),
		Sub:          blob,
	}
	shards := comm.Gather(r.c, 0, sh)
	if r.c.Rank() == 0 && r.e.store != nil {
		ev := r.e.store.commit(stepDone, shards, r.c.WallClockNS())
		r.cfg.Live.ObserveEvent(ev)
	}
	return nil
}

// oneStep is the per-step pipeline, verbatim from the pre-epoch engine:
// move+exchange, events, the balancing cadence, the ownership invariant,
// and sampling. It allocates nothing in the steady state.
func (r *epochRunner) oneStep(step int) error {
	if hook := r.e.StepHook; hook != nil {
		hook(r.c, step)
	}
	cfg, c, sub, bal, rec := r.cfg, r.c, r.sub, r.bal, r.rec
	if r.sampling {
		rec.StartStep()
		// Stamp the step start on the transport's offset-corrected wall
		// clock, clamped monotone per rank so the wall-clock Chrome trace
		// never renders a span that starts before its predecessor even if
		// a resync shifts the offset mid-run.
		if w := c.WallClockNS(); w > r.lastWall {
			r.lastWall = w
		} else {
			r.lastWall++
		}
	}
	decision := ""
	if err := sub.MoveExchange(rec); err != nil {
		return err
	}
	sub.ApplyEvents(&r.es, step)
	rec.ObserveParticles(sub.Count())

	if r.interval > 0 && step%r.interval == 0 {
		// Decision side: measure loads (collective) and compute the
		// plan; every rank reaches the identical plan from the
		// identical globally-reduced observation.
		var plan balance.Plan
		rec.Time(trace.Balance, func() {
			bal.Observe(sub.Measure(r.needs))
			plan = bal.Plan(step)
		})
		if !plan.Empty() {
			// Data side: execute the plan, then let the policy log it.
			var rehome bool
			var mErr error
			rec.Time(trace.Migrate, func() { rehome, mErr = sub.Execute(plan) })
			if mErr != nil {
				return mErr
			}
			bal.Apply(plan)
			if r.sampling {
				// Tag the step with the policy's own history line so the
				// timeline and -balancelog agree verbatim.
				if h := bal.History(); len(h) > 0 {
					decision = h[len(h)-1]
				}
			}
			if rehome {
				// Particles follow the new decomposition (accounted as
				// exchange, like any ownership change).
				if err := sub.Exchange(rec); err != nil {
					return err
				}
			}
		}
	}

	if err := sub.CheckOwnership(step); err != nil {
		return err
	}

	if r.sampling {
		migrations, bytes := sub.MigrationStats()
		xbytes := sub.ExchangeBytes()
		sent, elided := c.ExchangeMsgStats()
		s := telemetry.Sample{
			Step:            step,
			Rank:            c.Rank(),
			Phases:          rec.Snapshot(),
			Particles:       sub.Count(),
			Migrations:      migrations - r.prevMigrations,
			Bytes:           bytes - r.prevBytes,
			ExchangeBytes:   xbytes - r.prevXBytes,
			ExchangeOverlap: rec.SnapshotOverlap(),
			MsgsSent:        int(sent - r.prevMsgsSent),
			MsgsElided:      int(elided - r.prevMsgsElided),
			Decision:        decision,
			WallStartNS:     r.lastWall,
			ClockOffsetNS:   c.ClockOffsetNS(),
		}
		r.prevMigrations, r.prevBytes, r.prevXBytes = migrations, bytes, xbytes
		r.prevMsgsSent, r.prevMsgsElided = sent, elided
		r.ring.Append(s)
		cfg.Live.Observe(s)
	}
	return nil
}

// finalize gathers verification, telemetry, and stats to rank 0 and
// assembles the Result, attaching the epoch lifecycle record (events and
// recovery counters) when checkpointing was on.
func (r *epochRunner) finalize() error {
	merged, verified, err := gatherAndVerify(r.c, r.cfg, r.sub)
	if err != nil {
		return err
	}
	timeline := gatherTimeline(r.c, r.e.Name, r.cfg, r.ring)
	if r.ring != nil {
		// Collective on the same condition as gatherTimeline (every rank
		// builds a ring or none does, since Config is identical).
		rows := gatherPeerXchg(r.c, r.sub)
		if timeline != nil {
			timeline.PeerXchg = rows
		}
	}
	migrations, bytes := r.sub.MigrationStats()
	r.rec.Migrations = migrations
	res := collectResult(r.c, r.e.Name, r.cfg, r.rec, r.sub.Count(), bytes, r.sub.ExchangeBytes(), migrations)
	if res != nil {
		res.Verified = verified && (r.cfg.Verify || r.cfg.DistributedVerify)
		if r.cfg.Verify {
			res.Particles = merged
		}
		res.BalanceLog = r.bal.History()
		res.Timeline = timeline
		if st := r.e.store; st != nil {
			stats, events := st.summary()
			res.Recovery = &stats
			if res.Timeline != nil {
				res.Timeline.Events = events
			}
		}
	}
	r.res = res
	return nil
}
