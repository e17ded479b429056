package driver

// The per-rank lifecycle shared by every driver, as straight-line code:
//
//	init → restore (CheckpointEvery > 0) → for each step: oneStep, and
//	commit at every epoch boundary (step%CheckpointEvery == 0) → finalize
//
// init constructs the substrate and policy from the Config (replayable by
// construction, so every world generation starts from the identical
// state). restore is the generation-start scatter: rank 0 sends every rank
// its shard of the committed epoch — empty when there is none — so every
// rank, survivor or replacement alike, adopts the committed state and
// resumes at the step after it. commit serializes each rank's
// full substrate state and gathers the shards to rank 0. Nothing loops back
// within a rank: a lost rank unwinds every survivor's world with
// comm.ErrPeerLost, and the supervisor (RunElastic in recovery.go) starts
// the next world generation, whose ranks re-enter through a fresh runRank
// and restore from the last commit — bitwise identical to an uninterrupted
// run, because the restart replays initialization and the shards carry
// every piece of divergent state (particles, cuts or VP placement, event ID
// cursor, balancer history, counters).
//
// With CheckpointEvery == 0 there is no scatter and no commit, and the
// steady-state step stays allocation-free either way (checkpoint work is
// confined to boundary steps).

import (
	"fmt"
	"time"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
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
	// Samples are the rank's per-step samples since the previous commit,
	// under Telemetry. The commit store keeps them across generations, so a
	// recovered run's timeline holds every step, not only those after the
	// commit it resumed from.
	Samples []telemetry.Sample
}

// epochRunner is one rank's pass through the lifecycle: the state its
// stages share.
type epochRunner struct {
	e   *Engine
	c   *comm.Comm
	cfg Config

	sub Substrate
	bal balance.Balancer
	es  core.Events
	rec *trace.Recorder

	// Telemetry: when sampling, each step appends the difference between
	// two counter readings (spans included) to samples (under
	// cfg.Telemetry, pre-sized to the step count) and/or the live aggregate.
	// When sampling is off the step path touches none of this — the
	// steady-state step stays allocation-free and the run is bitwise
	// identical to an unsampled one. prev is the counter reading the last
	// sample was taken against; samples[:sent] have left with a commit.
	samples  []telemetry.Sample
	sent     int
	sampling bool
	prev     [telemetry.NumCounters]int64
	lastWall int64

	interval int
	needs    balance.Needs
}

// runRank is the per-rank lifecycle shared by every driver.
func (e *Engine) runRank(c *comm.Comm) (*Result, error) {
	r := &epochRunner{e: e, c: c, cfg: e.Cfg}
	defer func() {
		if r.sub != nil {
			r.sub.Close()
		}
	}()
	if err := r.init(); err != nil {
		return nil, err
	}
	first, every := 1, r.cfg.CheckpointEvery
	if every > 0 {
		var err error
		if first, err = r.restore(); err != nil {
			return nil, err
		}
	}
	for step := first; step <= r.cfg.Steps; step++ {
		if err := r.oneStep(step); err != nil {
			return nil, err
		}
		if every > 0 && step%every == 0 {
			if err := r.commit(step); err != nil {
				return nil, err
			}
		}
	}
	return r.finalize()
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
	r.es = core.NewEvents(r.cfg.distConfig(), r.cfg.Schedule)
	r.rec = &trace.Recorder{}
	r.rec.ObserveParticles(sub.Count())

	if r.cfg.Telemetry {
		r.samples = make([]telemetry.Sample, 0, r.cfg.Steps)
	}
	r.sampling = r.cfg.Telemetry || r.cfg.Live != nil
	r.interval = r.bal.Interval()
	r.needs = r.bal.Needs()
	return nil
}

// restore is the generation-start collective of a checkpointed run: rank 0
// scatters the committed epoch's shards, or an empty shard per rank when
// nothing is committed, and a rank whose shard carries a checkpoint adopts
// it. Survivors and replacements are indistinguishable here — both just
// initialized from scratch. It returns the first step to run.
func (r *epochRunner) restore() (int, error) {
	var shards []rankShard
	if r.c.Rank() == 0 {
		var err error
		if shards, err = r.e.store.resume(r.c.Size()); err != nil {
			return 0, err
		}
	}
	sh := comm.Scatter(r.c, 0, shards)
	if len(sh.Sub) == 0 {
		return 1, nil
	}
	if sh.Rank != r.c.Rank() {
		return 0, fmt.Errorf("driver: rank %d received the shard of rank %d", r.c.Rank(), sh.Rank)
	}
	return sh.Step + 1, r.adopt(sh)
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
	r.es.NextID = sh.NextID
	if sh.MaxParticles > r.rec.MaxParticles {
		r.rec.MaxParticles = sh.MaxParticles
	}
	r.prev = r.counters()
	return nil
}

// commit is the epoch boundary: every rank serializes its substrate and the
// engine-level resume state into a rankShard, and the shards gather to rank
// 0, which records the commit transactionally — a rank lost mid-gather
// unwinds the world before the store updates, so the store never holds a
// partial epoch.
func (r *epochRunner) commit(step int) error {
	blob, err := r.sub.Checkpoint()
	if err != nil {
		return err
	}
	sh := rankShard{
		Rank:         r.c.Rank(),
		Step:         step,
		NextID:       r.es.NextID,
		MaxParticles: r.rec.MaxParticles,
		Bal:          r.bal.History(),
		Sub:          blob,
		Samples:      r.samples[r.sent:],
	}
	// The samples sent are never written again: later ones append behind
	// them, into capacity init reserved for the whole run.
	r.sent = len(r.samples)
	shards := comm.Gather(r.c, 0, sh)
	if r.c.Rank() == 0 && r.e.store != nil {
		ev := r.e.store.commit(step, shards, r.c.WallClockNS())
		r.cfg.Live.ObserveEvent(ev)
	}
	return nil
}

// oneStep is the per-step pipeline: move+exchange, events, the balancing
// cadence, the ownership invariant, and sampling. It allocates nothing in
// the steady state.
func (r *epochRunner) oneStep(step int) error {
	if hook := r.e.StepHook; hook != nil {
		hook(r.c, step)
	}
	cfg, c, sub, bal, rec := r.cfg, r.c, r.sub, r.bal, r.rec
	if r.sampling {
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
		rec.Time(telemetry.Balance, func() {
			bal.Observe(sub.Measure(r.needs))
			plan = bal.Plan(step)
		})
		if !plan.Empty() {
			// Data side: execute the plan, then let the policy log it.
			var rehome bool
			var mErr error
			rec.Time(telemetry.Migrate, func() { rehome, mErr = sub.Execute(plan) })
			if mErr != nil {
				return mErr
			}
			bal.Apply(plan)
			if r.sampling {
				// Tag the step with the policy's own history line so the
				// timeline and Result.BalanceLog agree verbatim.
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
		s := telemetry.Sample{
			Step:          step,
			Rank:          c.Rank(),
			Decision:      decision,
			WallStartNS:   r.lastWall,
			ClockOffsetNS: c.ClockOffsetNS(),
		}
		cur := r.counters()
		for k := range telemetry.NumCounters {
			s.Counters[k] = cur[k]
			if k.Kind() != telemetry.KindGauge {
				s.Counters[k] -= r.prev[k]
			}
		}
		r.prev = cur
		if cfg.Telemetry {
			r.samples = append(r.samples, s)
		}
		cfg.Live.Observe(s)
	}
	return nil
}

// counters reads the rank's cumulative counters (a gauge's current level)
// in the telemetry table's order; a sample is the difference between two
// readings, and the run's statistics are the last. The recorder holds the
// timed rows, the substrate the rest (exchange_bytes sums its ledger's row).
func (r *epochRunner) counters() (v [telemetry.NumCounters]int64) {
	for c := range telemetry.NumCounters {
		v[c] = r.rec.Get(c).Nanoseconds()
	}
	migrations, bytes := r.sub.MigrationStats()
	v[telemetry.Particles] = int64(r.sub.Count())
	v[telemetry.Migrations] = int64(migrations)
	v[telemetry.MigratedBytes] = bytes
	peerBytes, _, sent, elided := r.sub.PeerExchange()
	for _, b := range peerBytes {
		v[telemetry.ExchangeBytes] += b
	}
	v[telemetry.MsgsSent], v[telemetry.MsgsElided] = sent, elided
	return v
}

// rankReport is everything one rank sends rank 0 when its run ends, in the
// run's one end-of-run gather. No slice aliases state the rank still
// writes.
type rankReport struct {
	// Counters is the rank's final counter reading; MaxParticles its
	// particle high-water mark.
	Counters     [telemetry.NumCounters]int64
	MaxParticles int
	// Count and IDSum are the verifier's tally of the rank's particles,
	// zero when the run does not verify.
	Count int
	IDSum uint64
	// Samples are the rank's per-step samples since its last commit, and
	// PeerBytes and PeerMsgs its row of the exchange matrix, when Telemetry
	// is on.
	Samples             []telemetry.Sample
	PeerBytes, PeerMsgs []int64
	// State is a copy of the rank's final particles, under Verify without
	// DistributedVerify; empty otherwise.
	State core.SoA
}

// finalize ends the run with one collective: every rank walks its particle
// containers once (when the run verifies), checking each on its columns and,
// under Verify, copying it into its report, and sends rank 0 one
// rankReport, from which rank 0 checks the global population and assembles
// the Result. Other ranks return nil.
func (r *epochRunner) finalize() (*Result, error) {
	cfg := r.cfg
	verify := cfg.Verify || cfg.DistributedVerify
	gather := cfg.Verify && !cfg.DistributedVerify
	rep := rankReport{Counters: r.counters(), MaxParticles: r.rec.MaxParticles}
	if verify {
		v := core.NewRunVerifier(cfg.distConfig(), cfg.Schedule, cfg.Steps, core.DefaultTolerance)
		err := r.sub.Local(func(s *core.SoA) error {
			if err := v.Check(s); err != nil {
				return err
			}
			if gather {
				rep.State.AppendColumns(s)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("driver: verification failed: rank %d: %w", r.c.Rank(), err)
		}
		rep.Count, rep.IDSum = v.Count, v.IDSum
	}
	if cfg.Telemetry {
		bytes, msgs, _, _ := r.sub.PeerExchange()
		rep.Samples = r.samples[r.sent:]
		rep.PeerBytes, rep.PeerMsgs = append([]int64(nil), bytes...), append([]int64(nil), msgs...)
	}
	all := comm.Gather(r.c, 0, rep)
	if r.c.Rank() != 0 {
		return nil, nil
	}

	res := &Result{Name: r.e.Name, P: len(all), Steps: cfg.Steps, PerRank: make([]RankStats, len(all)),
		Verified: verify, BalanceLog: r.bal.History()}
	var count, n int
	var idSum uint64
	for i := range all {
		rep := &all[i]
		st := rankStats(i, &rep.Counters, rep.MaxParticles)
		res.PerRank[i] = st
		res.FinalParticles += st.FinalParticles
		res.MaxFinalParticles = max(res.MaxFinalParticles, st.FinalParticles)
		count += rep.Count
		idSum += rep.IDSum
		n += rep.State.Len()
	}
	if verify {
		if err := core.VerifyPopulation(cfg.distConfig(), cfg.Schedule, cfg.Steps, count, idSum); err != nil {
			return nil, fmt.Errorf("driver: verification failed: %w", err)
		}
	}
	if gather {
		if n != res.FinalParticles {
			return nil, fmt.Errorf("driver: gathered %d particles of the final %d: every rank must run the same Config", n, res.FinalParticles)
		}
		res.Particles = &core.SoA{}
		for i := range all {
			res.Particles.AppendColumns(&all[i].State)
		}
		res.Particles.SortByID()
	}
	// The samples the commits carried, then each rank's since its last.
	var events []telemetry.Event
	var samples [][]telemetry.Sample
	if st := r.e.store; st != nil {
		var stats RecoveryStats
		stats, events, samples = st.summary()
		res.Recovery = &stats
	}
	if cfg.Telemetry {
		rows := make([]telemetry.PeerXchg, len(all))
		for i := range all {
			samples = append(samples, all[i].Samples)
			rows[i] = telemetry.PeerXchg{Rank: i, Bytes: all[i].PeerBytes, Msgs: all[i].PeerMsgs}
		}
		res.Timeline = telemetry.New(r.e.Name, len(all), cfg.Steps, samples...)
		res.Timeline.PeerXchg, res.Timeline.Events = rows, events
	}
	return res, nil
}

// rankStats is rank's accounting from its final counter reading v and its
// particle high-water mark.
func rankStats(rank int, v *[telemetry.NumCounters]int64, maxParticles int) RankStats {
	return RankStats{
		Rank:           rank,
		Compute:        time.Duration(v[telemetry.Compute]),
		Exchange:       time.Duration(v[telemetry.Exchange]),
		Balance:        time.Duration(v[telemetry.Balance]),
		Migrate:        time.Duration(v[telemetry.Migrate]),
		FinalParticles: int(v[telemetry.Particles]),
		MaxParticles:   maxParticles,
		Migrations:     int(v[telemetry.Migrations]),
		BytesMigrated:  v[telemetry.MigratedBytes],
		BytesExchanged: v[telemetry.ExchangeBytes],
		MsgsSent:       v[telemetry.MsgsSent],
		MsgsElided:     v[telemetry.MsgsElided],
	}
}
