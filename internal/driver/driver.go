// Package driver contains the parallel reference implementations of the
// PIC PRK described in paper §IV, written against the message-passing
// runtime in internal/comm exactly as the paper's codes are written against
// MPI. One Engine owns the per-rank step pipeline (init → move → exchange →
// events → balance → verify); each driver is the engine instantiated with a
// Substrate (how particles and mesh data physically live on ranks) and a
// balance.Balancer (the policy deciding when and what to move):
//
//   - Baseline (paper "mpi-2d"): block substrate + NullBalancer — static
//     2D block decomposition, no load balancing.
//   - Diffusion (paper "mpi-2d-LB"): block substrate + DiffusionBalancer —
//     application-specific diffusion of the decomposition cuts.
//   - AMPI (paper "ampi"): VP substrate + AMPIBalancer — over-decomposition
//     into virtual processors with runtime-orchestrated load balancing and
//     PUP-serialized migration.
//   - WorkSteal (paper §VI future work): VP substrate + WorkStealBalancer —
//     demand-driven stealing by underloaded cores.
//
// All four produce bitwise-identical particle states to the sequential
// reference simulation (asserted by the test suite) and self-verify against
// the closed-form solution. The same Balancer implementations also drive
// the performance model (internal/model), so modeled and real decisions
// coincide by construction.
package driver

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/telemetry"
	"github.com/parres/picprk/internal/trace"
)

// Config describes one PIC PRK run.
type Config struct {
	Mesh grid.Mesh
	// N is the initial particle count.
	N int
	// K, M are the trajectory speed parameters (paper eqs. 3–4).
	K, M int
	// Dir is the drift direction (+1 default).
	Dir int
	// Dist is the initial distribution (nil = uniform).
	Dist dist.Distribution
	// Seed drives deterministic placement.
	Seed uint64
	// Steps is the number of time steps.
	Steps int
	// Schedule holds injection/removal events.
	Schedule dist.Schedule
	// Verify gathers all particles at rank 0 after the run and checks them
	// against the closed-form solution.
	Verify bool
	// DistributedVerify verifies without gathering: every rank checks its
	// local particles against the closed-form solution and the population
	// count and ID checksum are allreduced — the "trivially parallelized"
	// verification of paper §III-D. Result.Particles stays nil.
	DistributedVerify bool
	// Tol overrides the verification tolerance (0 = default).
	Tol float64
	// Chaos, when positive, delays every message delivery by a random
	// duration up to this bound — a stress mode that shakes out ordering
	// assumptions in the exchange and migration protocols.
	Chaos time.Duration
	// Transport selects the comm substrate: "" or "inproc" runs the ranks
	// as goroutines sharing one in-process world (the default); "tcp" or
	// "unix" runs each rank as its own wire node over loopback sockets,
	// serializing every payload through the registered codecs — the same
	// path picrun's multi-process mode uses. An empty field defers to the
	// PICPRK_TRANSPORT environment variable, which is how the test suite
	// reroutes the engine tests over the wire without editing them.
	Transport string
	// Workers is the number of worker goroutines each rank uses for the
	// move phase (intra-rank shared-memory parallelism). 0 selects the
	// default, GOMAXPROCS/ranks with a minimum of 1. Particle updates are
	// independent, so results are bitwise identical at any worker count.
	Workers int
	// Tile selects nothing: there is one step. The field exists only because
	// bench/workloads.go, which a product change may not touch, writes
	// Tile: 0; validate rejects any other value. Delete it with the next
	// benchmark change.
	Tile int
	// Telemetry enables the per-step timeline: every rank records one
	// telemetry.Sample per step and rank 0's Result carries the merged
	// Timeline. Off by default; the steady-state step then stays
	// allocation-free and results are bitwise identical either way.
	Telemetry bool
	// TelemetryCap bounds the per-rank sample ring; 0 keeps one slot per
	// step. A full ring evicts the oldest samples (Timeline.Dropped counts
	// them), bounding memory on very long runs.
	TelemetryCap int
	// Live, when non-nil, receives every rank's per-step samples for the
	// /metrics endpoint — independently of Telemetry, so a capped or
	// disabled timeline still feeds live gauges.
	Live *telemetry.Live
	// CheckpointEvery, when positive, ends an epoch every N steps with a
	// distributed checkpoint barrier: every rank serializes its full
	// substrate state through the PUP paths and the shards gather to rank 0
	// (the commit). The checkpoint work is confined to the boundary steps —
	// non-boundary steps stay allocation-free and results are bitwise
	// identical with checkpointing on or off. 0 disables epochs (one epoch
	// spans the whole run).
	CheckpointEvery int
	// Recover arms crash recovery on top of checkpointing (wire transports
	// only): when a peer vanishes mid-run, survivors roll back to the last
	// committed epoch, the rendezvous re-admits a replacement into the
	// vacated rank, and the run resumes — bitwise identical to an
	// uninterrupted run. Requires CheckpointEvery > 0. Workers use it to
	// decide whether a lost world means "rejoin" or "exit".
	Recover bool
}

// Transport names accepted by Config.Transport (and picrun -transport).
const (
	TransportInproc = "inproc"
	TransportTCP    = "tcp"
	TransportUnix   = "unix"
)

// ResolveTransport returns the effective transport name: the explicit
// setting if any, else the PICPRK_TRANSPORT environment variable, else
// in-process.
func (cfg *Config) ResolveTransport() string {
	if cfg.Transport != "" {
		return cfg.Transport
	}
	if env := os.Getenv("PICPRK_TRANSPORT"); env != "" {
		return env
	}
	return TransportInproc
}

// WorldOptions returns the comm.Options a run with this Config uses, for
// callers (picrun workers) that construct the World themselves and hand it
// to Engine.RunWorld.
func (cfg *Config) WorldOptions() comm.Options {
	return comm.Options{ChaosDelay: cfg.Chaos, ChaosSeed: int64(cfg.Seed)}
}

// effectiveWorkers resolves the per-rank move worker count a run with this
// Config actually uses: the explicit Workers setting, else GOMAXPROCS/ranks
// with a minimum of 1.
func (cfg *Config) effectiveWorkers(ranks int) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	w := runtime.GOMAXPROCS(0) / ranks
	if w < 1 {
		w = 1
	}
	return w
}

// DefaultTile is the tile edge bench/micro.go builds its core.TilePlan
// with; the step no longer tiles. Delete it with TilePlan.
const DefaultTile = 8

// ringWidths returns the per-axis displacement ring of the run: the maximum
// distance, in cells, any particle can travel in one step. The closed-form
// trajectories (core/verify.go) move a particle exactly (2K+1) cells in x
// and M cells in y per step, so the ring is exact, not an estimate;
// injected particles carry their event's own K and M, so the ring maxes
// over the schedule too. The step uses it to decide which cells can reach
// remote territory within a step.
func (cfg *Config) ringWidths() (rx, ry int) {
	rx = 2*cfg.K + 1
	ry = cfg.M
	if ry < 0 {
		ry = -ry
	}
	for _, ev := range cfg.Schedule {
		if ev.Inject <= 0 {
			continue
		}
		if w := 2*ev.K + 1; w > rx {
			rx = w
		}
		h := ev.M
		if h < 0 {
			h = -h
		}
		if h > ry {
			ry = h
		}
	}
	return rx, ry
}

func (cfg *Config) distConfig() dist.Config {
	return dist.Config{
		Mesh: cfg.Mesh, N: cfg.N, K: cfg.K, M: cfg.M,
		Dir: cfg.Dir, Dist: cfg.Dist, Seed: cfg.Seed,
	}
}

func (cfg *Config) validate(p int) error {
	if cfg.Steps < 0 {
		return fmt.Errorf("driver: negative step count %d", cfg.Steps)
	}
	if cfg.Mesh.L == 0 {
		return fmt.Errorf("driver: zero-value mesh")
	}
	if p <= 0 {
		return fmt.Errorf("driver: need at least one rank")
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("driver: negative move worker count %d", cfg.Workers)
	}
	if cfg.Tile != 0 {
		return fmt.Errorf("driver: tile setting %d: the step has one form and the setting selects nothing (leave it 0)", cfg.Tile)
	}
	if cfg.TelemetryCap < 0 {
		return fmt.Errorf("driver: negative telemetry ring cap %d", cfg.TelemetryCap)
	}
	switch tr := cfg.ResolveTransport(); tr {
	case TransportInproc, TransportTCP, TransportUnix:
	default:
		return fmt.Errorf("driver: unknown transport %q (want %s, %s or %s)",
			tr, TransportInproc, TransportTCP, TransportUnix)
	}
	if cfg.CheckpointEvery < 0 {
		return fmt.Errorf("driver: negative checkpoint interval %d", cfg.CheckpointEvery)
	}
	if cfg.Recover && cfg.CheckpointEvery == 0 {
		return fmt.Errorf("driver: recovery requires a checkpoint interval (set CheckpointEvery)")
	}
	if err := cfg.Schedule.Validate(cfg.Mesh); err != nil {
		return err
	}
	return nil
}

// RankStats reports one rank's accounting after a run.
type RankStats struct {
	Rank int
	// Compute, Exchange, Balance, Migrate are the per-phase times: particle
	// moves, particle exchange, LB decisions (reductions + planning), and
	// LB data movement (mesh or VP migration).
	Compute, Exchange, Balance, Migrate time.Duration
	// Overlap is the exchange time hidden behind compute by the two-wave
	// step: wall time of interior-wave moves that ran while the
	// boundary exchange was in flight. It is included in Compute (the time
	// was spent computing); Exchange holds only the exposed remainder.
	Overlap time.Duration
	// FinalParticles is the local particle count at the end of the run;
	// MaxParticles the high-water mark over all steps (§V-B metric).
	FinalParticles, MaxParticles int
	// Migrations counts LB actions that moved data to or from this rank.
	Migrations int
	// BytesMigrated counts LB payload bytes sent by this rank.
	BytesMigrated int64
	// BytesExchanged counts particle-exchange payload bytes sent by this
	// rank, in the framed columnar wire size (core.Columns.FramedBytes).
	BytesExchanged int64
	// MsgsSent counts exchange messages this rank posted over the run;
	// MsgsElided those the sparse neighbor schedule skipped relative to the
	// full P-1 ring. Their sum is (P-1) × exchange calls.
	MsgsSent, MsgsElided int64
}

// Result is what a driver run returns on rank 0.
type Result struct {
	Name    string
	P       int
	Steps   int
	Elapsed time.Duration
	PerRank []RankStats
	// FinalParticles is the global particle count after the run.
	FinalParticles int
	// MaxFinalParticles is the largest per-rank particle count at the end,
	// the metric paper §V-B reports (62,645 baseline vs 30,585 diffusion).
	MaxFinalParticles int
	// Verified is set when cfg.Verify was requested and passed.
	Verified bool
	// Particles holds the gathered global final state (sorted by ID) when
	// cfg.Verify was requested; tests compare it bitwise against the
	// sequential reference.
	Particles []particle.Particle
	// BalanceLog is rank 0's policy history: one line per executed
	// (non-empty) balancing plan. Because plans are pure functions of
	// globally-reduced loads, every rank's log is identical; tests compare
	// it against the model's log to pin decision identity.
	BalanceLog []string
	// Timeline is the merged per-step, per-rank telemetry when
	// cfg.Telemetry was set, nil otherwise.
	Timeline *telemetry.Timeline
	// Wire is the merged wire-transport accounting (per-peer frame counters,
	// one-way latency histograms, clock offsets) for socket-transport runs
	// where the caller owns every node (the in-process loopback cluster);
	// nil for in-process transport and for multi-process workers, whose
	// coordinator queries its own node directly.
	Wire *telemetry.WireReport
	// Recovery summarizes the epoch lifecycle of a checkpointed run:
	// committed epochs, and — for elastic runs that survived rank failures —
	// rollbacks and re-admissions. Nil when checkpointing was off.
	Recovery *RecoveryStats
}

// RecoveryStats counts the epoch lifecycle events of one run.
type RecoveryStats struct {
	// Generations is the number of world incarnations the run took: 1 for
	// an uninterrupted run, +1 per rollback/readmit cycle.
	Generations int
	// Commits counts committed epoch checkpoints (rank 0's shard store).
	Commits int
	// Rollbacks counts world teardowns caused by a lost rank; Readmits
	// counts replacement workers admitted into a vacated rank slot.
	Rollbacks, Readmits int
}

// MaxParticlesHighWater returns the largest per-rank high-water mark.
func (r *Result) MaxParticlesHighWater() int {
	m := 0
	for _, s := range r.PerRank {
		if s.MaxParticles > m {
			m = s.MaxParticles
		}
	}
	return m
}

// fillLocal streams the deterministic initial population into the
// containers this rank hosts, never materializing the rest of the world. ot
// maps a cell to one of owners owner indices (ranks, or VPs) and local
// returns that owner's container, nil when it lives on another rank. Cell
// columns no local owner reaches are skipped, RNG included; over the others
// a counting pass sizes every container exactly before a second pass fills
// it. Placement stays bitwise independent of P, which the verification
// scheme relies on: every rank sees the same stream and keeps its share.
func fillLocal(cfg Config, ot *core.OwnerTable, owners int, local func(owner int32) *core.SoA) error {
	dst := make([]*core.SoA, owners)
	for o := range dst {
		dst[o] = local(int32(o))
	}
	L := cfg.Mesh.L
	want := make([]bool, L)
	for cx := range want {
		for cy := 0; cy < L && !want[cx]; cy++ {
			want[cx] = dst[ot.Owner(cx, cy)] != nil
		}
	}
	cols := func(cx int) bool { return want[cx] }
	dc := cfg.distConfig()
	counts := make([]int, owners)
	err := dist.Each(dc, cols, func(cx, cy int, _ *particle.Particle) { counts[ot.Owner(cx, cy)]++ })
	if err != nil {
		return err
	}
	for o, s := range dst {
		if s != nil {
			s.Resize(counts[o])
			s.Truncate(0)
		}
	}
	return dist.Each(dc, cols, func(cx, cy int, p *particle.Particle) {
		if s := dst[ot.Owner(cx, cy)]; s != nil {
			s.Append(*p)
		}
	})
}

// eventState tracks the globally-agreed ID counter for injections.
type eventState struct {
	nextID uint64
}

func newEventState(cfg Config) eventState {
	dc := cfg.distConfig()
	_, next := dc.IDRange()
	return eventState{nextID: next}
}

// apply fires the events scheduled at the given step, removal before
// injection: remove is called with each removal region, and place with
// every particle an injection adds — the deterministic global sequence,
// streamed, of which a rank keeps the particles landing in cells it owns.
// Every rank advances nextID identically.
func (es *eventState) apply(cfg Config, step int, remove func(region dist.Rect), place func(cx, cy int, p *particle.Particle)) {
	for _, ev := range cfg.Schedule.At(step) {
		if ev.Remove {
			remove(ev.Region)
		}
		if ev.Inject > 0 {
			dist.EachInjected(cfg.Mesh, ev, cfg.Seed, es.nextID, cfg.Dir, place)
			es.nextID += uint64(ev.Inject)
		}
	}
}

// removeRegion deletes, in place, every particle of s inside region.
func removeRegion(s *core.SoA, region dist.Rect, m grid.Mesh) {
	s.Filter(func(i int) bool { return !region.ContainsPos(s.X[i], s.Y[i], m) })
}

// colShards is the double-buffered set of per-destination core.Columns
// shards for the columnar exchange. The safety argument is the one
// comm.ExchangePtr documents: completing exchange call k+1 implies every
// rank the schedule let call k route to has finished reading call k's
// shards — under a sparse neighbor schedule those are the only ranks that
// ever held them — so alternating two generations never overwrites a shard
// still in flight, even under chaos-mode delivery delays. The receiver only
// ever reads these in place; the shards it may keep and recycle are the
// copies a wire transport decodes for it (decodedShards).
type colShards struct {
	gens [2][]core.Columns
	gen  int
}

// next returns the older generation's shards, emptied and sized for p
// destinations, and flips the generation.
func (b *colShards) next(p int) []core.Columns {
	cur := b.gens[b.gen]
	if len(cur) != p {
		cur = make([]core.Columns, p)
		b.gens[b.gen] = cur
	}
	b.gen = 1 - b.gen
	for i := range cur {
		cur[i].Reset()
	}
	return cur
}

// distributedVerify is the parallel verification of paper §III-D: every
// rank checks its particles against the closed form on the columns where
// they live (Substrate.VerifyLocal), and one allreduce compares the global
// population count and ID checksum with the analytic prediction. No rank
// ever sees the global particle set, or even an AoS copy of its own.
func distributedVerify(c *comm.Comm, cfg Config, sub Substrate) error {
	dc := cfg.distConfig()
	first, _ := dc.IDRange()
	v := core.NewColumnVerifier(cfg.Mesh, cfg.Steps, cfg.Tol, first, cfg.N+cfg.Schedule.TotalInjected())
	if err := sub.VerifyLocal(v); err != nil {
		return fmt.Errorf("rank %d: %w", c.Rank(), err)
	}
	sums := comm.Allreduce(c, []uint64{uint64(v.Count), v.IDSum}, comm.Sum[uint64])
	pop, err := core.ExpectedPopulation(dc, cfg.Schedule, cfg.Steps)
	if err != nil {
		return err
	}
	if sums[0] != uint64(pop.Count) {
		return fmt.Errorf("driver: global particle count %d, expected %d", sums[0], pop.Count)
	}
	if sums[1] != pop.IDSum {
		return fmt.Errorf("driver: global ID checksum %d, expected %d", sums[1], pop.IDSum)
	}
	return nil
}

// gatherAndVerify collects every rank's particles at rank 0 and verifies
// them against the closed-form solution. Ranks other than 0 return
// (nil, true, nil). With cfg.DistributedVerify the gather — and the AoS
// conversion feeding it — is skipped and the parallel verification runs on
// the substrate's columns instead.
func gatherAndVerify(c *comm.Comm, cfg Config, sub Substrate) ([]particle.Particle, bool, error) {
	if cfg.DistributedVerify {
		if err := distributedVerify(c, cfg, sub); err != nil {
			return nil, false, fmt.Errorf("driver: distributed verification failed: %w", err)
		}
		return nil, true, nil
	}
	all := comm.Gather(c, 0, append([]particle.Particle(nil), sub.Particles()...))
	if c.Rank() != 0 {
		return nil, true, nil
	}
	var merged []particle.Particle
	for _, part := range all {
		merged = append(merged, part...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	if !cfg.Verify {
		return merged, false, nil
	}
	if err := core.Verify(cfg.distConfig(), cfg.Schedule, merged, cfg.Steps, cfg.Tol); err != nil {
		return merged, false, fmt.Errorf("driver: verification failed: %w", err)
	}
	return merged, true, nil
}

// collectResult gathers per-rank stats at rank 0 and assembles the Result.
func collectResult(c *comm.Comm, name string, cfg Config, rec *trace.Recorder, nLocal int, bytesMigrated, bytesExchanged int64, migrations int) *Result {
	msgsSent, msgsElided := c.ExchangeMsgStats()
	st := RankStats{
		Rank:           c.Rank(),
		Compute:        rec.Get(trace.Compute),
		Exchange:       rec.Get(trace.Exchange),
		Balance:        rec.Get(trace.Balance),
		Migrate:        rec.Get(trace.Migrate),
		Overlap:        rec.Overlap(),
		FinalParticles: nLocal,
		MaxParticles:   rec.MaxParticles,
		Migrations:     migrations,
		BytesMigrated:  bytesMigrated,
		BytesExchanged: bytesExchanged,
		MsgsSent:       msgsSent,
		MsgsElided:     msgsElided,
	}
	all := comm.Gather(c, 0, st)
	if c.Rank() != 0 {
		return nil
	}
	res := &Result{Name: name, P: c.Size(), Steps: cfg.Steps, PerRank: all}
	for _, s := range all {
		res.FinalParticles += s.FinalParticles
		if s.FinalParticles > res.MaxFinalParticles {
			res.MaxFinalParticles = s.FinalParticles
		}
	}
	return res
}
