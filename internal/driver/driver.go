// Package driver contains the parallel reference implementations of the
// PIC PRK described in paper §IV, written against the message-passing
// runtime in internal/comm exactly as the paper's codes are written against
// MPI. One Engine owns the per-rank step pipeline (init → move → exchange →
// events → balance → verify); each driver is the engine instantiated with a
// Substrate (how particles and mesh data physically live on ranks) and a
// balance.Balancer (the policy deciding when and what to move), built in
// drivers.go by one builder per substrate:
//
//   - Baseline (paper "mpi-2d"): block substrate + NullBalancer — static
//     2D block decomposition, no load balancing.
//   - Diffusion (paper "mpi-2d-LB"): block substrate + DiffusionBalancer —
//     application-specific diffusion of the decomposition cuts.
//   - AMPI (paper "ampi"): VP substrate + StrategyBalancer over RefineLB
//     (or any ampi.Strategy) — over-decomposition into virtual processors
//     with runtime-orchestrated load balancing and PUP-serialized migration.
//   - WorkSteal (paper §VI future work): VP substrate + StrategyBalancer
//     over WorkStealLB — demand-driven stealing by underloaded cores.
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
	"time"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/telemetry"
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
	// Verify checks the final state against the closed-form solution — the
	// "trivially parallelized" verification of paper §III-D: every rank
	// checks its own particles where they live, and rank 0 checks the
	// global population count and ID checksum — and gathers the final
	// state, sorted by ID, into Result.Particles.
	Verify bool
	// DistributedVerify verifies as Verify does, without the gather:
	// Result.Particles stays nil. It wins when both are set.
	DistributedVerify bool
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
	// Live, when non-nil, receives every rank's per-step samples for the
	// /metrics endpoint — independently of Telemetry, so a run without a
	// timeline still feeds live gauges.
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

// WorldOptions returns the comm.Options a run with this Config uses.
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
	tr := cfg.ResolveTransport()
	switch tr {
	case TransportInproc, TransportTCP, TransportUnix:
	default:
		return fmt.Errorf("driver: unknown transport %q (want %s, %s or %s)",
			tr, TransportInproc, TransportTCP, TransportUnix)
	}
	if cfg.CheckpointEvery < 0 {
		return fmt.Errorf("driver: negative checkpoint interval %d", cfg.CheckpointEvery)
	}
	if cfg.Recover && tr == TransportInproc {
		return fmt.Errorf("driver: recovery needs a wire transport (%s or %s): in-process ranks have no node to lose", TransportTCP, TransportUnix)
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
	// Overlap is always zero: the step is one pass, then the exchange, and
	// hides no exchange behind compute. The field exists only because
	// bench/metrics.go, which a product change may not touch, reads it.
	// Delete it with the next benchmark change.
	Overlap time.Duration
	// FinalParticles is the local particle count at the end of the run;
	// MaxParticles the high-water mark over all steps (§V-B metric).
	FinalParticles, MaxParticles int
	// Migrations counts LB actions that moved data to or from this rank.
	Migrations int
	// BytesMigrated counts LB payload bytes sent by this rank.
	BytesMigrated int64
	// BytesExchanged counts particle-exchange payload bytes sent by this
	// rank, in the framed columnar wire size (core.SoA.FramedBytes).
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
	// Verified is set when cfg.Verify or cfg.DistributedVerify was
	// requested and passed.
	Verified bool
	// Particles holds the gathered global final state, sorted by ID, when
	// cfg.Verify was requested without cfg.DistributedVerify: picrun
	// -dumpstate writes it, and picverify and the tests compare it bitwise
	// against the sequential reference.
	Particles *core.SoA
	// BalanceLog is rank 0's policy history: one line per executed
	// (non-empty) balancing plan. Because plans are pure functions of
	// globally-reduced loads, every rank's log is identical; tests compare
	// it against the model's log to pin decision identity.
	BalanceLog []string
	// Timeline is the merged per-step, per-rank telemetry when
	// cfg.Telemetry was set, nil otherwise.
	Timeline *telemetry.Timeline
	// Wire is the wire-transport accounting (per-peer frame counters,
	// one-way latency histograms, clock offsets) of a socket-transport run:
	// the merged report of every node this process hosted in the world
	// generation that finished the run — all p nodes under Run, node 0 alone
	// under a multi-process RunElastic. Nil for the in-process transport.
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

// colShards is the double-buffered set of per-destination core.SoA
// shards for the columnar exchange. The safety argument is the one
// comm.ExchangePtr documents: completing exchange call k+1 implies every
// rank the schedule let call k route to has finished reading call k's
// shards — under a sparse neighbor schedule those are the only ranks that
// ever held them — so alternating two generations never overwrites a shard
// still in flight, even under chaos-mode delivery delays. The receiver only
// ever reads these in place; the shards it may keep and recycle are the
// copies a wire transport decodes for it (decodedShards).
type colShards struct {
	gens [2][]core.SoA
	gen  int
}

// next returns the older generation's shards, emptied and sized for p
// destinations, and flips the generation.
func (b *colShards) next(p int) []core.SoA {
	cur := b.gens[b.gen]
	if len(cur) != p {
		cur = make([]core.SoA, p)
		b.gens[b.gen] = cur
	}
	b.gen = 1 - b.gen
	for i := range cur {
		cur[i].Reset()
	}
	return cur
}
