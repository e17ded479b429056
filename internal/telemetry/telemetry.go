// Package telemetry records the per-step, per-rank timeline of a PIC PRK
// run: how long each rank spent in each phase of each step, how many
// particles it held, what the load balancer moved, and which decision it
// took. The paper's evaluation (§V-B) argues from exactly these
// trajectories — max particles per core over time, phase timing breakdowns
// — and end-of-run sums cannot show *when* imbalance develops or what a
// balancing action cost. One table (counters.go) describes every per-step
// quantity, the phase spans included, and every sink walks it.
//
// The package has three consumers:
//
//   - the timeline writers (JSONL for cmd/picstat, Chrome trace-event JSON
//     for chrome://tracing and Perfetto),
//   - the live /metrics endpoint (Prometheus text format, plus expvar and
//     pprof) backed by the lock-free Live aggregate,
//   - the analysis helpers cmd/picstat builds its report from.
//
// Everything on the recording side is allocation-free: a nil *Live accepts
// samples as a no-op, and the engine appends each rank's samples to a slice
// sized to the step count, so the steady-state step stays off the
// allocator.
package telemetry

import "sort"

// Sample is one rank's observation of one step. The sinks — JSONL, the
// live aggregate, Chrome, the wire codec — walk Counters by the table; none
// spells a row out.
type Sample struct {
	// Step is the 1-based simulation step.
	Step int
	// Rank is the observing rank.
	Rank int
	// Counters holds one value per Counter (see the table in counters.go):
	// per-step deltas — the phase spans in nanoseconds — except gauges, which
	// hold the level at the end of the step.
	Counters [NumCounters]int64
	// WallStartNS is the wall-clock time this rank began the step, in
	// nanoseconds on the world's common timeline (rank 0's clock; the wire
	// transport offset-corrects it, see Comm.WallClockNS). Zero when the
	// recording side did not stamp the step. The engine clamps it monotone
	// per rank, so equal-rank samples sort by wall time even if a mid-run
	// offset update stepped the clock back.
	WallStartNS int64
	// ClockOffsetNS is the recording process's estimated clock offset to
	// rank 0's clock at sampling time (already folded into WallStartNS; kept
	// so cross-rank skew is visible in the timeline itself).
	ClockOffsetNS int64
	// Decision is the balancer's history line when a plan executed this
	// step, empty otherwise. Plans are identical on every rank, so readers
	// normally take rank 0's.
	Decision string
}

// Timeline is the merged per-step record of one run: every rank's samples,
// sorted by (step, rank). Rank 0's Result carries one when the run sampled.
type Timeline struct {
	// Name is the implementation label ("serial", "baseline", ...).
	Name string
	// P is the rank count; Steps the configured step count.
	P, Steps int
	// Samples holds every sample, sorted by (Step, Rank).
	Samples []Sample
	// Events holds the epoch lifecycle events of a checkpointed run, in
	// occurrence order: commits, rollbacks, re-admissions. Empty when
	// checkpointing was off. Samples from a generation that was rolled back
	// are lost with its world — the rollback events explain the gaps.
	Events []Event
	// PeerXchg holds each rank's end-of-run per-peer exchange matrix row,
	// sorted by rank. Empty on timelines from runs that did not gather it.
	PeerXchg []PeerXchg
}

// PeerXchg is one rank's row of the per-peer exchange matrix: cumulative
// framed payload bytes and payload messages sent to each destination rank
// over the whole run. Both slices have length P; the self entry is zero.
type PeerXchg struct {
	// Rank is the sending rank.
	Rank int
	// Bytes[d] is the framed columnar payload bytes sent to rank d.
	Bytes []int64
	// Msgs[d] is the number of non-empty payload messages sent to rank d.
	Msgs []int64
}

// Event kinds recorded on a checkpointed run's timeline.
const (
	// EventCommit: an epoch checkpoint committed (all shards reached rank 0).
	EventCommit = "commit"
	// EventRollback: a rank was lost; survivors rolled back to the last
	// committed epoch (Step 0 = restart from scratch, nothing committed yet).
	EventRollback = "rollback"
	// EventReadmit: a replacement worker was admitted into a vacated rank.
	EventReadmit = "readmit"
)

// Event is one epoch lifecycle event: a committed checkpoint, a rollback to
// one, or a replacement rank's re-admission.
type Event struct {
	// Kind is one of EventCommit, EventRollback, EventReadmit.
	Kind string
	// Step is the checkpointed step (commit) or the step rolled back to
	// (rollback); 0 for readmit.
	Step int
	// Gen is the world generation the event happened in (0 = initial).
	Gen int
	// Rank is the re-admitted rank for readmit events, -1 otherwise.
	Rank int
	// WallNS is the event time on the reference wall clock.
	WallNS int64
}

// New assembles a Timeline from per-rank sample slices, sorting the merged
// samples by (step, rank).
func New(name string, p, steps int, perRank ...[]Sample) *Timeline {
	tl := &Timeline{Name: name, P: p, Steps: steps}
	for _, rs := range perRank {
		tl.Samples = append(tl.Samples, rs...)
	}
	sort.SliceStable(tl.Samples, func(i, j int) bool {
		a, b := tl.Samples[i], tl.Samples[j]
		if a.Step != b.Step {
			return a.Step < b.Step
		}
		return a.Rank < b.Rank
	})
	return tl
}
