// Package trace records lightweight per-phase timings during a run: how
// much time each rank spends computing particle moves, exchanging
// particles, and load balancing. Drivers aggregate these into the run
// statistics the experiment harness reports.
package trace

import (
	"fmt"
	"time"
)

// Phase labels one accounting bucket.
type Phase int

// The phases drivers account for.
const (
	Compute Phase = iota
	Exchange
	// Balance is the decision side of load balancing: load reductions and
	// plan computation.
	Balance
	// Migrate is the data side of load balancing: executing a plan by
	// moving mesh columns/rows or PUP-serialized VPs between ranks.
	Migrate
	numPhases
)

// NumPhases is the number of accountable phases, for sizing per-phase
// arrays outside this package.
const NumPhases = int(numPhases)

// allPhases enumerates every phase in index order, derived from the iota
// range so no list is hand-maintained anywhere.
var allPhases = func() (ps [NumPhases]Phase) {
	for i := range ps {
		ps[i] = Phase(i)
	}
	return
}()

// Phases returns every accountable phase in index order. Exporters and
// aggregators iterate this instead of hand-maintaining the phase list.
// The returned slice is shared; callers must not modify it.
func Phases() []Phase { return allPhases[:] }

// String names the phase.
func (p Phase) String() string {
	switch p {
	case Compute:
		return "compute"
	case Exchange:
		return "exchange"
	case Balance:
		return "balance"
	case Migrate:
		return "migrate"
	case numPhases:
		// The array-sizing sentinel is not an accountable phase; name it
		// distinctly so a stray use is recognizable in output.
		return "numPhases"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// PhaseDurations holds one duration per phase, indexed by Phase.
type PhaseDurations [NumPhases]time.Duration

// Recorder accumulates per-phase durations and counters for one rank.
// It is not safe for concurrent use; each rank owns one.
type Recorder struct {
	durations [numPhases]time.Duration
	// stepBase holds the cumulative durations at the last StartStep call;
	// Snapshot reports the delta against it.
	stepBase [numPhases]time.Duration
	// overlap accumulates exchange time hidden behind compute: wall time
	// spent computing while an exchange was in flight (the interior wave).
	// It is not a phase — the same wall time is already charged to Compute
	// — but a parallel account of how much of the exchange the step hid.
	overlap time.Duration
	// MaxParticles tracks the high-water mark of local particle count, the
	// §V-B metric.
	MaxParticles int
}

// Time runs fn and charges its wall time to the phase.
func (r *Recorder) Time(p Phase, fn func()) {
	start := time.Now()
	fn()
	r.durations[p] += time.Since(start)
}

// Add charges a duration to a phase directly.
func (r *Recorder) Add(p Phase, d time.Duration) { r.durations[p] += d }

// Get returns the accumulated duration of a phase.
func (r *Recorder) Get(p Phase) time.Duration { return r.durations[p] }

// AddOverlap credits compute wall time that ran while an exchange was in
// flight (see the overlap field).
func (r *Recorder) AddOverlap(d time.Duration) { r.overlap += d }

// Overlap returns the accumulated hidden-exchange time.
func (r *Recorder) Overlap() time.Duration { return r.overlap }

// StartStep marks the beginning of a step for Snapshot accounting. It is
// allocation-free, so per-step telemetry can call it unconditionally.
func (r *Recorder) StartStep() { r.stepBase = r.durations }

// Snapshot returns the per-phase durations accumulated since the last
// StartStep call (or since the recorder's creation, if StartStep was never
// called). It is allocation-free.
func (r *Recorder) Snapshot() PhaseDurations {
	var d PhaseDurations
	for i := range d {
		d[i] = r.durations[i] - r.stepBase[i]
	}
	return d
}

// ObserveParticles updates the particle high-water mark.
func (r *Recorder) ObserveParticles(n int) {
	if n > r.MaxParticles {
		r.MaxParticles = n
	}
}
