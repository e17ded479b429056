// Package trace is the per-rank accumulator the step path charges its time
// to: nanoseconds per timed row of the telemetry counter table (the four
// phase spans), plus the particle high-water mark.
// The engine reads the accumulated durations together with its other
// counters, so per-step telemetry and the end-of-run statistics are both
// differences of, or final values of, one reading.
package trace

import (
	"time"

	"github.com/parres/picprk/internal/telemetry"
)

// Recorder accumulates durations per counter-table row for one rank; rows
// that are not timed stay zero. It is not safe for concurrent use; each
// rank owns one.
type Recorder struct {
	durations [telemetry.NumCounters]time.Duration
	// MaxParticles tracks the high-water mark of local particle count, the
	// §V-B metric.
	MaxParticles int
}

// Time runs fn and charges its wall time to the row.
func (r *Recorder) Time(c telemetry.Counter, fn func()) {
	start := time.Now()
	fn()
	r.durations[c] += time.Since(start)
}

// Add charges a duration to a row directly.
func (r *Recorder) Add(c telemetry.Counter, d time.Duration) { r.durations[c] += d }

// Get returns the accumulated duration of a row.
func (r *Recorder) Get(c telemetry.Counter) time.Duration { return r.durations[c] }

// ObserveParticles updates the particle high-water mark.
func (r *Recorder) ObserveParticles(n int) {
	if n > r.MaxParticles {
		r.MaxParticles = n
	}
}
