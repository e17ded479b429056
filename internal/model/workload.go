package model

import (
	"fmt"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
)

// Workload is the analytic particle-distribution state: a per-cell-column
// histogram that rotates rightward (2k+1) columns per step (paper §III-E1)
// and is uniform in y. Injection/removal events perturb it.
type Workload struct {
	L     int
	Shift int // columns shifted so far (mod L)
	Speed int // (2k+1) columns per step
	Dir   int // +1 or -1

	// base[c] is the particle count currently at column position... the
	// physical column of logical index c is (c + Shift·Dir) mod L; sums are
	// taken over physical ranges by un-rotating into logical space.
	base   []float64
	prefix []float64 // prefix[i] = sum(base[:i]), rebuilt when base changes

	events dist.Schedule
	step   int
}

// NewWorkload builds the analytic workload matching a dist.Config and event
// schedule: the same column apportionment as the real initializer.
func NewWorkload(cfg dist.Config, sched dist.Schedule) (*Workload, error) {
	counts, err := dist.ColumnCounts(cfg)
	if err != nil {
		return nil, err
	}
	if err := sched.Validate(cfg.Mesh); err != nil {
		return nil, err
	}
	w := &Workload{
		L:      cfg.Mesh.L,
		Speed:  2*cfg.K + 1,
		Dir:    int(cfg.Initial().Dir),
		base:   make([]float64, cfg.Mesh.L),
		events: sched.Sorted(),
	}
	for i, c := range counts {
		w.base[i] = float64(c)
	}
	w.rebuildPrefix()
	return w, nil
}

func (w *Workload) rebuildPrefix() {
	if w.prefix == nil {
		w.prefix = make([]float64, w.L+1)
	}
	w.prefix[0] = 0
	for i, v := range w.base {
		w.prefix[i+1] = w.prefix[i] + v
	}
}

// Total returns the current particle count.
func (w *Workload) Total() float64 { return w.prefix[w.L] }

// Step advances one time step: the histogram rotates and any events
// scheduled for the new step fire.
func (w *Workload) Step() {
	w.Shift = (w.Shift + w.Speed) % w.L
	w.step++
	for _, ev := range w.events.At(w.step) {
		w.applyEvent(ev)
	}
}

// applyEvent edits the base histogram in logical space. Removal deletes the
// fraction of each affected column that lies in the event's y-range
// (the workload is y-uniform); injection adds uniformly over the region.
func (w *Workload) applyEvent(ev dist.Event) {
	if ev.Remove {
		yFrac := float64(ev.Region.Y1-ev.Region.Y0) / float64(w.L)
		for c := ev.Region.X0; c < ev.Region.X1; c++ {
			w.base[w.logical(c)] *= 1 - yFrac
		}
	}
	if ev.Inject > 0 {
		per := float64(ev.Inject) / float64(ev.Region.X1-ev.Region.X0)
		for c := ev.Region.X0; c < ev.Region.X1; c++ {
			w.base[w.logical(c)] += per
		}
	}
	w.rebuildPrefix()
}

// logical maps a physical column to its index in base given the current
// rotation.
func (w *Workload) logical(phys int) int {
	return grid.WrapIndex(phys-w.Dir*w.Shift, w.L)
}

// RangeSum returns the particle count currently in physical columns
// [a, b) (b may exceed L to express wrapped ranges; the range length must
// not exceed L).
func (w *Workload) RangeSum(a, b int) float64 {
	if b < a || b-a > w.L {
		panic(fmt.Sprintf("model: bad range [%d,%d)", a, b))
	}
	if b == a {
		return 0
	}
	// Un-rotate: physical [a,b) corresponds to logical [a-shift, b-shift).
	la := w.logical(a)
	width := b - a
	if la+width <= w.L {
		return w.prefix[la+width] - w.prefix[la]
	}
	return (w.prefix[w.L] - w.prefix[la]) + w.prefix[la+width-w.L]
}

// Histogram materializes the current physical per-column histogram as
// int64, which the diffusion decision function consumes.
func (w *Workload) Histogram() []int64 {
	out := make([]int64, w.L)
	for phys := 0; phys < w.L; phys++ {
		out[phys] = int64(w.base[w.logical(phys)] + 0.5)
	}
	return out
}

// RowHistogram materializes the per-cell-row histogram for the two-phase
// diffusion decision. The analytic workload is uniform in y (paper
// §III-E1), so every row carries Total()/L particles.
func (w *Workload) RowHistogram() []int64 {
	out := make([]int64, w.L)
	per := int64(w.Total()/float64(w.L) + 0.5)
	for i := range out {
		out[i] = per
	}
	return out
}
