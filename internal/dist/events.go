package dist

import (
	"fmt"
	"sort"

	"github.com/parres/picprk/internal/grid"
)

// Rect is a rectangle of cells, [X0, X1) × [Y0, Y1), used to delimit
// injection and removal regions (paper §III-E5).
type Rect struct{ X0, X1, Y0, Y1 int }

// ContainsCell reports whether cell (cx, cy) lies inside the rectangle.
func (r Rect) ContainsCell(cx, cy int) bool {
	return cx >= r.X0 && cx < r.X1 && cy >= r.Y0 && cy < r.Y1
}

// ContainsPos reports whether a continuous position lies inside the
// rectangle; membership is defined by the containing cell, matching how the
// kernel assigns particles to cells.
func (r Rect) ContainsPos(x, y float64, m grid.Mesh) bool {
	cx, cy := m.CellOf(x, y)
	return r.ContainsCell(cx, cy)
}

// Cells returns the number of cells in the rectangle.
func (r Rect) Cells() int {
	w, h := r.X1-r.X0, r.Y1-r.Y0
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Event is a scheduled perturbation of the particle population. At Step,
// first removal (if Remove is set) deletes every particle whose position
// lies in Region, then Inject new particles are placed uniformly at the
// centers of cells in Region. Both adjust the local amount of work abruptly
// and are the paper's category-2 source of load imbalance.
type Event struct {
	// Step is the time step, counted after the step's particle move, at
	// which the event fires. Step s means "after s moves have completed",
	// so it is at least 1.
	Step int
	// Region delimits the affected cells.
	Region Rect
	// Remove deletes all particles currently inside Region.
	Remove bool
	// Inject is the number of particles to add uniformly inside Region.
	Inject int
	// K, M are the trajectory parameters of injected particles.
	K, M int
}

// Schedule is an ordered list of events.
type Schedule []Event

// Validate checks event parameters against the mesh.
func (s Schedule) Validate(m grid.Mesh) error {
	for i, ev := range s {
		if ev.Step < 1 {
			return fmt.Errorf("dist: event %d at step %d never fires: events fire after a step's move, at step 1 or later", i, ev.Step)
		}
		if ev.Inject < 0 {
			return fmt.Errorf("dist: event %d has negative injection count", i)
		}
		if ev.Inject > 0 || ev.Remove {
			r := ev.Region
			if r.X0 < 0 || r.Y0 < 0 || r.X1 > m.L || r.Y1 > m.L || r.Cells() == 0 {
				return fmt.Errorf("dist: event %d region %+v invalid for L=%d", i, r, m.L)
			}
		}
		if ev.K < 0 {
			return fmt.Errorf("dist: event %d has negative K", i)
		}
	}
	return nil
}

// Sorted returns a copy of the schedule ordered by step (stable).
func (s Schedule) Sorted() Schedule {
	out := make(Schedule, len(s))
	copy(out, s)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// Fired returns, ordered by step (stable), the events a run of steps steps
// fires — those at steps 1 through steps. An event fires after its step's
// move, so one at step 0 or past the last step never does, and mints no
// IDs; verification sizes the run's ID range and replays removals over
// exactly this set.
func (s Schedule) Fired(steps int) Schedule {
	var out Schedule
	for _, ev := range s.Sorted() {
		if ev.Step >= 1 && ev.Step <= steps {
			out = append(out, ev)
		}
	}
	return out
}

// At returns the events firing at the given step.
func (s Schedule) At(step int) []Event {
	var out []Event
	for _, ev := range s {
		if ev.Step == step {
			out = append(out, ev)
		}
	}
	return out
}

// TotalInjected returns the number of particles the schedule injects in
// total; on Fired(steps), the IDs a run mints after its initial population.
func (s Schedule) TotalInjected() int {
	n := 0
	for _, ev := range s {
		n += ev.Inject
	}
	return n
}

// EachInjected streams the start cell and ID of every particle one event
// adds to emit, in ID order (firstID, firstID+1, …); the event's batch
// (Config.Injection) is the rest of each particle. Placement is uniform over
// the region's cells, drawn from one RNG stream derived from seed and the
// event's step, so every rank sees the identical global sequence and keeps
// the particles landing in its own subdomain; the single stream is why no
// cell column can be skipped here.
func EachInjected(ev Event, seed, firstID uint64, emit func(cx, cy int, id uint64)) {
	rng := NewRNG(seed, 0x696e6a /* "inj" */, uint64(ev.Step))
	w := ev.Region.X1 - ev.Region.X0
	h := ev.Region.Y1 - ev.Region.Y0
	for i := range ev.Inject {
		cx := ev.Region.X0 + rng.Intn(w)
		cy := ev.Region.Y0 + rng.Intn(h)
		emit(cx, cy, firstID+uint64(i))
	}
}
