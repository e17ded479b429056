package core

import (
	"fmt"
	"math"
	"slices"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
)

// DefaultTolerance is the verification tolerance on particle positions.
// The kernel's arithmetic is deterministic but not exactly lattice-exact;
// the center-line configuration is self-restoring, so the error stays many
// orders of magnitude below the h/2 lattice spacing even over thousands of
// steps (asserted by tests out to 10k steps). The PRK reference
// implementation uses an epsilon-based check for the same reason.
const DefaultTolerance = 1e-5

// VerifyPositions checks every particle against its closed-form trajectory
// (paper eqs. 5–6): after s = steps − Born participating steps the particle
// must be at
//
//	x = (x0 + Dir·(2K+1)·s·h) mod L,   y = (y0 + M·h·s) mod L
//
// within tol (measured as periodic distance). It also checks the velocity
// pattern implied by the spec: vy = M·h/dt always, and vx alternates between
// 0 (after an even number of steps) and Dir·2·(2K+1)·h/dt (after an odd
// number). A single miscomputed force anywhere in a parallel run breaks
// these conditions, and so does a NaN anywhere in the state (each distance
// must be at most tol, which NaN never is).
func VerifyPositions(m grid.Mesh, ps []particle.Particle, steps int, tol float64) error {
	L := m.Size()
	for i := range ps {
		p := &ps[i]
		meta := metaOf(p)
		if err := verifyParticle(&meta, p.X, p.Y, p.VX, p.VY, steps, L, tol); err != nil {
			return err
		}
	}
	return nil
}

// verifyParticle is the per-particle rule of VerifyPositions and
// ColumnVerifier.Check: the particle with trajectory m is at (x, y) with
// velocity (vx, vy) after steps steps. It takes the fields, not a Particle,
// so the columnar check reads its slots where they lie.
func verifyParticle(m *SoAMeta, x, y, vx, vy float64, steps int, L, tol float64) error {
	s := steps - int(m.Born)
	if s < 0 {
		return fmt.Errorf("core: particle %d born at step %d but run is only %d steps", m.ID, m.Born, steps)
	}
	ex, ey := particle.ClosedForm(m.X0, m.Y0, m.K, m.M, m.Dir, s, L)
	if d := periodicDist(x, ex, L); !(d <= tol) {
		return fmt.Errorf("core: particle %d x=%v, expected %v after %d steps (|err|=%.3e)", m.ID, x, ex, s, d)
	}
	if d := periodicDist(y, ey, L); !(d <= tol) {
		return fmt.Errorf("core: particle %d y=%v, expected %v after %d steps (|err|=%.3e)", m.ID, y, ey, s, d)
	}
	if d := math.Abs(vy - float64(m.M)); !(d <= tol) {
		return fmt.Errorf("core: particle %d vy=%v, expected %d (|err|=%.3e)", m.ID, vy, m.M, d)
	}
	var evx float64
	if s%2 == 1 {
		evx = float64(m.Dir) * 2 * float64(2*m.K+1)
	}
	if d := math.Abs(vx - evx); !(d <= tol) {
		return fmt.Errorf("core: particle %d vx=%v, expected %v after %d steps (|err|=%.3e)", m.ID, vx, evx, s, d)
	}
	return nil
}

// ColumnVerifier is the per-rank half of distributed verification, run on
// the particle columns where they live: every particle passes the
// VerifyPositions rule, no ID repeats within the rank, and Count and IDSum
// accumulate for the global population check. IDs are tracked in a bitset
// over [first, first+n) — the range a run can mint — so an ID outside it is
// an error in its own right, not only a checksum mismatch later.
type ColumnVerifier struct {
	size  float64 // domain extent L
	steps int
	tol   float64
	first uint64
	n     uint64
	seen  []uint64

	// Count and IDSum cover every particle checked so far.
	Count int
	IDSum uint64
}

// NewColumnVerifier prepares a verifier for the state after steps steps.
// IDs must lie in [first, first+n); tol <= 0 selects DefaultTolerance.
func NewColumnVerifier(m grid.Mesh, steps int, tol float64, first uint64, n int) *ColumnVerifier {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	return &ColumnVerifier{
		size: m.Size(), steps: steps, tol: tol,
		first: first, n: uint64(n), seen: make([]uint64, (n+63)/64),
	}
}

// Check verifies every particle of s in place. Particles of one batch
// share K, M, Dir and Born, so each run of alike particles works out its
// closed form once (closedRun); a particle the run does not pass goes to
// verifyParticle, which decides and words the error.
func (v *ColumnVerifier) Check(s *SoA) error {
	n := len(s.X)
	ys, vxs, vys, meta := s.Y[:n], s.VX[:n], s.VY[:n], s.Meta[:n]
	var run closedRun
	for i, x := range s.X {
		m := &meta[i]
		if i == 0 || m.K != run.k || m.M != run.m || m.Dir != run.dir || m.Born != run.born {
			run = newClosedRun(m, v.steps, v.size)
		}
		if !run.passes(m, x, ys[i], vxs[i], vys[i], v.size, v.tol) {
			if err := verifyParticle(m, x, ys[i], vxs[i], vys[i], v.steps, v.size, v.tol); err != nil {
				return err
			}
		}
		k := m.ID - v.first // wraps to a huge value when ID < first
		if k >= v.n {
			return fmt.Errorf("core: particle ID %d outside the run's range [%d, %d)", m.ID, v.first, v.first+v.n)
		}
		if v.seen[k>>6]&(1<<(k&63)) != 0 {
			return fmt.Errorf("core: duplicate particle ID %d", m.ID)
		}
		v.seen[k>>6] |= 1 << (k & 63)
		v.IDSum += m.ID
	}
	v.Count += n
	return nil
}

// closedRun is the closed form of a run of particles sharing K, M, Dir and
// Born: the expected velocities, and each axis's displacement reduced mod
// L in integers as particle.advance reduces it. From a start on the
// half-cell lattice inside [0, L), start plus remainder, less L past the
// edge, is the exact half-integer advance and grid.Wrap name, bit for bit.
// ok is unset where advance would not reduce (a displacement past its
// lattice bound of 2^50, a fractional L) or the run is born after the end.
type closedRun struct {
	k, m, dir, born  int32
	ok               bool
	rx, ry, evx, evy float64
}

func newClosedRun(m *SoAMeta, steps int, L float64) closedRun {
	c := closedRun{k: m.K, m: m.M, dir: m.Dir, born: m.Born, evy: float64(m.M)}
	s := steps - int(m.Born)
	dx := float64(m.Dir) * float64(2*int64(m.K)+1) * float64(s) // as particle.ClosedForm
	dy := float64(m.M) * float64(s)
	c.ok = s >= 0 && L >= 1 && L < 1<<50 && L == math.Trunc(L) && math.Abs(dx) < 1<<50 && math.Abs(dy) < 1<<50
	if c.ok {
		l := int64(L) // int64, not int: a 32-bit int cannot hold d
		c.rx, c.ry = float64((int64(dx)%l+l)%l), float64((int64(dy)%l+l)%l)
	}
	if s%2 == 1 {
		c.evx = float64(m.Dir) * 2 * float64(2*m.K+1) // as verifyParticle
	}
	return c
}

// passes reports whether a particle of the run is at (x, y) with velocity
// (vx, vy) by verifyParticle's comparisons, when both its starts are on the
// lattice; false means only "ask verifyParticle".
func (c *closedRun) passes(m *SoAMeta, x, y, vx, vy, L, tol float64) bool {
	onLattice := func(v0 float64) bool { return v0 >= 0 && v0 < L && v0-float64(int64(v0)) == 0.5 }
	if !c.ok || !onLattice(m.X0) || !onLattice(m.Y0) {
		return false
	}
	ex, ey := m.X0+c.rx, m.Y0+c.ry
	if ex >= L {
		ex -= L
	}
	if ey >= L {
		ey -= L
	}
	return periodicDist(x, ex, L) <= tol && periodicDist(y, ey, L) <= tol &&
		math.Abs(vy-c.evy) <= tol && math.Abs(vx-c.evx) <= tol
}

func periodicDist(a, b, L float64) float64 {
	d := math.Abs(a - b)
	if d > L/2 {
		d = L - d
	}
	return d
}

// Population is the analytically-predicted particle population after a run.
type Population struct {
	// Count is the number of surviving particles.
	Count int
	// IDSum is the sum of surviving particle IDs. With no removal events and
	// n particles (initial + injected) it equals n·(n+1)/2, the checksum of
	// paper §III-D.
	IDSum uint64
	// RemovedIDs lists particles deleted by removal events, ascending.
	RemovedIDs []uint64
}

// ExpectedPopulation computes, without running the simulation, the surviving
// particle population after steps time steps under the given initialization
// and event schedule, replaying the events the run fires (Schedule.Fired).
// Every particle ever created is counted into the arithmetic series over
// its IDs — paper §III-D's n·(n+1)/2 from FirstID 1 — and the removed ones
// are taken out again. Which particles a removal event deletes is decided
// per start cell, not per particle: a batch (the initial population, or one
// injection) places its particles on cell centres with shared K, M, Dir and
// Born, so everything starting in one cell meets the same fate (see fates).
// A column of the initial population that no removal reaches is stepped
// over without drawing its placements, so is an injection no later removal
// reaches; every other particle costs its placement draws and one lookup.
func ExpectedPopulation(cfg dist.Config, sched dist.Schedule, steps int) (Population, error) {
	plan, err := dist.NewPlan(cfg)
	if err != nil {
		return Population{}, err
	}
	evs := sched.Fired(steps)
	var f fates
	var pop Population
	drop := func(cx, cy int, id uint64) {
		if f.removed(cx, cy) {
			pop.RemovedIDs = append(pop.RemovedIDs, id)
		}
	}
	L := cfg.Mesh.L
	b := cfg.Initial()
	f.build(cfg.Mesh, &b, evs, dist.Rect{X1: L, Y1: L})
	plan.Columns(f.reached, func(c *dist.Column) {
		for k, row := range c.Rows {
			drop(c.X, int(row), c.First+uint64(k))
		}
	})
	first, nextID := cfg.IDRange()
	for i, ev := range evs {
		// An event removes before it injects, so its own removal cannot
		// reach the particles it adds.
		b := cfg.Injection(ev)
		if ev.Inject > 0 && f.build(cfg.Mesh, &b, evs[i+1:], ev.Region) {
			dist.EachInjected(ev, cfg.Seed, nextID, drop)
		}
		nextID += uint64(ev.Inject)
	}
	n := nextID - first
	pop.Count = int(n) - len(pop.RemovedIDs)
	pop.IDSum = n*first + n*(n-1)/2
	for _, id := range pop.RemovedIDs {
		pop.IDSum -= id
	}
	return pop, nil
}

// fates is the removal fate of one batch of particles per start cell of a
// window of the mesh. The closed form moves x and y independently and a
// removal region is a rectangle of cells, so a cell's particles are removed
// iff some later removal event reaches both the cell's column and its row.
// Columns that the same events reach share one table of row fates: the
// tables cost O(window height) per run of alike columns, never one entry
// per cell of the whole mesh.
type fates struct {
	x0, y0, h int
	class     []int32 // per window column: its row table, −1 if nothing starting there is removed
	rows      []bool  // the row tables, h apiece
	reach     []bool  // per removal event, whether it reaches each window row, h apiece
	set, prev []int   // the removal events reaching the current and the previous column
}

// build fills f for the particles of batch b (their K, M, Dir and Born)
// starting in window, against the events evs (only removals count). It
// reports whether any particle of the batch is removed.
func (f *fates) build(m grid.Mesh, b *dist.Batch, evs dist.Schedule, window dist.Rect) bool {
	w, h := max(window.X1-window.X0, 0), max(window.Y1-window.Y0, 0)
	f.x0, f.y0, f.h = window.X0, window.Y0, h
	f.class, f.rows, f.reach = slices.Grow(f.class[:0], w)[:w], f.rows[:0], f.reach[:0]
	// cell is where the particle starting in (cx, cy) sits when ev fires —
	// the closed form and the cell rule of Rect.ContainsPos, as the
	// engine's removal sees it.
	cell := func(ev dist.Event, cx, cy int) (int, int) {
		x, y := particle.ClosedForm(dist.Center(cx), dist.Center(cy), b.K, b.M, b.Dir, ev.Step-int(b.Born), m.Size())
		return m.CellOf(x, y)
	}
	for _, ev := range evs {
		if ev.Remove {
			for r := range h {
				_, cy := cell(ev, window.X0, window.Y0+r)
				f.reach = append(f.reach, cy >= ev.Region.Y0 && cy < ev.Region.Y1)
			}
		}
	}
	removed, class := false, int32(-1)
	for c := range w {
		f.set = f.set[:0]
		k := 0
		for _, ev := range evs {
			if !ev.Remove {
				continue
			}
			if cx, _ := cell(ev, window.X0+c, window.Y0); cx >= ev.Region.X0 && cx < ev.Region.X1 {
				f.set = append(f.set, k)
			}
			k++
		}
		if c == 0 || !slices.Equal(f.set, f.prev) {
			class = f.table()
			f.set, f.prev = f.prev, f.set
		}
		f.class[c] = class
		removed = removed || class >= 0
	}
	return removed
}

// table appends the row table of the events in f.set and returns its
// index, or −1, appending nothing, when those events reach no window row.
func (f *fates) table() int32 {
	base := len(f.rows)
	f.rows = append(f.rows, make([]bool, f.h)...)
	t, hit := f.rows[base:], false
	for _, k := range f.set {
		for r, in := range f.reach[k*f.h : (k+1)*f.h] {
			if in {
				t[r], hit = true, true
			}
		}
	}
	if !hit {
		f.rows = f.rows[:base]
		return -1
	}
	return int32(base / f.h)
}

// reached reports whether a removal reaches any particle starting in window
// column cx: dist.Plan.Columns' column filter.
func (f *fates) reached(cx int) bool { return f.class[cx-f.x0] >= 0 }

// removed reports whether the particles starting in window cell (cx, cy)
// are removed.
func (f *fates) removed(cx, cy int) bool {
	c := f.class[cx-f.x0]
	return c >= 0 && f.rows[int(c)*f.h+cy-f.y0]
}

// NewRunVerifier prepares the ColumnVerifier for the final state of a run
// of steps steps from cfg under sched: its ID range covers the initial
// population and every injection the run fires.
func NewRunVerifier(cfg dist.Config, sched dist.Schedule, steps int, tol float64) *ColumnVerifier {
	first, next := cfg.IDRange()
	return NewColumnVerifier(cfg.Mesh, steps, tol, first, int(next-first)+sched.Fired(steps).TotalInjected())
}

// VerifyPopulation checks a run's surviving population, count particles
// whose IDs sum to idSum, against ExpectedPopulation: the count catches a
// lost particle, the checksum an ID that no single container can see is
// wrong.
func VerifyPopulation(cfg dist.Config, sched dist.Schedule, steps, count int, idSum uint64) error {
	pop, err := ExpectedPopulation(cfg, sched, steps)
	if err != nil {
		return err
	}
	if count != pop.Count {
		return fmt.Errorf("core: global particle count %d, expected %d", count, pop.Count)
	}
	if idSum != pop.IDSum {
		return fmt.Errorf("core: global ID checksum %d, expected %d", idSum, pop.IDSum)
	}
	return nil
}
