package core

import (
	"fmt"
	"math"
	"sort"

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
// these conditions.
func VerifyPositions(m grid.Mesh, ps []particle.Particle, steps int, tol float64) error {
	L := m.Size()
	for i := range ps {
		if err := verifyParticle(&ps[i], steps, L, tol); err != nil {
			return err
		}
	}
	return nil
}

// verifyParticle is the per-particle rule of VerifyPositions.
func verifyParticle(p *particle.Particle, steps int, L, tol float64) error {
	s := steps - int(p.Born)
	if s < 0 {
		return fmt.Errorf("core: particle %d born at step %d but run is only %d steps", p.ID, p.Born, steps)
	}
	ex, ey := p.ExpectedAt(s, L)
	if d := periodicDist(p.X, ex, L); d > tol {
		return fmt.Errorf("core: particle %d x=%v, expected %v after %d steps (|err|=%.3e)", p.ID, p.X, ex, s, d)
	}
	if d := periodicDist(p.Y, ey, L); d > tol {
		return fmt.Errorf("core: particle %d y=%v, expected %v after %d steps (|err|=%.3e)", p.ID, p.Y, ey, s, d)
	}
	if d := math.Abs(p.VY - float64(p.M)); d > tol {
		return fmt.Errorf("core: particle %d vy=%v, expected %d (|err|=%.3e)", p.ID, p.VY, p.M, d)
	}
	var evx float64
	if s%2 == 1 {
		evx = float64(p.Dir) * 2 * float64(2*p.K+1)
	}
	if d := math.Abs(p.VX - evx); d > tol {
		return fmt.Errorf("core: particle %d vx=%v, expected %v after %d steps (|err|=%.3e)", p.ID, p.VX, evx, s, d)
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

// Check verifies every particle of s in place.
func (v *ColumnVerifier) Check(s *SoA) error {
	for i := range s.X {
		p := s.At(i)
		if err := verifyParticle(&p, v.steps, v.size, v.tol); err != nil {
			return err
		}
		k := p.ID - v.first // wraps to a huge value when ID < first
		if k >= v.n {
			return fmt.Errorf("core: particle ID %d outside the run's range [%d, %d)", p.ID, v.first, v.first+v.n)
		}
		if v.seen[k>>6]&(1<<(k&63)) != 0 {
			return fmt.Errorf("core: duplicate particle ID %d", p.ID)
		}
		v.seen[k>>6] |= 1 << (k & 63)
		v.IDSum += p.ID
	}
	v.Count += s.Len()
	return nil
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
// and event schedule. With no removal event in range every particle ever
// created survives, and the count and ID sum are the arithmetic series over
// [FirstID, FirstID+n) — paper §III-D's n·(n+1)/2. Otherwise it replays the
// schedule against the placement stream, one particle at a time in O(1)
// memory: a removal event at step t deletes a particle whose closed-form
// position at t falls inside the region, and only the events after the one
// that created a particle can touch it.
func ExpectedPopulation(cfg dist.Config, sched dist.Schedule, steps int) (Population, error) {
	var evs dist.Schedule
	for _, ev := range sched.Sorted() {
		if ev.Step <= steps {
			evs = append(evs, ev)
		}
	}
	first, nextID := cfg.IDRange()
	if !hasRemoval(evs, steps) {
		// Validation only: no column wanted, nothing drawn.
		if err := dist.Each(cfg, func(int) bool { return false }, nil); err != nil {
			return Population{}, err
		}
		n := uint64(cfg.N + evs.TotalInjected())
		return Population{Count: int(n), IDSum: n*first + n*(n-1)/2}, nil
	}
	var pop Population
	L := cfg.Mesh.Size()
	// tally books one particle as removed or surviving, replaying the
	// removal events from index from on.
	tally := func(from int) func(cx, cy int, p *particle.Particle) {
		return func(_, _ int, p *particle.Particle) {
			for _, ev := range evs[from:] {
				if !ev.Remove {
					continue
				}
				x, y := p.ExpectedAt(ev.Step-int(p.Born), L)
				if ev.Region.ContainsPos(x, y, cfg.Mesh) {
					pop.RemovedIDs = append(pop.RemovedIDs, p.ID)
					return
				}
			}
			pop.Count++
			pop.IDSum += p.ID
		}
	}
	if err := dist.Each(cfg, nil, tally(0)); err != nil {
		return Population{}, err
	}
	for i, ev := range evs {
		// An event removes before it injects, so its own removal cannot
		// reach the particles it adds.
		dist.EachInjected(cfg.Mesh, ev, cfg.Seed, nextID, cfg.Dir, tally(i+1))
		nextID += uint64(ev.Inject)
	}
	return pop, nil
}

// Verify is the full verification of a gathered final population — used by
// the sequential simulation and by parallel drivers under cfg.Verify —
// against the initialization config and schedule that produced it:
// per-particle positions and velocities against the closed-form solution,
// no duplicate IDs, and the population count and ID checksum against the
// analytic prediction.
func Verify(cfg dist.Config, sched dist.Schedule, ps []particle.Particle, steps int, tol float64) error {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	if err := VerifyPositions(cfg.Mesh, ps, steps, tol); err != nil {
		return err
	}
	ids := make([]uint64, len(ps))
	for i := range ps {
		ids[i] = ps[i].ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return fmt.Errorf("core: duplicate particle ID %d", ids[i])
		}
	}
	// Population check. Note: for trajectory-params verification above, the
	// per-particle data is intrinsic; the population prediction additionally
	// requires the distribution to regenerate removed/injected sets. When
	// the caller does not know the distribution (cfg.Dist nil is fine: the
	// checksum depends only on which IDs survive), removal events make the
	// prediction placement-dependent, so require the distribution then.
	if cfg.Dist == nil && hasRemoval(sched, steps) {
		return fmt.Errorf("core: verification with removal events requires cfg.Dist")
	}
	pop, err := ExpectedPopulation(cfg, sched, steps)
	if err != nil {
		return err
	}
	if len(ps) != pop.Count {
		return fmt.Errorf("core: particle count %d, expected %d", len(ps), pop.Count)
	}
	if got := particle.IDSum(ps); got != pop.IDSum {
		return fmt.Errorf("core: ID checksum %d, expected %d", got, pop.IDSum)
	}
	return nil
}

func hasRemoval(sched dist.Schedule, steps int) bool {
	for _, ev := range sched {
		if ev.Remove && ev.Step <= steps {
			return true
		}
	}
	return false
}
