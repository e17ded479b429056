package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
)

// This file is the AoS path the column path replaced, kept as the
// reference it is pinned to: the kernel (one particle at a time, four
// Charge calls through an interface, forceQQ for the arithmetic), which the
// kernel tests pin moveRange and the force lanes to, and the sequential
// simulation built on it, which TestSimulationMatchesAoSReference pins
// Simulation to.

// ChargeSource supplies the fixed charge at a global mesh point: the
// formulaic field (meshField) or a materialized *grid.Block, ghost ring
// included.
type ChargeSource interface {
	Charge(i, j int) float64
}

// meshField is the mesh's formulaic charge field as a ChargeSource.
type meshField grid.Mesh

func (m meshField) Charge(i, j int) float64 { return grid.Mesh(m).PointCharge(i, j) }

// Force computes the total Coulomb force exerted on a particle of charge q
// at position (x, y) inside cell (cx, cy) by the four fixed charges at the
// cell's corners (forceQQ).
func Force(src ChargeSource, q, x, y float64, cx, cy int) (fx, fy float64) {
	relx := x - float64(cx)
	rely := y - float64(cy)
	return forceQQ(q*src.Charge(cx, cy), q*src.Charge(cx+1, cy), q*src.Charge(cx, cy+1), q*src.Charge(cx+1, cy+1),
		relx, rely)
}

// Move advances one particle by one time step of length dt = 1 using the
// paper's update (eqs. 1–2):
//
//	x(t+dt) = x(t) + v·dt + a·dt²/2
//	v(t+dt) = v(t) + a·dt
//
// with a = F_total (the PRK sets ke/m = 1). Positions wrap periodically.
// Move returns the cell the particle landed in.
func Move(p *particle.Particle, src ChargeSource, m grid.Mesh) (cx, cy int) {
	ocx, ocy := m.CellOf(p.X, p.Y)
	ax, ay := Force(src, p.Q, p.X, p.Y, ocx, ocy)
	p.X = m.WrapCoord(p.X + p.VX + 0.5*ax)
	p.Y = m.WrapCoord(p.Y + p.VY + 0.5*ay)
	p.VX += ax
	p.VY += ay
	return m.CellOf(p.X, p.Y)
}

// MoveAll advances every particle in ps by one step against the same charge
// source.
func MoveAll(ps []particle.Particle, src ChargeSource, m grid.Mesh) {
	for i := range ps {
		Move(&ps[i], src, m)
	}
}

// aosInject is the particles one event adds, placed as the AoS injection
// placed them: one RNG stream per event, a uniform cell of the region per
// particle, the cell centre, and the charge of paper eq. 3 signed by the
// column's parity and dir.
func aosInject(m grid.Mesh, ev dist.Event, seed, firstID uint64, dir int) []particle.Particle {
	rng := dist.NewRNG(seed, 0x696e6a, uint64(ev.Step))
	mag := float64(2*ev.K+1) * dist.BaseCharge(m.Q, 0.5)
	w, h := ev.Region.X1-ev.Region.X0, ev.Region.Y1-ev.Region.Y0
	var ps []particle.Particle
	for i := range ev.Inject {
		cx := ev.Region.X0 + rng.Intn(w)
		cy := ev.Region.Y0 + rng.Intn(h)
		x, y := float64(cx)+0.5, float64(cy)+0.5
		ps = append(ps, particle.Particle{
			ID: firstID + uint64(i), X: x, Y: y, VY: float64(ev.M),
			Q:  float64(dir*m.ColumnSign(cx)) * mag,
			X0: x, Y0: y, K: int32(ev.K), M: int32(ev.M), Dir: int32(dir), Born: int32(ev.Step),
		})
	}
	return ps
}

// cellOrder sorts ps by the key Fill and an injection order a container
// by: the particle's cell column, then its row, ties in ID order.
func cellOrder(m grid.Mesh, ps []particle.Particle) {
	slices.SortFunc(ps, func(a, b particle.Particle) int {
		ax, ay := m.CellOf(a.X, a.Y)
		bx, by := m.CellOf(b.X, b.Y)
		return cmp.Or(cmp.Compare(ax, bx), cmp.Compare(ay, by), cmp.Compare(a.ID, b.ID))
	})
}

// aosSim is the sequential simulation as it stood on the AoS kernel: the
// initial population as dist.Initialize builds it, MoveAll against the
// formulaic mesh field, removal by filtering the slice, injection by
// appending aosInject's particles. The initial population and each
// injection's particles are put in cell order (cellOrder) first, the one
// order Simulation's container differs by.
type aosSim struct {
	mesh   grid.Mesh
	ps     []particle.Particle
	sched  dist.Schedule
	seed   uint64
	dir    int
	step   int
	nextID uint64
}

func newAoSSim(t *testing.T, cfg dist.Config, sched dist.Schedule) *aosSim {
	t.Helper()
	ps, err := dist.Initialize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := cfg.Dir
	if dir == 0 {
		dir = 1
	}
	_, next := cfg.IDRange()
	cellOrder(cfg.Mesh, ps)
	return &aosSim{mesh: cfg.Mesh, ps: ps, sched: sched.Sorted(), seed: cfg.Seed, dir: dir, nextID: next}
}

func (s *aosSim) Step() {
	MoveAll(s.ps, meshField(s.mesh), s.mesh)
	s.step++
	for _, ev := range s.sched.At(s.step) {
		if ev.Remove {
			kept := s.ps[:0]
			for _, p := range s.ps {
				if !ev.Region.ContainsPos(p.X, p.Y, s.mesh) {
					kept = append(kept, p)
				}
			}
			s.ps = kept
		}
		if ev.Inject > 0 {
			in := aosInject(s.mesh, ev, s.seed, s.nextID, s.dir)
			cellOrder(s.mesh, in)
			s.ps = append(s.ps, in...)
			s.nextID += uint64(ev.Inject)
		}
	}
}

// TestSimulationMatchesAoSReference pins Simulation — the ranks' fill,
// move loop and event code at one owner — to the AoS simulation, bit for
// bit and slot by slot (the reference's initial population and injections
// put in cell order by cellOrder), after every step: both drift
// directions, K > 0, M < 0, skewed, patch and smooth inputs, a non-default
// FirstID, and a removal and an injection at the same step, mid-run and at
// the last step. The identity
// matrix compares the ranks with Simulation, so this is what keeps that
// comparison anchored to a path the ranks do not share.
func TestSimulationMatchesAoSReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   dist.Config
		sched dist.Schedule
		steps int
	}{
		{"geometric K2 M-3 dir-1", dist.Config{Mesh: mesh(t, 32), N: 3000, K: 2, M: -3, Dir: -1, Dist: dist.Geometric{R: 0.9}, Seed: 7},
			dist.Schedule{
				{Step: 5, Region: dist.Rect{X0: 0, X1: 16, Y0: 0, Y1: 32}, Remove: true},
				{Step: 5, Region: dist.Rect{X0: 8, X1: 24, Y0: 4, Y1: 20}, Inject: 400, K: 1, M: 2},
				{Step: 9, Region: dist.Rect{X0: 0, X1: 32, Y0: 0, Y1: 32}, Inject: 200, M: -1},
				{Step: 14, Region: dist.Rect{X0: 10, X1: 20, Y0: 0, Y1: 32}, Remove: true},
				{Step: 14, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 8}, Inject: 150, K: 3, M: 1},
			}, 14},
		{"patch K0 M1 FirstID", dist.Config{Mesh: mesh(t, 24), N: 1500, M: 1, Dist: dist.Patch{X0: 3, X1: 15, Y0: 5, Y1: 17}, Seed: 3, FirstID: 100},
			dist.Schedule{
				{Step: 3, Region: dist.Rect{X0: 0, X1: 24, Y0: 0, Y1: 12}, Remove: true, Inject: 100, K: 1},
				{Step: 10, Region: dist.Rect{X0: 6, X1: 18, Y0: 6, Y1: 18}, Remove: true, Inject: 80, M: -2},
			}, 10},
		{"sinusoidal K1", dist.Config{Mesh: mesh(t, 16), N: 800, K: 1, Dir: 1, Dist: dist.Sinusoidal{}, Seed: 11}, nil, 20},
	} {
		sim, err := NewSimulation(tc.cfg, tc.sched)
		if err != nil {
			t.Fatal(err)
		}
		ref := newAoSSim(t, tc.cfg, tc.sched)
		assertSameState(t, tc.name+" initial", sim.Particles, ref.ps)
		for step := 1; step <= tc.steps; step++ {
			sim.Step()
			ref.Step()
			assertSameState(t, fmt.Sprintf("%s step %d", tc.name, step), sim.Particles, ref.ps)
		}
		if err := sim.Verify(0); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// assertSameState fails unless s holds ps, bit for bit and in order.
func assertSameState(t *testing.T, label string, s *SoA, ps []particle.Particle) {
	t.Helper()
	if s.Len() != len(ps) {
		t.Fatalf("%s: %d particles, the AoS reference %d", label, s.Len(), len(ps))
	}
	bits := func(p particle.Particle) [12]uint64 {
		f := math.Float64bits
		return [12]uint64{p.ID, f(p.X), f(p.Y), f(p.VX), f(p.VY), f(p.Q), f(p.X0), f(p.Y0),
			uint64(p.K), uint64(p.M), uint64(p.Dir), uint64(p.Born)}
	}
	for i, want := range ps {
		if got := s.At(i); bits(got) != bits(want) {
			t.Fatalf("%s: particle %d is %+v, the AoS reference %+v", label, i, got, want)
		}
	}
}
