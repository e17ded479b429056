package core

import (
	"fmt"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
)

// Simulation is the sequential reference implementation of the PIC PRK.
// Parallel drivers must produce bitwise-identical particle states, which
// the test suite asserts.
type Simulation struct {
	Mesh      grid.Mesh
	Particles []particle.Particle
	Schedule  dist.Schedule
	// Seed and Dir are needed to materialize injection events exactly as
	// every parallel rank does.
	Seed uint64
	Dir  int

	cfg    dist.Config
	step   int
	nextID uint64
	// Removed accumulates the IDs of particles deleted by removal events,
	// for checksum accounting.
	Removed []uint64
}

// NewSimulation builds a sequential simulation from an initialization
// config and an event schedule. The returned simulation owns its particle
// slice.
func NewSimulation(cfg dist.Config, sched dist.Schedule) (*Simulation, error) {
	if err := sched.Validate(cfg.Mesh); err != nil {
		return nil, err
	}
	ps, err := dist.Initialize(cfg)
	if err != nil {
		return nil, err
	}
	dir := cfg.Dir
	if dir == 0 {
		dir = 1
	}
	_, nextID := cfg.IDRange()
	return &Simulation{
		Mesh:      cfg.Mesh,
		Particles: ps,
		Schedule:  sched.Sorted(),
		Seed:      cfg.Seed,
		Dir:       dir,
		cfg:       cfg,
		nextID:    nextID,
	}, nil
}

// Step advances the simulation by one time step: every particle moves, then
// any events scheduled for the new step fire (removal before injection, so
// particles injected at step s are never removed by the same step's event).
func (s *Simulation) Step() {
	MoveAll(s.Particles, s.Mesh, s.Mesh)
	s.step++
	s.applyEvents(s.step)
}

// applyEvents fires all events scheduled at the given step.
func (s *Simulation) applyEvents(step int) {
	for _, ev := range s.Schedule.At(step) {
		if ev.Remove {
			kept := s.Particles[:0]
			for i := range s.Particles {
				p := &s.Particles[i]
				if ev.Region.ContainsPos(p.X, p.Y, s.Mesh) {
					s.Removed = append(s.Removed, p.ID)
				} else {
					kept = append(kept, *p)
				}
			}
			s.Particles = kept
		}
		if ev.Inject > 0 {
			inj := dist.InjectParticles(s.Mesh, ev, s.Seed, s.nextID, s.Dir)
			s.Particles = append(s.Particles, inj...)
			s.nextID += uint64(ev.Inject)
		}
	}
}

// Run advances the simulation by n steps.
func (s *Simulation) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Steps returns the number of steps taken so far.
func (s *Simulation) Steps() int { return s.step }

// NextID returns the next unassigned particle ID.
func (s *Simulation) NextID() uint64 { return s.nextID }

// Verify checks the final state against the closed-form solution; see
// the package-level Verify for the rules.
func (s *Simulation) Verify(tol float64) error {
	return Verify(s.cfg, s.Schedule, s.Particles, s.step, tol)
}

// String summarizes the simulation state.
func (s *Simulation) String() string {
	return fmt.Sprintf("sim{step=%d particles=%d removed=%d}", s.step, len(s.Particles), len(s.Removed))
}
