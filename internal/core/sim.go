package core

import (
	"fmt"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
)

// Simulation is the sequential reference of the PIC PRK: the column path
// every rank runs — Fill, MovePool.Move, Events.Fire — at one owner that
// holds the whole mesh. Parallel runs must produce its particle states bit
// for bit, which the test suite asserts; the closed form and the ID
// checksum (Verify) are the oracle independent of that path.
type Simulation struct {
	// Particles is the population: the one owner's container.
	Particles *SoA

	cfg    dist.Config
	sched  dist.Schedule
	field  *grid.Block
	pool   *MovePool
	events Events
	step   int
}

// NewSimulation builds a sequential simulation from an initialization
// config and an event schedule.
func NewSimulation(cfg dist.Config, sched dist.Schedule) (*Simulation, error) {
	if err := sched.Validate(cfg.Mesh); err != nil {
		return nil, err
	}
	s := &Simulation{Particles: &SoA{}, cfg: cfg, sched: sched, pool: NewMovePool(1), events: NewEvents(cfg, sched)}
	L := cfg.Mesh.L
	whole := NewOwnerTable([]int{0, L}, []int{0, L})
	if err := Fill(cfg, whole, 1, func(int32) *SoA { return s.Particles }); err != nil {
		return nil, err
	}
	var err error
	if s.field, err = grid.NewBlock(cfg.Mesh, 0, 0, L, L); err != nil {
		return nil, err
	}
	return s, nil
}

// Step advances the simulation by one time step: every particle moves,
// then the events scheduled for the new step fire.
func (s *Simulation) Step() {
	s.pool.Move(s.Particles, s.field, s.cfg.Mesh)
	s.step++
	s.events.Fire(s.step, func(visit func(*SoA)) { visit(s.Particles) }, func(int, int) *SoA { return s.Particles })
}

// Run advances the simulation by n steps.
func (s *Simulation) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Steps returns the number of steps taken so far.
func (s *Simulation) Steps() int { return s.step }

// Verify checks the population by the rules every parallel run applies:
// the run's ColumnVerifier (closed-form positions and velocities, IDs
// unique and inside the run's range), then VerifyPopulation.
func (s *Simulation) Verify(tol float64) error {
	v := NewRunVerifier(s.cfg, s.sched, s.step, tol)
	if err := v.Check(s.Particles); err != nil {
		return err
	}
	return VerifyPopulation(s.cfg, s.sched, s.step, v.Count, v.IDSum)
}

// String summarizes the simulation state.
func (s *Simulation) String() string {
	return fmt.Sprintf("sim{step=%d particles=%d}", s.step, s.Particles.Len())
}
