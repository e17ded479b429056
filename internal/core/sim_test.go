package core

import (
	"slices"
	"strings"
	"testing"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/particle"
)

func newSim(t testing.TB, L, n, k, mv int, d dist.Distribution, sched dist.Schedule) *Simulation {
	t.Helper()
	sim, err := NewSimulation(dist.Config{
		Mesh: mesh(t, L), N: n, K: k, M: mv, Dist: d, Seed: 99,
	}, sched)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestSimulationRunAndVerify(t *testing.T) {
	sim := newSim(t, 32, 5000, 0, 1, dist.Geometric{R: 0.9}, nil)
	sim.Run(100)
	if sim.Steps() != 100 {
		t.Fatalf("steps %d", sim.Steps())
	}
	if err := sim.Verify(0); err != nil {
		t.Fatal(err)
	}
	if got := idSum(sim.Particles); got != 5000*5001/2 {
		t.Fatalf("checksum %d", got)
	}
}

func TestSimulationInjection(t *testing.T) {
	sched := dist.Schedule{
		{Step: 10, Region: dist.Rect{X0: 4, X1: 12, Y0: 4, Y1: 12}, Inject: 300, K: 1, M: 0},
	}
	sim := newSim(t, 16, 1000, 0, 0, dist.Uniform{}, sched)
	sim.Run(5)
	if sim.Particles.Len() != 1000 {
		t.Fatalf("before injection: %d", sim.Particles.Len())
	}
	sim.Run(10)
	if sim.Particles.Len() != 1300 {
		t.Fatalf("after injection: %d", sim.Particles.Len())
	}
	if sim.events.NextID != 1301 {
		t.Fatalf("nextID %d", sim.events.NextID)
	}
	sim.Run(15)
	if err := sim.Verify(0); err != nil {
		t.Fatal(err)
	}
}

func TestSimulationRemoval(t *testing.T) {
	sched := dist.Schedule{
		{Step: 7, Region: dist.Rect{X0: 0, X1: 16, Y0: 0, Y1: 8}, Remove: true},
	}
	// A nil distribution is the uniform one, and verifies the same way.
	for _, d := range []dist.Distribution{dist.Uniform{}, nil} {
		sim := newSim(t, 16, 2000, 0, 0, d, sched)
		sim.Run(20)
		if sim.Particles.Len() >= 2000 {
			t.Fatalf("%v: removal did not happen: %d", d, sim.Particles.Len())
		}
		if err := sim.Verify(0); err != nil {
			t.Fatalf("%v: %v", d, err)
		}
	}
}

func TestSimulationRemovalThenInjectionSameStep(t *testing.T) {
	// Removal fires before injection at the same step, so injected
	// particles survive even inside the removal region.
	region := dist.Rect{X0: 0, X1: 16, Y0: 0, Y1: 16}
	sched := dist.Schedule{
		{Step: 5, Region: region, Remove: true},
		{Step: 5, Region: region, Inject: 123},
	}
	sim := newSim(t, 16, 500, 0, 0, dist.Uniform{}, sched)
	sim.Run(5)
	if sim.Particles.Len() != 123 {
		t.Fatalf("expected only injected to survive, have %d", sim.Particles.Len())
	}
	sim.Run(10)
	if err := sim.Verify(0); err != nil {
		t.Fatal(err)
	}
}

func TestSimulationString(t *testing.T) {
	sim := newSim(t, 8, 10, 0, 0, nil, nil)
	if s := sim.String(); !strings.Contains(s, "particles=10") {
		t.Errorf("String() = %q", s)
	}
}

func TestExpectedPopulationMatchesSimulation(t *testing.T) {
	cfg := dist.Config{Mesh: mesh(t, 24), N: 3000, K: 1, M: -1, Dist: dist.Sinusoidal{}, Seed: 5}
	sched := dist.Schedule{
		{Step: 8, Region: dist.Rect{X0: 2, X1: 20, Y0: 2, Y1: 20}, Inject: 700, M: 2},
		{Step: 16, Region: dist.Rect{X0: 0, X1: 12, Y0: 0, Y1: 24}, Remove: true},
	}
	sim, err := NewSimulation(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	const T = 30
	sim.Run(T)
	pop, err := ExpectedPopulation(cfg, sched, T)
	if err != nil {
		t.Fatal(err)
	}
	if pop.Count != sim.Particles.Len() {
		t.Fatalf("predicted %d particles, simulation has %d", pop.Count, sim.Particles.Len())
	}
	if pop.IDSum != idSum(sim.Particles) {
		t.Fatalf("predicted checksum %d, simulation %d", pop.IDSum, idSum(sim.Particles))
	}
	// Removed IDs must agree too: every minted ID the simulation no longer
	// holds, ascending.
	alive := map[uint64]bool{}
	for _, m := range sim.Particles.Meta {
		alive[m.ID] = true
	}
	var removed []uint64
	for id := uint64(1); id < sim.events.NextID; id++ {
		if !alive[id] {
			removed = append(removed, id)
		}
	}
	if !slices.Equal(pop.RemovedIDs, removed) {
		t.Fatalf("predicted removals %v, simulation removed %v", pop.RemovedIDs, removed)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Simulation)
	}{
		{"position", func(s *Simulation) { s.Particles.X[7] += 1 }},
		{"velocity", func(s *Simulation) { s.Particles.VY[3] += 0.5 }},
		{"lost particle", func(s *Simulation) { s.Particles.Truncate(s.Particles.Len() - 1) }},
		{"duplicated particle", func(s *Simulation) { s.Particles.AppendFrom(s.Particles, 0) }},
		{"forged id", func(s *Simulation) { s.Particles.Meta[5].ID = 99999 }},
		// Count, checksum and uniqueness all still hold; the range does not.
		{"forged id pair", func(s *Simulation) {
			for i := range s.Particles.Meta {
				switch p := &s.Particles.Meta[i]; p.ID {
				case 1:
					p.ID = 0
				case 500:
					p.ID = 501
				}
			}
		}},
	}
	for _, m := range mutations {
		sim := newSim(t, 16, 500, 0, 1, dist.Geometric{R: 0.9}, nil)
		sim.Run(20)
		m.mut(sim)
		if err := sim.Verify(0); err == nil {
			t.Errorf("%s corruption not detected", m.name)
		}
	}
}

func TestVerifyPositionsBornAfterRun(t *testing.T) {
	ps := []particle.Particle{{ID: 1, Born: 10, Dir: 1}}
	if err := VerifyPositions(mesh(t, 8), ps, 5, 1e-6); err == nil {
		t.Error("future-born particle accepted")
	}
}

func TestScheduleValidationAtConstruction(t *testing.T) {
	_, err := NewSimulation(dist.Config{Mesh: mesh(t, 8), N: 10},
		dist.Schedule{{Step: -1, Inject: 5, Region: dist.Rect{X0: 0, X1: 4, Y0: 0, Y1: 4}}})
	if err == nil {
		t.Error("invalid schedule accepted")
	}
}

func BenchmarkSequentialStep(b *testing.B) {
	sim, err := NewSimulation(dist.Config{
		Mesh: mesh(b, 128), N: 100000, Dist: dist.Geometric{R: 0.99}, Seed: 1,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
	b.ReportMetric(float64(sim.Particles.Len()), "particles")
}

// idSum returns the sum of particle IDs, the lost-particle checksum of paper
// §III-D: n survivors with IDs 1..n sum to n(n+1)/2.
func idSum(s *SoA) uint64 {
	var sum uint64
	for _, m := range s.Meta {
		sum += m.ID
	}
	return sum
}
