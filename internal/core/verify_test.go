package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/particle"
)

// legacyExpectedPopulation is ExpectedPopulation as it stood before the
// streaming replay — materialize the world, filter it per removal, append
// each injection, then diff a map against the ID range — kept here so the
// reference cannot drift with the code it pins. The one deliberate change:
// the ID range starts at the configured FirstID instead of a hard-coded 1.
func legacyExpectedPopulation(t *testing.T, cfg dist.Config, sched dist.Schedule, steps int) Population {
	t.Helper()
	ps, err := dist.Initialize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := cfg.Dir
	if dir == 0 {
		dir = 1
	}
	firstID := cfg.FirstID
	if firstID == 0 {
		firstID = 1
	}
	nextID := firstID + uint64(cfg.N)
	L := cfg.Mesh.Size()
	for _, ev := range sched.Sorted() {
		if ev.Step > steps {
			break
		}
		if ev.Remove {
			kept := ps[:0]
			for i := range ps {
				p := &ps[i]
				x, y := p.ExpectedAt(ev.Step-int(p.Born), L)
				if !ev.Region.ContainsPos(x, y, cfg.Mesh) {
					kept = append(kept, *p)
				}
			}
			ps = kept
		}
		if ev.Inject > 0 {
			ps = append(ps, dist.InjectParticles(cfg.Mesh, ev, cfg.Seed, nextID, dir)...)
			nextID += uint64(ev.Inject)
		}
	}
	pop := Population{Count: len(ps)}
	alive := make(map[uint64]bool, len(ps))
	for i := range ps {
		pop.IDSum += ps[i].ID
		alive[ps[i].ID] = true
	}
	for id := firstID; id < nextID; id++ {
		if !alive[id] {
			pop.RemovedIDs = append(pop.RemovedIDs, id)
		}
	}
	return pop
}

// TestExpectedPopulationMatchesLegacy replays random schedules — same-step
// remove+inject, removal of previously injected particles, events past the
// last step, a non-default FirstID — through both forms.
func TestExpectedPopulationMatchesLegacy(t *testing.T) {
	const L, steps = 16, 12
	m := mesh(t, L)
	rect := func(rng *rand.Rand) dist.Rect {
		x0, y0 := rng.Intn(L-1), rng.Intn(L-1)
		return dist.Rect{X0: x0, X1: x0 + 1 + rng.Intn(L-x0), Y0: y0, Y1: y0 + 1 + rng.Intn(L-y0)}
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := dist.Config{
			Mesh: m, N: 200 + rng.Intn(400), K: rng.Intn(3), M: rng.Intn(5) - 2,
			Dir: 1 - 2*rng.Intn(2), Dist: dist.Geometric{R: 0.9}, Seed: uint64(seed),
		}
		if seed%4 == 3 {
			cfg.FirstID = 1000
		}
		var sched dist.Schedule
		for n := rng.Intn(7); n > 0; n-- {
			ev := dist.Event{Step: rng.Intn(steps + 4), Region: rect(rng), K: rng.Intn(2), M: rng.Intn(3) - 1}
			switch rng.Intn(3) {
			case 0:
				ev.Remove = true
			case 1:
				ev.Inject = 1 + rng.Intn(150)
			default:
				ev.Remove, ev.Inject = true, 1+rng.Intn(150)
			}
			sched = append(sched, ev)
		}
		want := legacyExpectedPopulation(t, cfg, sched, steps)
		got, err := ExpectedPopulation(cfg, sched, steps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, schedule %+v:\nstreaming %d survivors sum %d, %d removed\nlegacy    %d survivors sum %d, %d removed",
				seed, sched, got.Count, got.IDSum, len(got.RemovedIDs), want.Count, want.IDSum, len(want.RemovedIDs))
		}
	}
}

// TestExpectedPopulationClosedForm pins the removal-free branch: the count
// and arithmetic-series checksum equal the replayed ones, a removal past the
// last step does not leave the branch, and an invalid config still errors.
func TestExpectedPopulationClosedForm(t *testing.T) {
	m := mesh(t, 16)
	sched := dist.Schedule{
		{Step: 3, Region: dist.Rect{X0: 2, X1: 9, Y0: 1, Y1: 5}, Inject: 70, K: 1},
		{Step: 9, Region: dist.Rect{X0: 0, X1: 16, Y0: 0, Y1: 16}, Inject: 31},
		{Step: 11, Region: dist.Rect{X0: 0, X1: 16, Y0: 0, Y1: 16}, Remove: true},
		{Step: 12, Region: dist.Rect{X0: 0, X1: 4, Y0: 0, Y1: 4}, Inject: 1000},
	}
	for _, first := range []uint64{0, 1, 77} {
		cfg := dist.Config{Mesh: m, N: 500, Dist: dist.Sinusoidal{}, Seed: 4, FirstID: first}
		for _, steps := range []int{0, 2, 3, 10} {
			want := legacyExpectedPopulation(t, cfg, sched, steps)
			got, err := ExpectedPopulation(cfg, sched, steps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("FirstID=%d steps=%d: closed form %+v, replay %+v", first, steps, got, want)
			}
		}
	}
	pop, err := ExpectedPopulation(dist.Config{Mesh: m, N: 500, Seed: 4}, nil, 10)
	if err != nil || pop.Count != 500 || pop.IDSum != 500*501/2 {
		t.Fatalf("no schedule: %+v, %v; want 500 particles, checksum n(n+1)/2", pop, err)
	}
	if _, err := ExpectedPopulation(dist.Config{Mesh: m, N: -1}, nil, 10); err == nil {
		t.Fatal("negative N accepted by the closed-form branch")
	}
	if _, err := ExpectedPopulation(dist.Config{Mesh: m, N: 10, Dist: dist.Patch{}}, nil, 10); err == nil {
		t.Fatal("all-zero weights accepted by the closed-form branch")
	}
}

// TestInjectedIDsFollowFirstID runs the sequential simulation with a
// non-default FirstID: injected particles continue that sequence and the
// run verifies against ExpectedPopulation.
func TestInjectedIDsFollowFirstID(t *testing.T) {
	m := mesh(t, 16)
	cfg := dist.Config{Mesh: m, N: 300, Dist: dist.Uniform{}, Seed: 2, FirstID: 1000}
	sched := dist.Schedule{
		{Step: 2, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 8}, Inject: 40},
		{Step: 4, Region: dist.Rect{X0: 4, X1: 12, Y0: 0, Y1: 16}, Remove: true},
	}
	sim, err := NewSimulation(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(6)
	if sim.NextID() != 1340 {
		t.Fatalf("next ID %d after 300 initial + 40 injected from 1000, want 1340", sim.NextID())
	}
	for _, p := range sim.Particles {
		if p.ID < 1000 || p.ID >= 1340 {
			t.Fatalf("particle ID %d outside [1000, 1340)", p.ID)
		}
	}
	if err := sim.Verify(0); err != nil {
		t.Fatal(err)
	}
}

// TestColumnVerifierRejectsWhatVerifyPositionsRejects perturbs one field at
// a time: the columnar check and VerifyPositions must agree on every case,
// error text included, and the clean state must pass both.
func TestColumnVerifierRejectsWhatVerifyPositionsRejects(t *testing.T) {
	m := mesh(t, 16)
	const steps = 5
	sim, err := NewSimulation(dist.Config{Mesh: m, N: 400, K: 1, M: -1, Seed: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(steps)
	clean := sim.Particles
	for _, tc := range []struct {
		name    string
		perturb func(p *particle.Particle)
	}{
		{"clean", func(*particle.Particle) {}},
		{"x", func(p *particle.Particle) { p.X += 1e-3 }},
		{"y", func(p *particle.Particle) { p.Y -= 1e-3 }},
		{"vx", func(p *particle.Particle) { p.VX += 1e-3 }},
		{"vy", func(p *particle.Particle) { p.VY += 1e-3 }},
		{"born", func(p *particle.Particle) { p.Born = steps + 1 }},
	} {
		ps := append([]particle.Particle(nil), clean...)
		tc.perturb(&ps[137])
		want := VerifyPositions(m, ps, steps, DefaultTolerance)
		v := NewColumnVerifier(m, steps, 0, 1, len(ps))
		got := v.Check(NewSoA(ps))
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("%s: columnar check says %v, VerifyPositions says %v", tc.name, got, want)
		}
		if (tc.name == "clean") != (got == nil) {
			t.Errorf("%s: columnar check returned %v", tc.name, got)
		}
		if got == nil && (v.Count != len(ps) || v.IDSum != particle.IDSum(ps)) {
			t.Errorf("%s: count %d sum %d, want %d and %d", tc.name, v.Count, v.IDSum, len(ps), particle.IDSum(ps))
		}
	}
}

// TestColumnVerifierRejectsBadIDs covers what the bitset adds: duplicates
// (within one container and across two checked by the same verifier), ID 0,
// and IDs past the range the run can mint.
func TestColumnVerifierRejectsBadIDs(t *testing.T) {
	m := mesh(t, 16)
	ps, err := dist.Initialize(dist.Config{Mesh: m, N: 130, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	check := func(edit func(ps []particle.Particle), containers int) error {
		c := append([]particle.Particle(nil), ps...)
		edit(c)
		v := NewColumnVerifier(m, 0, 0, 1, len(c))
		per := (len(c) + containers - 1) / containers
		for lo := 0; lo < len(c); lo += per {
			if err := v.Check(NewSoA(c[lo:min(lo+per, len(c))])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(func([]particle.Particle) {}, 3); err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		edit       func(ps []particle.Particle)
		containers int
	}{
		{"duplicate in one container", "duplicate particle ID 7", func(ps []particle.Particle) { ps[100].ID = 7 }, 1},
		{"duplicate across containers", "duplicate particle ID 7", func(ps []particle.Particle) { ps[100].ID = 7 }, 3},
		{"zero", "ID 0 outside", func(ps []particle.Particle) { ps[5].ID = 0 }, 1},
		{"one past the range", "ID 131 outside", func(ps []particle.Particle) { ps[5].ID = 131 }, 1},
		{"huge", "outside", func(ps []particle.Particle) { ps[5].ID = 1 << 63 }, 1},
	} {
		err := check(tc.edit, tc.containers)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
