package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/memtest"
	"github.com/parres/picprk/internal/particle"
)

// legacyExpectedPopulation is ExpectedPopulation as it stood before the
// streaming replay — materialize the world, filter it per removal, append
// each injection, then diff a map against the ID range — kept here so the
// reference cannot drift with the code it pins. Two deliberate changes: the
// ID range starts at the configured FirstID instead of a hard-coded 1, and
// an event before step 1 is skipped, as the engine never fires it.
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
		if ev.Step < 1 {
			continue
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
			ps = append(ps, aosInject(cfg.Mesh, ev, cfg.Seed, nextID, dir)...)
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

// TestExpectedPopulationMatchesLegacy replays random schedules through both
// forms, reaching every branch of the per-cell replay: Geometric, Patch and
// Uniform inputs (columns no removal reaches, and Patch's empty ones),
// removal regions of partial and full height, either direction, M < 0,
// K > 0 injections whose columns wrap past L, injections no later removal
// reaches, same-step remove+inject and several events at one step, removal
// of previously injected particles, events at step 0 and past the last
// step, and a non-default FirstID.
func TestExpectedPopulationMatchesLegacy(t *testing.T) {
	const L, steps = 16, 12
	m := mesh(t, L)
	rect := func(rng *rand.Rand) dist.Rect {
		x0, y0 := rng.Intn(L-1), rng.Intn(L-1)
		r := dist.Rect{X0: x0, X1: x0 + 1 + rng.Intn(L-x0), Y0: y0, Y1: y0 + 1 + rng.Intn(L-y0)}
		if rng.Intn(3) == 0 {
			r.Y0, r.Y1 = 0, L
		}
		return r
	}
	dists := []dist.Distribution{dist.Geometric{R: 0.9}, dist.Patch{X0: 3, X1: 9, Y0: 2, Y1: 11}, dist.Uniform{}}
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := dist.Config{
			Mesh: m, N: 200 + rng.Intn(400), K: rng.Intn(3), M: rng.Intn(5) - 2,
			Dir: 1 - 2*rng.Intn(2), Dist: dists[seed%3], Seed: uint64(seed),
		}
		if seed%4 == 3 {
			cfg.FirstID = 1000
		}
		var sched dist.Schedule
		for n := rng.Intn(7); n > 0; n-- {
			ev := dist.Event{Step: rng.Intn(steps + 4), Region: rect(rng), K: rng.Intn(4), M: rng.Intn(5) - 2}
			if len(sched) > 0 && rng.Intn(4) == 0 {
				ev.Step = sched[len(sched)-1].Step
			}
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

// TestExpectedPopulationPaperScale replays one removal over the paper's
// mesh and population (L = 2 998, N = 600 000, geometric r = 0.999):
// equal to the legacy reference, and allocating in proportion to L and to
// the removed IDs it returns — the fate tables hold rows, never the L²
// cells of the mesh (9 MB here even as one byte apiece).
func TestExpectedPopulationPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes 600 000 particles for the legacy reference")
	}
	const L, steps = 2998, 40
	cfg := dist.Config{Mesh: mesh(t, L), N: 600000, K: 1, M: 2, Dist: dist.Geometric{R: 0.999}, Seed: 13}
	sched := dist.Schedule{{Step: 25, Region: dist.Rect{X0: 1000, X1: 1100, Y0: 700, Y1: 2000}, Remove: true}}
	got, err := ExpectedPopulation(cfg, sched, steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.RemovedIDs) == 0 {
		t.Fatal("the removal reaches no particle; the case pins nothing")
	}
	bound := uint64(128*L + 32*cap(got.RemovedIDs))
	if alloc := memtest.Least(bound, nil, func() { _, _ = ExpectedPopulation(cfg, sched, steps) }); alloc > bound {
		t.Errorf("ExpectedPopulation allocated %d B, want at most 128·L + 32 per removed ID = %d B", alloc, bound)
	}
	want := legacyExpectedPopulation(t, cfg, sched, steps)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("per-cell replay %d survivors sum %d, %d removed; legacy %d survivors sum %d, %d removed",
			got.Count, got.IDSum, len(got.RemovedIDs), want.Count, want.IDSum, len(want.RemovedIDs))
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
	if sim.events.NextID != 1340 {
		t.Fatalf("next ID %d after 300 initial + 40 injected from 1000, want 1340", sim.events.NextID)
	}
	for _, p := range sim.Particles.Meta {
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
	clean := sim.Particles.AppendParticles(nil)
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
		if got == nil && (v.Count != len(ps) || v.IDSum != idSum(NewSoA(ps))) {
			t.Errorf("%s: count %d sum %d, want %d and %d", tc.name, v.Count, v.IDSum, len(ps), idSum(NewSoA(ps)))
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

// TestColumnVerifierFastPathMatchesRule holds Check's per-run fast path to
// the rule it shortcuts: on every particle, Check of that particle alone and
// verifyParticle give the same verdict, error text included, and Check of a
// whole state stops at the rule's first failing particle. The states are
// closed-form runs of random inputs — either direction, M < 0, steps and K
// from a fraction of a period to displacements many periods long, past a
// 32-bit int and past the lattice bound — with particles corrupted at
// random: NaN and infinite coordinates, X0 off the half-cell lattice or
// outside [0, L) with X where the rule puts it (so the rule passes, and
// the fast path must defer), Born past the run, a wrong K, a nudged
// velocity, and an earlier Born with the state to match (a new run of
// alike particles mid-container).
func TestColumnVerifierFastPathMatchesRule(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var passed, failed int
	for trial := 0; trial < 300; trial++ {
		L := []int{2, 4, 16, 64, 2998}[rng.Intn(5)]
		m := mesh(t, L)
		steps := rng.Intn(3 * L)
		k := rng.Intn(20)
		switch rng.Intn(5) {
		case 0:
			steps = 1<<20 + rng.Intn(1000) // thousands of periods
		case 1:
			steps, k = 1<<20+rng.Intn(1000), 1<<29+rng.Intn(1000) // |d| past 2^50
		case 2:
			steps, k = 1<<20+rng.Intn(1000), 1<<14+rng.Intn(1000) // |d| past 2^31
		}
		cfg := dist.Config{Mesh: m, N: 40, K: k, M: rng.Intn(9) - 4, Dir: 1 - 2*rng.Intn(2),
			Dist: dist.Geometric{R: 0.9}, Seed: uint64(trial)}
		ps := closedFormState(t, cfg, steps)
		size := m.Size()
		place := func(p *particle.Particle) {
			s := steps - int(p.Born)
			p.X, p.Y = p.ExpectedAt(s, size)
			p.VX, p.VY = 0, float64(p.M)
			if s%2 == 1 {
				p.VX = float64(p.Dir) * 2 * float64(2*p.K+1)
			}
		}
		for i := range ps {
			p := &ps[i]
			switch rng.Intn(12) {
			case 0:
				p.X = math.NaN()
			case 1:
				p.Y = math.Inf(-1)
			case 2:
				p.X0 += 0.25
				place(p)
			case 3:
				p.Y0 -= 0.125
				place(p)
			case 4:
				p.X0 += float64(L) * float64(1-2*rng.Intn(2))
				place(p)
			case 5:
				p.Born = int32(steps) + 1 + rng.Int31n(3)
			case 6:
				p.K++
			case 7:
				p.VX += 2 * DefaultTolerance
			case 8:
				p.Born = rng.Int31n(int32(steps) + 1)
				place(p)
			}
		}
		first, _ := cfg.IDRange()
		var firstErr error
		for i := range ps {
			p := &ps[i]
			meta := metaOf(p)
			want := verifyParticle(&meta, p.X, p.Y, p.VX, p.VY, steps, size, DefaultTolerance)
			got := NewColumnVerifier(m, steps, 0, first, len(ps)).Check(NewSoA(ps[i : i+1]))
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Fatalf("L=%d steps=%d particle %+v: Check says %v, the rule %v", L, steps, *p, got, want)
			}
			if want == nil {
				passed++
			} else {
				failed++
				if firstErr == nil {
					firstErr = want
				}
			}
		}
		got := NewColumnVerifier(m, steps, 0, first, len(ps)).Check(NewSoA(ps))
		if (got == nil) != (firstErr == nil) || (got != nil && got.Error() != firstErr.Error()) {
			t.Fatalf("L=%d steps=%d: Check of the state says %v, the rule's first failure is %v", L, steps, got, firstErr)
		}
	}
	if passed < 1000 || failed < 1000 {
		t.Fatalf("%d particles passed and %d failed; the comparison is one-sided", passed, failed)
	}
}

// closedFormState returns cfg's initial population as it stands after
// steps steps: every particle on its closed-form trajectory, vx by the
// parity of the step count, vy = M.
func closedFormState(t testing.TB, cfg dist.Config, steps int) []particle.Particle {
	t.Helper()
	ps, err := dist.Initialize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		p := &ps[i]
		p.X, p.Y = p.ExpectedAt(steps, cfg.Mesh.Size())
		p.VX, p.VY = 0, float64(p.M)
		if steps%2 == 1 {
			p.VX = float64(p.Dir) * 2 * float64(2*p.K+1)
		}
	}
	return ps
}

// legacyCheck is ColumnVerifier.Check as it stood before it read the
// columns in place: an AoS copy per slot through SoA.At, the Particle rule,
// and the math.Mod closed form. Its comparisons are !(d <= tol), as
// verifyParticle's, so a NaN distance fails here too. It returns the verifier's Count and IDSum
// afterwards, and the error.
func legacyCheck(m grid.Mesh, steps int, first uint64, n int, s *SoA) (int, uint64, error) {
	L, tol := m.Size(), DefaultTolerance
	wrap := func(v float64) float64 {
		v = math.Mod(v, L)
		if v < 0 {
			v += L
		}
		if v >= L {
			v -= L
		}
		return v
	}
	rule := func(p *particle.Particle) error {
		s := steps - int(p.Born)
		if s < 0 {
			return fmt.Errorf("core: particle %d born at step %d but run is only %d steps", p.ID, p.Born, steps)
		}
		ex := wrap(p.X0 + float64(p.Dir)*float64(2*int64(p.K)+1)*float64(s))
		ey := wrap(p.Y0 + float64(p.M)*float64(s))
		if d := periodicDist(p.X, ex, L); !(d <= tol) {
			return fmt.Errorf("core: particle %d x=%v, expected %v after %d steps (|err|=%.3e)", p.ID, p.X, ex, s, d)
		}
		if d := periodicDist(p.Y, ey, L); !(d <= tol) {
			return fmt.Errorf("core: particle %d y=%v, expected %v after %d steps (|err|=%.3e)", p.ID, p.Y, ey, s, d)
		}
		if d := math.Abs(p.VY - float64(p.M)); !(d <= tol) {
			return fmt.Errorf("core: particle %d vy=%v, expected %d (|err|=%.3e)", p.ID, p.VY, p.M, d)
		}
		var evx float64
		if s%2 == 1 {
			evx = float64(p.Dir) * 2 * float64(2*p.K+1)
		}
		if d := math.Abs(p.VX - evx); !(d <= tol) {
			return fmt.Errorf("core: particle %d vx=%v, expected %v after %d steps (|err|=%.3e)", p.ID, p.VX, evx, s, d)
		}
		return nil
	}
	seen := make(map[uint64]bool)
	var sum uint64
	for i := range s.X {
		p := s.At(i)
		if err := rule(&p); err != nil {
			return 0, sum, err
		}
		if p.ID-first >= uint64(n) {
			return 0, sum, fmt.Errorf("core: particle ID %d outside the run's range [%d, %d)", p.ID, first, first+uint64(n))
		}
		if seen[p.ID] {
			return 0, sum, fmt.Errorf("core: duplicate particle ID %d", p.ID)
		}
		seen[p.ID] = true
		sum += p.ID
	}
	return s.Len(), sum, nil
}

// FuzzColumnVerifier holds Check to the legacy loop: the same accept or
// reject, the same first error, the same Count and IDSum, on a closed-form
// state damaged by the fuzzer — positions and velocities nudged or made
// non-finite, a particle born after the run, duplicate IDs, IDs outside
// the run's range. Each 3-byte op picks a slot, a damage and its size.
func FuzzColumnVerifier(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(40), []byte{})
	f.Add(uint64(2), uint8(12), uint8(90), []byte{7, 0, 200, 3, 1, 1})
	f.Add(uint64(3), uint8(1), uint8(30), []byte{9, 2, 128, 4, 3, 5, 1, 4, 0})
	f.Add(uint64(4), uint8(30), uint8(60), []byte{5, 5, 0, 6, 6, 3, 2, 7, 1})
	f.Add(uint64(5), uint8(7), uint8(200), []byte{0, 8, 9, 1, 6, 255})
	f.Fuzz(func(t *testing.T, seed uint64, steps, n uint8, ops []byte) {
		L := []int{8, 16, 64}[seed%3]
		m := mesh(t, L)
		cfg := dist.Config{
			Mesh: m, N: 1 + int(n), K: int(seed>>2) % 16, M: int(seed>>6)%7 - 3,
			Dir: 1 - 2*int(seed>>9&1), Dist: dist.Geometric{R: 0.8}, Seed: seed, FirstID: 1 + seed>>10%1000,
		}
		ps := closedFormState(t, cfg, int(steps))
		first, _ := cfg.IDRange()
		for ; len(ops) >= 3; ops = ops[3:] {
			p, other := &ps[int(ops[0])%len(ps)], &ps[int(ops[2])%len(ps)]
			delta := float64(int8(ops[2])) * math.Ldexp(1, -int(ops[2]%24))
			switch ops[1] % 10 {
			case 0:
				p.X += delta
			case 1:
				p.Y += delta
			case 2:
				p.VX += delta
			case 3:
				p.VY += delta
			case 4:
				p.Born = int32(steps) + 1 + int32(ops[2]%3)
			case 5:
				p.ID = other.ID
			case 6:
				p.ID = first + uint64(len(ps)) + uint64(ops[2]) // past the range
			case 7:
				p.ID = []uint64{first - 1, 0}[ops[2]%2] // below it, or 0
			case 8:
				p.X = []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1), float64(L), -0.5}[ops[2]%5]
			case 9:
				p.Born = int32(ops[2] % (steps + 1))
			}
		}
		s := NewSoA(ps)
		v := NewColumnVerifier(m, int(steps), 0, first, len(ps))
		got := v.Check(s)
		count, sum, want := legacyCheck(m, int(steps), first, len(ps), s)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("Check says %v, the legacy loop %v", got, want)
		}
		if v.Count != count || v.IDSum != sum {
			t.Fatalf("Check counted %d particles sum %d, the legacy loop %d sum %d", v.Count, v.IDSum, count, sum)
		}
	})
}

// BenchmarkExpectedPopulation replays the churn_ckpt_worksteal benchmark
// workload's input: L = 256, N = 300 000 geometric (r = 0.98), an injection
// of 50 000 every 40 steps from step 10 and a full-height removal band 20
// steps after each — over the 38 steps bench/run.sh runs by default (one
// injection, one removal) and over the nominal 300 (eight and seven).
func BenchmarkExpectedPopulation(b *testing.B) {
	cfg := dist.Config{Mesh: mesh(b, 256), N: 300000, Dist: dist.Geometric{R: 0.98}, Seed: 501}
	for _, steps := range []int{38, 300} {
		var sched dist.Schedule
		for s := 10; s <= steps; s += 40 {
			sched = append(sched, dist.Event{Step: s, Region: dist.Rect{X0: 0, X1: 64, Y0: 0, Y1: 128}, Inject: 50000, K: 1, M: 1})
			if s+20 <= steps {
				sched = append(sched, dist.Event{Step: s + 20, Region: dist.Rect{X0: 128, X1: 192, Y0: 0, Y1: 256}, Remove: true})
			}
		}
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ExpectedPopulation(cfg, sched, steps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColumnVerifierCheck times the per-rank check on the final state
// of the uniform_block and fastdrift benchmark inputs (the latter's
// displacement spans hundreds of periods), in ns per particle.
func BenchmarkColumnVerifierCheck(b *testing.B) {
	for _, bc := range []struct {
		name  string
		cfg   dist.Config
		steps int
	}{
		{"uniform", dist.Config{Mesh: mesh(b, 512), N: 200000, Seed: 5}, 300},
		{"fastdrift", dist.Config{Mesh: mesh(b, 64), N: 200000, K: 15, M: 5, Seed: 5}, 350},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewSoA(closedFormState(b, bc.cfg, bc.steps))
			first, _ := bc.cfg.IDRange()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := NewColumnVerifier(bc.cfg.Mesh, bc.steps, 0, first, s.Len())
				if err := v.Check(s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Len()), "ns/particle")
		})
	}
}
