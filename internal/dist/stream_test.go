package dist

import (
	"testing"

	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
)

// legacyInitialize is the materializing Initialize loop as it stood before
// the streaming generator, kept here verbatim so the reference cannot drift
// with the code it pins.
func legacyInitialize(t *testing.T, cfg Config) []particle.Particle {
	t.Helper()
	c := cfg.withDefaults()
	L := c.Mesh.L
	counts, err := Apportion(c.Dist.Weights(L), c.N)
	if err != nil {
		t.Fatal(err)
	}
	rowLo, rowHi := c.Dist.RowRange(L)
	base := BaseCharge(c.Mesh.Q, 0.5)
	mult := float64(2*c.K + 1)
	ps := make([]particle.Particle, 0, c.N)
	id := c.FirstID
	for col := 0; col < L; col++ {
		n := counts[col]
		if n == 0 {
			continue
		}
		rng := NewRNG(c.Seed, 0x636f6c, uint64(col))
		sign := float64(c.Dir * c.Mesh.ColumnSign(col))
		q := sign * mult * base
		for k := 0; k < n; k++ {
			row := rowLo + rng.Intn(rowHi-rowLo)
			x := float64(col) + 0.5
			y := float64(row) + 0.5
			ps = append(ps, particle.Particle{
				ID: id,
				X:  x, Y: y,
				VX: 0, VY: float64(c.M),
				Q:  q,
				X0: x, Y0: y,
				K: int32(c.K), M: int32(c.M),
				Dir:  int32(c.Dir),
				Born: 0,
			})
			id++
		}
	}
	return ps
}

// legacyInject is the materializing InjectParticles loop, verbatim.
func legacyInject(m grid.Mesh, ev Event, seed uint64, firstID uint64, dir int) []particle.Particle {
	rng := NewRNG(seed, 0x696e6a, uint64(ev.Step))
	base := BaseCharge(m.Q, 0.5)
	mult := float64(2*ev.K + 1)
	w := ev.Region.X1 - ev.Region.X0
	h := ev.Region.Y1 - ev.Region.Y0
	ps := make([]particle.Particle, 0, ev.Inject)
	for i := 0; i < ev.Inject; i++ {
		cx := ev.Region.X0 + rng.Intn(w)
		cy := ev.Region.Y0 + rng.Intn(h)
		sign := float64(dir * m.ColumnSign(cx))
		x := float64(cx) + 0.5
		y := float64(cy) + 0.5
		ps = append(ps, particle.Particle{
			ID: firstID + uint64(i),
			X:  x, Y: y,
			VX: 0, VY: float64(ev.M),
			Q:  sign * mult * base,
			X0: x, Y0: y,
			K: int32(ev.K), M: int32(ev.M),
			Dir:  int32(dir),
			Born: int32(ev.Step),
		})
	}
	return ps
}

// TestStreamMatchesLegacyPlacement pins the streaming generator against the
// loops it replaced, bit for bit, for all five distributions: unfiltered
// (which is what Initialize returns), and under a column filter, where the
// survivors must be exactly the legacy particles of the wanted columns —
// IDs included, so skipped columns still advance the ID cursor.
func TestStreamMatchesLegacyPlacement(t *testing.T) {
	m := mesh(t, 32)
	for _, d := range []Distribution{
		Geometric{R: 0.9}, Sinusoidal{}, Linear{Alpha: 1, Beta: 1.5}, Uniform{},
		Patch{X0: 3, X1: 20, Y0: 5, Y1: 17},
	} {
		for _, cfg := range []Config{
			{Mesh: m, N: 5000, K: 2, M: -3, Dist: d, Seed: 11},
			{Mesh: m, N: 777, K: 0, M: 1, Dir: -1, Dist: d, Seed: 3, FirstID: 1000},
		} {
			want := legacyInitialize(t, cfg)
			got, err := Initialize(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameParticles(t, d.Name()+" unfiltered", got, want)

			cols := func(cx int) bool { return cx%3 == 1 || cx >= 24 }
			var wantF, gotF []particle.Particle
			for i := range want {
				if cx, _ := m.CellOf(want[i].X, want[i].Y); cols(cx) {
					wantF = append(wantF, want[i])
				}
			}
			err = Each(cfg, cols, func(cx, cy int, p *particle.Particle) {
				if gx, gy := m.CellOf(p.X, p.Y); gx != cx || gy != cy {
					t.Fatalf("%s: emitted cell (%d,%d) for a particle in (%d,%d)", d.Name(), cx, cy, gx, gy)
				}
				gotF = append(gotF, *p)
			})
			if err != nil {
				t.Fatal(err)
			}
			assertSameParticles(t, d.Name()+" column-filtered", gotF, wantF)
		}
	}
}

func TestStreamMatchesLegacyInjection(t *testing.T) {
	m := mesh(t, 16)
	for _, tc := range []struct {
		ev  Event
		dir int
	}{
		{Event{Step: 7, Region: Rect{4, 8, 2, 6}, Inject: 500, K: 1, M: 2}, 1},
		{Event{Step: 0, Region: Rect{0, 16, 0, 16}, Inject: 333, K: 0, M: -1}, -1},
		{Event{Step: 3, Region: Rect{15, 16, 0, 1}, Inject: 5}, 0},
	} {
		dir := tc.dir
		if dir == 0 {
			dir = 1
		}
		want := legacyInject(m, tc.ev, 42, 1001, dir)
		assertSameParticles(t, "injection", InjectParticles(m, tc.ev, 42, 1001, tc.dir), want)
	}
}

func assertSameParticles(t *testing.T, label string, got, want []particle.Particle) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d particles, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: particle %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestIDRangeFollowsFirstID pins the injected ID range to the configured
// FirstID rather than a hard-coded N+1.
func TestIDRangeFollowsFirstID(t *testing.T) {
	m := mesh(t, 8)
	for _, tc := range []struct {
		set, first, next uint64
	}{{0, 1, 101}, {1, 1, 101}, {500, 500, 600}} {
		cfg := Config{Mesh: m, N: 100, FirstID: tc.set}
		if first, next := cfg.IDRange(); first != tc.first || next != tc.next {
			t.Errorf("FirstID=%d: ID range [%d, %d), want [%d, %d)", tc.set, first, next, tc.first, tc.next)
		}
	}
}
