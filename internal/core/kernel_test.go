package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
)

func mesh(t testing.TB, L int) grid.Mesh {
	t.Helper()
	m, err := grid.NewMesh(L, grid.DefaultCharge)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// centerParticle builds a particle at the center of cell (cx, cy) with the
// paper's eq. 3 charge for horizontal speed (2k+1) and vertical speed m.
func centerParticle(msh grid.Mesh, cx, cy, k, mv, dir int, id uint64) particle.Particle {
	sign := float64(dir * msh.ColumnSign(cx))
	x := float64(cx) + 0.5
	y := float64(cy) + 0.5
	return particle.Particle{
		ID: id, X: x, Y: y,
		VX: 0, VY: float64(mv),
		Q:  sign * float64(2*k+1) * dist.BaseCharge(msh.Q, 0.5),
		X0: x, Y0: y,
		K: int32(k), M: int32(mv), Dir: int32(dir), Born: 0,
	}
}

func TestForceAtCellCenterIsHorizontal(t *testing.T) {
	m := mesh(t, 8)
	for cx := 0; cx < 8; cx++ {
		p := centerParticle(m, cx, 3, 0, 0, 1, 1)
		fx, fy := Force(meshField(m), p.Q, p.X, p.Y, cx, 3)
		if fy != 0 {
			t.Errorf("col %d: vertical force %v, want exactly 0", cx, fy)
		}
		if math.Abs(fx-2) > 1e-12 {
			t.Errorf("col %d: horizontal force %v, want 2 (so displacement is h)", cx, fx)
		}
	}
}

func TestForceDirectionFollowsChargeSign(t *testing.T) {
	m := mesh(t, 8)
	// dir=-1 flips the charge sign, so acceleration points -x.
	p := centerParticle(m, 2, 2, 0, 0, -1, 1)
	fx, _ := Force(meshField(m), p.Q, p.X, p.Y, 2, 2)
	if fx >= 0 {
		t.Errorf("leftward particle has non-negative force %v", fx)
	}
}

func TestForceScalesWithK(t *testing.T) {
	m := mesh(t, 8)
	for k := 0; k <= 5; k++ {
		p := centerParticle(m, 0, 0, k, 0, 1, 1)
		fx, _ := Force(meshField(m), p.Q, p.X, p.Y, 0, 0)
		want := 2 * float64(2*k+1)
		if math.Abs(fx-want) > 1e-11 {
			t.Errorf("k=%d: force %v, want %v", k, fx, want)
		}
	}
}

func TestMoveSingleStepOneCell(t *testing.T) {
	m := mesh(t, 10)
	p := centerParticle(m, 2, 5, 0, 0, 1, 1)
	Move(&p, meshField(m), m)
	if math.Abs(p.X-3.5) > 1e-12 {
		t.Errorf("x=%v, want 3.5", p.X)
	}
	if math.Abs(p.Y-5.5) > 1e-12 {
		t.Errorf("y=%v, want 5.5", p.Y)
	}
	if math.Abs(p.VX-2) > 1e-12 {
		t.Errorf("vx=%v, want 2", p.VX)
	}
	// Second step decelerates back to rest one cell further.
	Move(&p, meshField(m), m)
	if math.Abs(p.X-4.5) > 1e-12 || math.Abs(p.VX) > 1e-12 {
		t.Errorf("after 2 steps: x=%v vx=%v, want 4.5, 0", p.X, p.VX)
	}
}

func TestMovePeriodicWrap(t *testing.T) {
	m := mesh(t, 4)
	p := centerParticle(m, 3, 3, 0, 1, 1, 1) // moving right and up from last column/row
	Move(&p, meshField(m), m)
	if math.Abs(p.X-0.5) > 1e-12 {
		t.Errorf("x=%v, want wrap to 0.5", p.X)
	}
	if math.Abs(p.Y-0.5) > 1e-12 {
		t.Errorf("y=%v, want wrap to 0.5", p.Y)
	}
}

func TestMoveMatchesClosedFormManySteps(t *testing.T) {
	m := mesh(t, 16)
	cases := []struct{ cx, cy, k, mv, dir int }{
		{0, 0, 0, 0, 1},
		{1, 3, 0, 0, 1},
		{5, 9, 1, 0, 1},
		{2, 2, 2, 3, 1},
		{7, 15, 0, -2, 1},
		{4, 8, 3, 1, -1},
		{9, 1, 1, -1, -1},
	}
	const steps = 5000
	for _, c := range cases {
		p := centerParticle(m, c.cx, c.cy, c.k, c.mv, c.dir, 1)
		for s := 1; s <= steps; s++ {
			Move(&p, meshField(m), m)
			ex, ey := p.ExpectedAt(s, m.Size())
			if d := periodicDist(p.X, ex, m.Size()); d > 1e-7 {
				t.Fatalf("case %+v step %d: x err %.3e", c, s, d)
			}
			if d := periodicDist(p.Y, ey, m.Size()); d > 1e-7 {
				t.Fatalf("case %+v step %d: y err %.3e", c, s, d)
			}
		}
	}
}

// TestErrorStaysBoundedLongRun drives a particle for 10k steps and checks
// the accumulated position error stays far below the verification
// tolerance, confirming the center-line configuration is self-restoring.
func TestErrorStaysBoundedLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	m := mesh(t, 1000)
	p := centerParticle(m, 17, 500, 0, 1, 1, 1)
	const steps = 10000
	var worst float64
	for s := 1; s <= steps; s++ {
		Move(&p, meshField(m), m)
		ex, ey := p.ExpectedAt(s, m.Size())
		d := math.Max(periodicDist(p.X, ex, m.Size()), periodicDist(p.Y, ey, m.Size()))
		if d > worst {
			worst = d
		}
	}
	if worst > DefaultTolerance/10 {
		t.Errorf("worst error %.3e over %d steps, want < %g", worst, steps, DefaultTolerance/10)
	}
	t.Logf("worst position error over %d steps: %.3e", steps, worst)
}

func TestForceDeterministicAcrossSources(t *testing.T) {
	// The formulaic mesh and a materialized block must give bitwise
	// identical forces.
	m := mesh(t, 12)
	b, err := grid.NewBlock(m, 3, 4, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	for cy := 4; cy < 10; cy++ {
		for cx := 3; cx < 8; cx++ {
			x, y := float64(cx)+0.5, float64(cy)+0.5
			fx1, fy1 := Force(meshField(m), 0.25, x, y, cx, cy)
			fx2, fy2 := Force(b, 0.25, x, y, cx, cy)
			if fx1 != fx2 || fy1 != fy2 {
				t.Fatalf("cell (%d,%d): mesh force (%v,%v) != block force (%v,%v)", cx, cy, fx1, fy1, fx2, fy2)
			}
		}
	}
}

func BenchmarkForce(b *testing.B) {
	m := grid.MustMesh(64, 1)
	p := centerParticle(m, 5, 5, 0, 0, 1, 1)
	var sink float64
	for i := 0; i < b.N; i++ {
		fx, fy := Force(meshField(m), p.Q, p.X, p.Y, 5, 5)
		sink += fx + fy
	}
	_ = sink
}

// BenchmarkForceLanes reports the force kernel's cost per particle on a
// block of particles in random cells' interiors: batched (force, the move
// loop's kernel) and one particle at a time (forceQQ, the reference's).
func BenchmarkForceLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var buf forceBuf
	for j := 0; j < laneBlock; j++ {
		for k, in := range buf.inputs(j) {
			*in = rng.Float64()
			if k < 4 {
				*in = 0.5 - *in
			}
		}
	}
	perParticle := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/laneBlock, "ns/particle")
	}
	b.Run("force", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			force(&buf, laneBlock)
		}
		perParticle(b)
	})
	b.Run("forceQQ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < laneBlock; j++ {
				buf.fx[j], buf.fy[j] = buf.scalar(j)
			}
		}
		perParticle(b)
	})
}

func BenchmarkMoveAll(b *testing.B) {
	m := grid.MustMesh(64, 1)
	ps, err := dist.Initialize(dist.Config{Mesh: m, N: 10000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MoveAll(ps, meshField(m), m)
	}
	b.ReportMetric(float64(len(ps)), "particles/op")
}
