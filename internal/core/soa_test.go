package core

import (
	"testing"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
)

func TestSoAMatchesAoSBitwise(t *testing.T) {
	m := mesh(t, 32)
	cfg := dist.Config{Mesh: m, N: 5000, K: 1, M: -1, Dist: dist.Geometric{R: 0.9}, Seed: 3}
	aos, err := dist.Initialize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	block, err := grid.NewBlock(m, 0, 0, m.L, m.L)
	if err != nil {
		t.Fatal(err)
	}
	soa := NewSoA(aos)
	pool := NewMovePool(1)
	for step := 0; step < 100; step++ {
		MoveAll(aos, meshField(m), m)
		pool.Move(soa, block, m)
	}
	back := soa.AppendParticles(nil)
	if len(back) != len(aos) {
		t.Fatalf("length mismatch %d vs %d", len(back), len(aos))
	}
	for i := range aos {
		if aos[i] != back[i] {
			t.Fatalf("particle %d differs between AoS and SoA:\n%+v\n%+v", aos[i].ID, aos[i], back[i])
		}
	}
}

func TestSoARoundtrip(t *testing.T) {
	m := mesh(t, 16)
	ps, err := dist.Initialize(dist.Config{Mesh: m, N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	back := NewSoA(ps).AppendParticles(nil)
	for i := range ps {
		if ps[i] != back[i] {
			t.Fatalf("roundtrip differs at %d", i)
		}
	}
	if NewSoA(nil).Len() != 0 {
		t.Error("empty SoA length")
	}
}

func BenchmarkMoveAoS(b *testing.B) {
	m := grid.MustMesh(256, 1)
	ps, err := dist.Initialize(dist.Config{Mesh: m, N: 200000, Dist: dist.Geometric{R: 0.99}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MoveAll(ps, meshField(m), m)
	}
	b.ReportMetric(float64(len(ps))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mparticles/s")
}

func BenchmarkMoveSoA(b *testing.B) {
	m := grid.MustMesh(256, 1)
	ps, err := dist.Initialize(dist.Config{Mesh: m, N: 200000, Dist: dist.Geometric{R: 0.99}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	block, err := grid.NewBlock(m, 0, 0, m.L, m.L)
	if err != nil {
		b.Fatal(err)
	}
	soa := NewSoA(ps)
	pool := NewMovePool(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Move(soa, block, m)
	}
	b.ReportMetric(float64(soa.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mparticles/s")
}
