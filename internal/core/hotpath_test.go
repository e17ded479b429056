package core

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
)

func hotpathParticles(t testing.TB, m grid.Mesh, n int) []particle.Particle {
	t.Helper()
	ps, err := dist.Initialize(dist.Config{Mesh: m, N: n, K: 1, M: -1, Dist: dist.Geometric{R: 0.9}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func assertSoAEqual(t *testing.T, want, got *SoA, label string) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: length %d vs %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if want.At(i) != got.At(i) {
			t.Fatalf("%s: particle %d differs:\nwant %+v\ngot  %+v", label, want.Meta[i].ID, want.At(i), got.At(i))
		}
	}
}

// leaverSet flattens a leaver list into particle ID -> destination.
func leaverSet(s *SoA, lv *Leavers) map[uint64]int32 {
	left := make(map[uint64]int32)
	for w := 0; w < lv.n; w++ {
		idx, dst := lv.idx[w], lv.dst[w]
		for j := range idx {
			left[s.Meta[idx[j]].ID] = dst[j]
		}
	}
	return left
}

// TestKernelLoopMatchesReference pins the one move loop against the AoS
// reference kernel: plain and classifying, over the full range and over
// sub-ranges that together cover it, the particle states must be bitwise
// those core.MoveAll produces — whether the reference reads the formulaic
// grid.Mesh or the materialized *grid.Block — and the classifying form must
// tag exactly the particles whose new cell another owner holds.
func TestKernelLoopMatchesReference(t *testing.T) {
	m := mesh(t, 32)
	block, err := grid.NewBlock(m, 0, 0, m.L, m.L)
	if err != nil {
		t.Fatal(err)
	}
	ot := testOwnerTable(m.L, 2, 2)
	ps := hotpathParticles(t, m, 3000)
	const steps = 60

	viaMesh := append([]particle.Particle(nil), ps...)
	viaBlock := append([]particle.Particle(nil), ps...)
	for step := 0; step < steps; step++ {
		MoveAll(viaMesh, meshField(m), m)
		MoveAll(viaBlock, block, m)
	}
	ref := NewSoA(viaMesh)
	assertSoAEqual(t, ref, NewSoA(viaBlock), "AoS reference: mesh vs block field")
	wantLeft := make(map[uint64]int32)
	for i := range viaMesh {
		cx, cy := m.CellOf(viaMesh[i].X, viaMesh[i].Y)
		if o := ot.Owner(cx, cy); o != 0 {
			wantLeft[viaMesh[i].ID] = o
		}
	}

	n := len(ps)
	for _, cuts := range [][]int{{0, n}, {0, 1, n/3 + 1, n/3 + 1, n - 7, n}} {
		for _, classify := range []bool{false, true} {
			got := NewSoA(ps)
			var lv, all Leavers
			for step := 0; step < steps; step++ {
				all.Reset(1)
				// Sub-ranges run last-first: order must not matter.
				for k := len(cuts) - 2; k >= 0; k-- {
					lo, hi := cuts[k], cuts[k+1]
					if !classify {
						moveRange(got, lo, hi, block, m, nil, 0, nil, 0)
						continue
					}
					lv.Reset(1)
					moveRange(got, lo, hi, block, m, ot, 0, &lv, 0)
					idx, dst := lv.idx[0], lv.dst[0]
					for j := range idx {
						if int(idx[j]) < lo || int(idx[j]) >= hi {
							t.Fatalf("leaver index %d outside its range [%d,%d)", idx[j], lo, hi)
						}
						all.Add(0, idx[j], dst[j])
					}
				}
			}
			label := fmt.Sprintf("cuts=%v classify=%v", cuts, classify)
			assertSoAEqual(t, ref, got, label)
			if !classify {
				continue
			}
			gotLeft := leaverSet(got, &all)
			if len(gotLeft) != len(wantLeft) {
				t.Fatalf("%s: %d leavers tagged on the last step, want %d", label, len(gotLeft), len(wantLeft))
			}
			for id, o := range wantLeft {
				if gotLeft[id] != o {
					t.Fatalf("%s: particle %d tagged for %d, want %d", label, id, gotLeft[id], o)
				}
			}
		}
	}
}

// TestParallelMoveBitwiseIdentity asserts the chunked pool reproduces the
// serial AoS loop bit for bit at every worker count.
func TestParallelMoveBitwiseIdentity(t *testing.T) {
	m := mesh(t, 32)
	block, err := grid.NewBlock(m, 0, 0, m.L, m.L)
	if err != nil {
		t.Fatal(err)
	}
	// Above parallelThreshold so the pool path actually engages.
	ps := hotpathParticles(t, m, 4*parallelThreshold+37)
	ref := append([]particle.Particle(nil), ps...)
	for step := 0; step < 25; step++ {
		MoveAll(ref, meshField(m), m)
	}
	for _, workers := range []int{1, 2, 7} {
		soa := NewSoA(ps)
		pool := NewMovePool(workers)
		for step := 0; step < 25; step++ {
			pool.Move(soa, block, m)
		}
		pool.Close()
		assertSoAEqual(t, NewSoA(ref), soa, fmt.Sprintf("workers=%d", workers))
	}
}

// TestChunkBounds asserts the chunk partition covers [0, n) exactly once
// for awkward worker/particle combinations.
func TestChunkBounds(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 1}, {1, 1}, {1, 7}, {5, 7}, {7, 7}, {100, 7}, {1 << 20, 16},
	} {
		next := 0
		for w := 0; w < tc.workers; w++ {
			lo, hi := chunkBounds(tc.n, tc.workers, w)
			if lo != next {
				t.Fatalf("n=%d workers=%d: chunk %d starts at %d, want %d", tc.n, tc.workers, w, lo, next)
			}
			if hi < lo {
				t.Fatalf("n=%d workers=%d: chunk %d inverted [%d,%d)", tc.n, tc.workers, w, lo, hi)
			}
			next = hi
		}
		if next != tc.n {
			t.Fatalf("n=%d workers=%d: chunks end at %d", tc.n, tc.workers, next)
		}
	}
}

// TestMovePhaseAllocationFree pins that a move on a persistent pool
// performs zero heap allocations, at one and several workers: a plain Move
// of the whole set, and a MoveClassify into a leaver list over a container
// whose chunks are not whole blocks of laneBlock particles. The force
// kernel's scratch buffer must stay on the stack: were it to escape, every
// moveRange call would allocate it.
func TestMovePhaseAllocationFree(t *testing.T) {
	m := mesh(t, 64)
	block, err := grid.NewBlock(m, 0, 0, m.L, m.L)
	if err != nil {
		t.Fatal(err)
	}
	ot := testOwnerTable(m.L, 2, 2)
	soa := NewSoA(hotpathParticles(t, m, 4089))
	for _, workers := range []int{1, 2, 3} {
		pool := NewMovePool(workers)
		var lv Leavers
		for _, tc := range []struct {
			name string
			move func()
		}{
			{"Move", func() { pool.Move(soa, block, m) }},
			{"MoveClassify", func() { pool.MoveClassify(soa, block, m, ot, 0, &lv) }},
		} {
			for i := 0; i < 10; i++ {
				tc.move() // warm up: the leaver lists reach their high water
			}
			if avg := testing.AllocsPerRun(20, tc.move); avg != 0 {
				t.Errorf("workers=%d: %v allocs per %s, want 0", workers, avg, tc.name)
			}
		}
		pool.Close()
	}
}

// BenchmarkMovePhaseSteadyState is the regression guard for the hot path:
// ns/op tracks the kernel's speed, allocs/op must stay 0 (asserted by
// TestMovePhaseAllocationFree; visible here via -benchmem).
func BenchmarkMovePhaseSteadyState(b *testing.B) {
	m := grid.MustMesh(256, 1)
	block, err := grid.NewBlock(m, 0, 0, m.L, m.L)
	if err != nil {
		b.Fatal(err)
	}
	soa := NewSoA(hotpathParticles(b, m, 200000))
	pool := NewMovePool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Move(soa, block, m)
	}
	b.ReportMetric(float64(soa.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mparticles/s")
}
