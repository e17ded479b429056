package core

import (
	"math/rand"
	"testing"

	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
)

// testOwnerTable builds a px×py uniform decomposition owner table over an
// L×L domain, the shape the tile plan is built against in the drivers.
func testOwnerTable(L, px, py int) *OwnerTable {
	xCuts := make([]int, px+1)
	for i := range xCuts {
		xCuts[i] = i * L / px
	}
	yCuts := make([]int, py+1)
	for i := range yCuts {
		yCuts[i] = i * L / py
	}
	return NewOwnerTable(xCuts, yCuts)
}

// TestFrontierMatchesBruteForce pins the separable wrapped dilation against
// the direct definition: a cell is frontier iff some cell within the
// displacement ring (|dx| ≤ rx, |dy| ≤ ry, wrapped) has a remote owner.
func TestFrontierMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		L, px, py, rx, ry int
		self              int32
	}{
		{16, 2, 2, 3, 1, 0},
		{16, 4, 1, 1, 2, 2},
		{12, 3, 2, 5, 3, 4},
		{8, 2, 2, 7, 9, 1},  // ring wider than the wrapped axis
		{16, 1, 1, 3, 1, 0}, // single owner: nothing is remote
	} {
		ot := testOwnerTable(tc.L, tc.px, tc.py)
		remote := func(o int32) bool { return o != tc.self }
		var fr Frontier
		fr.Rebuild(ot, tc.L, tc.rx, tc.ry, remote)
		for cy := 0; cy < tc.L; cy++ {
			for cx := 0; cx < tc.L; cx++ {
				want := false
				for dy := -tc.ry; dy <= tc.ry && !want; dy++ {
					for dx := -tc.rx; dx <= tc.rx; dx++ {
						if remote(ot.Owner(wrapCell(cx+dx, tc.L), wrapCell(cy+dy, tc.L))) {
							want = true
							break
						}
					}
				}
				if got := fr.At(cx, cy); got != want {
					t.Fatalf("L=%d %dx%d ring(%d,%d) self=%d: cell (%d,%d) frontier=%v, brute force says %v",
						tc.L, tc.px, tc.py, tc.rx, tc.ry, tc.self, cx, cy, got, want)
				}
			}
		}
	}
}

// TestTilePlanCoversEveryCellOnce pins the plan's partition property for
// assorted rectangle shapes and tile sizes: every cell maps to exactly one
// valid tile id, interior tiles hold only non-frontier cells, boundary tiles
// only frontier cells, and the id split matches NumInterior.
func TestTilePlanCoversEveryCellOnce(t *testing.T) {
	L := 24
	ot := testOwnerTable(L, 3, 2)
	var fr Frontier
	fr.Rebuild(ot, L, 3, 1, func(o int32) bool { return o != 2 })
	for _, tc := range []struct {
		x0, y0, nx, ny, size int
	}{
		{0, 0, 8, 12, 4},
		{8, 0, 8, 12, 3}, // ragged: 8 % 3 != 0
		{16, 12, 8, 12, 5},
		{0, 12, 8, 12, 1},  // one cell per grid tile
		{8, 12, 8, 12, 64}, // size covers the rect: degenerate 2-tile plan
	} {
		var tp TilePlan
		tp.Build(&fr, tc.x0, tc.y0, tc.nx, tc.ny, tc.size)
		nt, ni := tp.NumTiles(), tp.NumInterior()
		if ni < 0 || ni > nt {
			t.Fatalf("%+v: NumInterior %d outside [0, %d]", tc, ni, nt)
		}
		if tc.size >= tc.nx && tc.size >= tc.ny && nt > 2 {
			t.Fatalf("%+v: covering tile size built %d tiles, want at most 2", tc, nt)
		}
		seen := make([]int, nt)
		boundaryCells := 0
		for cy := tc.y0; cy < tc.y0+tc.ny; cy++ {
			for cx := tc.x0; cx < tc.x0+tc.nx; cx++ {
				id := tp.TileOf(cx, cy)
				if id < 0 || int(id) >= nt {
					t.Fatalf("%+v: cell (%d,%d) has tile id %d outside [0,%d)", tc, cx, cy, id, nt)
				}
				seen[id]++
				if fr.At(cx, cy) {
					boundaryCells++
					if int(id) < ni {
						t.Fatalf("%+v: frontier cell (%d,%d) landed in interior tile %d", tc, cx, cy, id)
					}
				} else if int(id) >= ni {
					t.Fatalf("%+v: interior cell (%d,%d) landed in boundary tile %d", tc, cx, cy, id)
				}
			}
		}
		total := 0
		for id, n := range seen {
			if n == 0 {
				t.Fatalf("%+v: tile %d holds no cells", tc, id)
			}
			total += n
		}
		if total != tc.nx*tc.ny {
			t.Fatalf("%+v: tiles cover %d cells, rect has %d", tc, total, tc.nx*tc.ny)
		}
		if tp.BoundaryCells() != boundaryCells {
			t.Fatalf("%+v: BoundaryCells %d, counted %d", tc, tp.BoundaryCells(), boundaryCells)
		}
	}
}

// TestSortByTileStableGrouping pins the counting sort: dst holds src grouped
// by ascending tile id, original order preserved within each tile, and the
// starts offsets delimit exactly each tile's range.
func TestSortByTileStableGrouping(t *testing.T) {
	m := mesh(t, 16)
	ps := hotpathParticles(t, m, 500)
	src := NewSoA(ps)
	n := src.Len()
	nt := 5
	tid := make([]int32, n)
	for i := range tid {
		tid[i] = int32((i * 7) % nt) // scrambled but deterministic
	}
	dst := &SoA{}
	starts := make([]int32, nt+1)
	cur := make([]int32, nt)
	SortByTile(dst, src, tid, nt, starts, cur)
	if dst.Len() != n {
		t.Fatalf("sorted length %d, want %d", dst.Len(), n)
	}
	if starts[0] != 0 || int(starts[nt]) != n {
		t.Fatalf("starts ends [%d, %d], want [0, %d]", starts[0], starts[nt], n)
	}
	// Walk dst tile by tile: ids must match, and within a tile the original
	// order (ascending source index, recovered via particle ID) holds.
	byID := make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		byID[src.Meta[i].ID] = i
	}
	for tile := 0; tile < nt; tile++ {
		prev := -1
		for w := starts[tile]; w < starts[tile+1]; w++ {
			i := byID[dst.Meta[w].ID]
			if tid[i] != int32(tile) {
				t.Fatalf("dst slot %d holds particle of tile %d, range belongs to tile %d", w, tid[i], tile)
			}
			if dst.At(int(w)) != src.At(i) {
				t.Fatalf("particle %d corrupted by sort", dst.Meta[w].ID)
			}
			if i <= prev {
				t.Fatalf("tile %d not stable: source index %d after %d", tile, i, prev)
			}
			prev = i
		}
	}
}

// TestPartitionedWavesMatchMoveClassify pins the pipeline's two waves
// against the plain fused pass: after PartitionFrontier, moving the frontier
// tail and then the interior head through MoveClassifyRange must produce
// bitwise the same particle states and the same leaver set as one
// MoveClassify over the same container, at every worker count — and no
// interior particle may leave.
func TestPartitionedWavesMatchMoveClassify(t *testing.T) {
	L := 32
	m := mesh(t, L)
	block, err := grid.NewBlock(m, 0, 0, L, L)
	if err != nil {
		t.Fatal(err)
	}
	ot := testOwnerTable(L, 2, 2)
	self := int32(0)
	var fr Frontier
	fr.Rebuild(ot, L, 3, 1, func(o int32) bool { return o != self })

	parted := NewSoA(hotpathParticles(t, m, 4*parallelThreshold+11))
	ni := PartitionFrontier(parted, m, &fr)
	if ni == 0 || ni == parted.Len() {
		t.Fatalf("degenerate partition: %d interior of %d", ni, parted.Len())
	}

	// Reference: one fused pass over the partitioned container.
	ref := NewSoA(parted.Particles())
	refPool := NewMovePool(1)
	var refLv Leavers
	refPool.MoveClassify(ref, block, m, ot, self, &refLv)
	refLeft := leaverSet(ref, &refLv)

	for _, workers := range []int{1, 2, 7} {
		got := NewSoA(parted.Particles())
		pool := NewMovePool(workers)
		var lv Leavers
		pool.MoveClassifyRange(got, ni, got.Len(), block, m, ot, self, &lv)
		gotLeft := leaverSet(got, &lv)
		pool.MoveClassifyRange(got, 0, ni, block, m, ot, self, &lv)
		if k := lv.Count(); k != 0 {
			t.Fatalf("workers=%d: %d interior particles left", workers, k)
		}
		pool.Close()
		assertSoAEqual(t, ref, got, "two waves vs fused pass")
		if len(gotLeft) != len(refLeft) {
			t.Fatalf("workers=%d: %d leavers, want %d", workers, len(gotLeft), len(refLeft))
		}
		for id, dst := range refLeft {
			if gotLeft[id] != dst {
				t.Fatalf("workers=%d: particle %d leaves for %d, want %d", workers, id, gotLeft[id], dst)
			}
		}
	}
	refPool.Close()
}

// TestPartitionFrontierProperty pins the partition's contract on random
// containers against assorted masks, the three degenerate masks included:
// every interior particle precedes every frontier one, the returned count
// is exact, and the multiset of particles (ID and every field) is unchanged.
func TestPartitionFrontierProperty(t *testing.T) {
	const L = 16
	m := mesh(t, L)
	none := func(int32) bool { return false }
	all := func(int32) bool { return true }
	for _, tc := range []struct {
		name   string
		px, py int
		rx, ry int
		remote func(int32) bool
	}{
		{"all interior", 2, 2, 3, 1, none},
		{"all frontier", 2, 2, 3, 1, all},
		{"2x2 self=0", 2, 2, 3, 1, func(o int32) bool { return o != 0 }},
		{"4x1 self=2", 4, 1, 1, 0, func(o int32) bool { return o != 2 }},
		{"2x2 thin ring", 2, 2, 0, 0, func(o int32) bool { return o == 3 }},
	} {
		var fr Frontier
		fr.Rebuild(testOwnerTable(L, tc.px, tc.py), L, tc.rx, tc.ry, tc.remote)
		for _, n := range []int{0, 1, 2, 3, 257, 1000} {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
				s := &SoA{}
				for i := 0; i < n; i++ {
					s.Append(particle.Particle{
						ID: uint64(i + 1), X: rng.Float64() * L, Y: rng.Float64() * L,
						VX: rng.Float64(), VY: rng.Float64(), Q: rng.Float64(),
						X0: rng.Float64(), Y0: rng.Float64(), K: int32(i), M: -int32(i), Dir: 1, Born: int32(i % 7),
					})
				}
				before := make(map[uint64]particle.Particle, n)
				wantInterior := 0
				for i := 0; i < n; i++ {
					p := s.At(i)
					before[p.ID] = p
					if cx, cy := m.CellOf(p.X, p.Y); !fr.At(cx, cy) {
						wantInterior++
					}
				}
				ni := PartitionFrontier(s, m, &fr)
				if ni != wantInterior {
					t.Fatalf("%s n=%d: returned %d interior, counted %d", tc.name, n, ni, wantInterior)
				}
				if s.Len() != n {
					t.Fatalf("%s n=%d: length became %d", tc.name, n, s.Len())
				}
				for i := 0; i < n; i++ {
					p := s.At(i)
					cx, cy := m.CellOf(p.X, p.Y)
					if fr.At(cx, cy) != (i >= ni) {
						t.Fatalf("%s n=%d: slot %d (split at %d) holds a particle with frontier=%v", tc.name, n, i, ni, fr.At(cx, cy))
					}
					if want, ok := before[p.ID]; !ok || want != p {
						t.Fatalf("%s n=%d: particle %d altered or duplicated by the partition", tc.name, n, p.ID)
					}
					delete(before, p.ID)
				}
			}
		}
	}
}

// TestScatterRemoveConservesParticles pins the compaction the ownership
// prefix trusts: after ScatterRemove the stayers plus the shards are exactly
// the particles that were there, none dropped or doubled.
func TestScatterRemoveConservesParticles(t *testing.T) {
	m := mesh(t, 16)
	rng := rand.New(rand.NewSource(9))
	for _, frac := range []float64{0, 0.01, 0.5, 1} {
		s := NewSoA(hotpathParticles(t, m, 3000))
		before := s.Len()
		ids := make(map[uint64]bool, before)
		for i := 0; i < before; i++ {
			ids[s.Meta[i].ID] = true
		}
		var lv Leavers
		lv.Reset(3)
		for i := 0; i < before; i++ {
			if rng.Float64() < frac {
				lv.Add(i*3/before, int32(i), int32(rng.Intn(4)))
			}
		}
		shards := make([]Columns, 4)
		s.ScatterRemove(&lv, shards)
		total := s.Len()
		for i := 0; i < s.Len(); i++ {
			delete(ids, s.Meta[i].ID)
		}
		for d := range shards {
			total += shards[d].Len()
			for _, meta := range shards[d].Meta {
				delete(ids, meta.ID)
			}
		}
		if total != before || lv.Count() != before-s.Len() {
			t.Fatalf("frac=%g: %d stayers + shards = %d particles, had %d (%d leavers)", frac, s.Len(), total, before, lv.Count())
		}
		if len(ids) != 0 {
			t.Fatalf("frac=%g: %d particle IDs vanished", frac, len(ids))
		}
	}
}

// TestSoAResizeIndependentCapacities pins Resize against containers whose
// slice capacities diverged (possible after column-wise appends).
func TestSoAResizeIndependentCapacities(t *testing.T) {
	s := &SoA{}
	s.Resize(10)
	s.Meta = make([]SoAMeta, 0, 3) // shrink one column's capacity
	s.Resize(8)
	if len(s.X) != 8 || len(s.Y) != 8 || len(s.VX) != 8 || len(s.VY) != 8 || len(s.Q) != 8 || len(s.Meta) != 8 {
		t.Fatalf("resize left ragged lengths: X=%d Y=%d VX=%d VY=%d Q=%d Meta=%d",
			len(s.X), len(s.Y), len(s.VX), len(s.VY), len(s.Q), len(s.Meta))
	}
}
