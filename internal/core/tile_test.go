package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/parres/picprk/internal/grid"
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

// TestFrontierMatchesBruteForce pins the class-pair derivation against the
// direct definition: a cell is frontier iff some cell within the
// displacement ring (|dx| ≤ rx, |dy| ≤ ry, wrapped) has a remote owner. The
// cases cover uniform and random non-uniform cuts (1-cell runs included),
// owners placed on cores the way VP placements put them, and ring widths
// from 0 to past half the axis.
func TestFrontierMatchesBruteForce(t *testing.T) {
	type tcase struct {
		L, rx, ry    int
		xCuts, yCuts []int
		remote       func(int32) bool
	}
	cases := []tcase{
		// y-runs [0,1) and [1,16): the window of cy = 1 starts and ends in
		// run 1 yet passes through run 0 around the wrap.
		{16, 0, 7, []int{0, 16}, []int{0, 1, 16}, func(o int32) bool { return o == 0 }},
		{16, 3, 1, []int{0, 8, 16}, []int{0, 8, 16}, func(o int32) bool { return o != 0 }},
		{8, 7, 9, []int{0, 4, 8}, []int{0, 4, 8}, func(o int32) bool { return o != 1 }}, // ring wider than the wrapped axis
		{16, 3, 1, []int{0, 16}, []int{0, 16}, func(o int32) bool { return o != 0 }},    // single owner: nothing is remote
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		L := 4 + rng.Intn(17) // 4..20
		px, py := 1+rng.Intn(min(L, 5)), 1+rng.Intn(min(L, 5))
		loc := make([]int, px*py)
		cores := 1 + rng.Intn(4)
		for o := range loc {
			loc[o] = rng.Intn(cores)
		}
		self := rng.Intn(cores)
		cases = append(cases, tcase{L, rng.Intn(L/2 + 2), rng.Intn(L/2 + 2),
			randomCuts(rng, L, px), randomCuts(rng, L, py),
			func(o int32) bool { return loc[o] != self }})
	}
	var fr Frontier
	for _, tc := range cases {
		ot := NewOwnerTable(tc.xCuts, tc.yCuts)
		fr.Rebuild(ot, tc.L, tc.rx, tc.ry, tc.remote)
		for cy := 0; cy < tc.L; cy++ {
			for cx := 0; cx < tc.L; cx++ {
				want := false
				for dy := -tc.ry; dy <= tc.ry && !want; dy++ {
					for dx := -tc.rx; dx <= tc.rx; dx++ {
						if tc.remote(ot.Owner(grid.WrapIndex(cx+dx, tc.L), grid.WrapIndex(cy+dy, tc.L))) {
							want = true
							break
						}
					}
				}
				if got := fr.At(cx, cy); got != want {
					t.Fatalf("L=%d cuts %v×%v ring(%d,%d): cell (%d,%d) frontier=%v, brute force says %v",
						tc.L, tc.xCuts, tc.yCuts, tc.rx, tc.ry, cx, cy, got, want)
				}
			}
		}
	}
}

// BenchmarkFrontierRebuild times a warm rebuild on a 48×32 owner table, the
// per-rebalance cost of the frontier at a small and at the paper's mesh.
func BenchmarkFrontierRebuild(b *testing.B) {
	for _, L := range []int{512, 2998} {
		b.Run(fmt.Sprintf("L=%d", L), func(b *testing.B) {
			ot := testOwnerTable(L, 48, 32)
			remote := func(o int32) bool { return o != 0 }
			var fr Frontier
			fr.Rebuild(ot, L, 31, 5, remote)
			b.ResetTimer()
			for range b.N {
				fr.Rebuild(ot, L, 31, 5, remote)
			}
		})
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
		shards := make([]SoA, 4)
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
		left := 0
		for w := 0; w < lv.n; w++ {
			left += len(lv.idx[w])
		}
		if total != before || left != before-s.Len() {
			t.Fatalf("frac=%g: %d stayers + shards = %d particles, had %d (%d leavers)", frac, s.Len(), total, before, left)
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
