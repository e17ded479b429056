package core

import (
	"math/rand"
	"testing"

	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/memtest"
)

// bruteNeighbors computes the neighbor set from the definition: group g is
// a neighbor of self iff some cell of self and some cell of g lie within
// the wrapped displacement ring of each other.
func bruteNeighbors(ot *OwnerTable, L, rx, ry, self, groups int, groupOf func(int32) int) []int {
	if rx >= L/2 {
		rx = L / 2
	}
	if ry >= L/2 {
		ry = L / 2
	}
	seen := make([]bool, groups)
	var out []int
	for cy := 0; cy < L; cy++ {
		for cx := 0; cx < L; cx++ {
			if groupOf(ot.Owner(cx, cy)) != self {
				continue
			}
			for dy := -ry; dy <= ry; dy++ {
				for dx := -rx; dx <= rx; dx++ {
					g := groupOf(ot.Owner(grid.WrapIndex(cx+dx, L), grid.WrapIndex(cy+dy, L)))
					if g != self && !seen[g] {
						seen[g] = true
						out = append(out, g)
					}
				}
			}
		}
	}
	// Match Rebuild's sorted order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// randomCuts builds a random monotone cut array splitting [0, L) into n
// non-empty blocks — the shape a rebalanced decomposition takes.
func randomCuts(rng *rand.Rand, L, n int) []int {
	cuts := make([]int, n+1)
	cuts[n] = L
	// Choose n-1 distinct interior cut points.
	interior := rng.Perm(L - 1)[: n-1 : n-1]
	for i := 1; i < n; i++ {
		cuts[i] = interior[i-1] + 1
	}
	for i := 1; i < n; i++ { // insertion sort the interior points
		for j := i; j > 1 && cuts[j-1] > cuts[j]; j-- {
			cuts[j-1], cuts[j] = cuts[j], cuts[j-1]
		}
	}
	return cuts
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNbrSetMatchesBruteForce is the schedule's property test: over
// randomized meshes, halo widths, and rebalanced (randomly re-cut) owner
// tables, the block-run interval derivation must equal brute-force
// reachability, the relation must be symmetric across all groups, and a
// ring wide enough to reach everyone must collapse to the full ring.
func TestNbrSetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var nbr NbrSet
	for trial := 0; trial < 60; trial++ {
		L := 8 + rng.Intn(17)   // 8..24
		px := 1 + rng.Intn(4)   // 1..4
		py := 1 + rng.Intn(3)   // 1..3
		rx := 1 + 2*rng.Intn(4) // 1,3,5,7 — (2K+1) shapes
		ry := rng.Intn(4)       // 0..3 — |M| shapes, including no y motion
		if px > L || py > L {
			continue
		}
		ot := NewOwnerTable(randomCuts(rng, L, px), randomCuts(rng, L, py))
		groups := px * py
		ident := func(o int32) int { return int(o) }
		got := make([][]int, groups)
		for self := 0; self < groups; self++ {
			want := bruteNeighbors(ot, L, rx, ry, self, groups, ident)
			peers := nbr.Rebuild(ot, L, rx, ry, self, groups, ident)
			if !equalInts(peers, want) {
				t.Fatalf("L=%d %dx%d ring(%d,%d) self=%d: derived %v, brute force %v",
					L, px, py, rx, ry, self, peers, want)
			}
			got[self] = append([]int(nil), peers...)
		}
		// Symmetry: i lists j iff j lists i — the property that makes
		// independently derived schedules mutually consistent.
		for i := 0; i < groups; i++ {
			for _, j := range got[i] {
				found := false
				for _, back := range got[j] {
					if back == i {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("L=%d %dx%d ring(%d,%d): %d lists %d but not vice versa (%v / %v)",
						L, px, py, rx, ry, i, j, got[i], got[j])
				}
			}
		}
	}
}

// TestNbrSetDegenerateFullRing pins the all-ranks-adjacent case: a ring
// wide enough to wrap the whole domain must produce the full ring — every
// other group, in order.
func TestNbrSetDegenerateFullRing(t *testing.T) {
	L, px, py := 16, 4, 2
	ot := testOwnerTable(L, px, py)
	groups := px * py
	var nbr NbrSet
	for self := 0; self < groups; self++ {
		peers := nbr.Rebuild(ot, L, L, L, self, groups, func(o int32) int { return int(o) })
		if len(peers) != groups-1 {
			t.Fatalf("self=%d: %d peers, want full ring of %d", self, len(peers), groups-1)
		}
		prev := -1
		for _, g := range peers {
			if g == self || g <= prev {
				t.Fatalf("self=%d: bad full-ring peer list %v", self, peers)
			}
			prev = g
		}
	}
}

// TestNbrSetGrouped exercises the groupOf indirection the VP substrate
// uses: owners are virtual processors, randomly placed on a smaller set of
// hosting cores, and the schedule must match brute force over the induced
// core-level ownership.
func TestNbrSetGrouped(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var nbr NbrSet
	for trial := 0; trial < 30; trial++ {
		L := 12 + rng.Intn(9) // 12..20
		vpx, vpy := 4, 2      // 8 VPs
		cores := 2 + rng.Intn(3)
		ot := NewOwnerTable(randomCuts(rng, L, vpx), randomCuts(rng, L, vpy))
		loc := make([]int, vpx*vpy)
		for vp := range loc {
			loc[vp] = rng.Intn(cores)
		}
		groupOf := func(o int32) int { return loc[o] }
		for self := 0; self < cores; self++ {
			want := bruteNeighbors(ot, L, 3, 1, self, cores, groupOf)
			peers := nbr.Rebuild(ot, L, 3, 1, self, cores, groupOf)
			if !equalInts(peers, want) {
				t.Fatalf("L=%d cores=%d loc=%v self=%d: derived %v, brute force %v",
					L, cores, loc, self, peers, want)
			}
		}
	}
}

// TestNbrSetRebuildReusesBuffers pins the no-alloc property of the
// rebalance path: after the first Rebuild on a given domain size, further
// rebuilds (same L, changed cuts) must not allocate.
func TestNbrSetRebuildReusesBuffers(t *testing.T) {
	L := 16
	a := testOwnerTable(L, 4, 2)
	b := NewOwnerTable(randomCuts(rand.New(rand.NewSource(3)), L, 4),
		randomCuts(rand.New(rand.NewSource(4)), L, 2))
	var nbr NbrSet
	nbr.Rebuild(a, L, 3, 1, 0, 8, func(o int32) int { return int(o) })
	avg := testing.AllocsPerRun(10, func() {
		nbr.Rebuild(b, L, 3, 1, 0, 8, func(o int32) int { return int(o) })
		nbr.Rebuild(a, L, 3, 1, 0, 8, func(o int32) int { return int(o) })
	})
	if avg > 0 {
		t.Fatalf("steady-state Rebuild allocates %v/run, want 0", avg)
	}
}

// TestRingRebuildColdMemory pins the derivation's size at the paper's mesh:
// a cold rebuild at L = 2 998 on a 48×32 owner table allocates under 1 MB,
// both through NbrSet (what a rank's topology rebuild calls) and through
// Frontier alone. A per-cell mask would cost L² bytes per copy — 9 MB each.
func TestRingRebuildColdMemory(t *testing.T) {
	const L = 2998
	ot := testOwnerTable(L, 48, 32)
	for _, tc := range []struct {
		name    string
		rebuild func()
	}{
		{"NbrSet", func() {
			var nbr NbrSet
			nbr.Rebuild(ot, L, 31, 5, 0, 48*32, func(o int32) int { return int(o) })
		}},
		{"Frontier", func() {
			var fr Frontier
			fr.Rebuild(ot, L, 31, 5, func(o int32) bool { return o != 0 })
		}},
	} {
		if got := memtest.Least(1<<20-1, nil, tc.rebuild); got >= 1<<20 {
			t.Fatalf("cold %s.Rebuild at L=%d allocated %d bytes, want under 1 MB", tc.name, L, got)
		}
	}
}
