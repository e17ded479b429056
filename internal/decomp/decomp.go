// Package decomp describes how the simulation domain is partitioned among
// ranks (or virtual processors): 1D boundary arrays, 2D Cartesian-product
// decompositions, and owner lookup. The diffusion load balancer works by
// editing the boundary arrays; the Cartesian product structure is preserved,
// exactly as in the paper's two-phase scheme (§IV-B), so subdomains stay
// rectangular and neighbor communication stays regular.
package decomp

import (
	"fmt"
	"sort"
)

// Bounds is a 1D partition of [0, L) cells into n consecutive blocks:
// block i owns cells [Cuts[i], Cuts[i+1]). len(Cuts) == n+1, Cuts[0] == 0,
// Cuts[n] == L, strictly increasing (every block owns at least one cell).
type Bounds struct {
	Cuts []int
}

// NewUniformBounds splits L cells into n blocks whose sizes differ by at
// most one, the canonical static block distribution.
func NewUniformBounds(L, n int) (Bounds, error) {
	if n <= 0 || L < n {
		return Bounds{}, fmt.Errorf("decomp: cannot split %d cells into %d blocks", L, n)
	}
	cuts := make([]int, n+1)
	for i := 0; i <= n; i++ {
		cuts[i] = i * L / n
	}
	return Bounds{Cuts: cuts}, nil
}

// MustUniformBounds is NewUniformBounds that panics on error.
func MustUniformBounds(L, n int) Bounds {
	b, err := NewUniformBounds(L, n)
	if err != nil {
		panic(err)
	}
	return b
}

// N returns the number of blocks.
func (b Bounds) N() int { return len(b.Cuts) - 1 }

// L returns the total number of cells covered.
func (b Bounds) L() int { return b.Cuts[len(b.Cuts)-1] }

// Lo returns the first cell of block i.
func (b Bounds) Lo(i int) int { return b.Cuts[i] }

// Hi returns one past the last cell of block i.
func (b Bounds) Hi(i int) int { return b.Cuts[i+1] }

// Width returns the number of cells in block i.
func (b Bounds) Width(i int) int { return b.Cuts[i+1] - b.Cuts[i] }

// Owner returns the block owning the given cell index (0 <= cell < L).
func (b Bounds) Owner(cell int) int {
	if cell < 0 || cell >= b.L() {
		panic(fmt.Sprintf("decomp: cell %d outside [0,%d)", cell, b.L()))
	}
	// sort.Search finds the first cut strictly greater than cell; the block
	// index is one less.
	return sort.Search(len(b.Cuts), func(i int) bool { return b.Cuts[i] > cell }) - 1
}

// Validate checks the structural invariants.
func (b Bounds) Validate(L int) error {
	if len(b.Cuts) < 2 {
		return fmt.Errorf("decomp: bounds need at least 2 cuts, have %d", len(b.Cuts))
	}
	if b.Cuts[0] != 0 {
		return fmt.Errorf("decomp: first cut must be 0, got %d", b.Cuts[0])
	}
	if b.Cuts[len(b.Cuts)-1] != L {
		return fmt.Errorf("decomp: last cut must be %d, got %d", L, b.Cuts[len(b.Cuts)-1])
	}
	for i := 1; i < len(b.Cuts); i++ {
		if b.Cuts[i] <= b.Cuts[i-1] {
			return fmt.Errorf("decomp: cuts not strictly increasing at %d: %d -> %d", i, b.Cuts[i-1], b.Cuts[i])
		}
	}
	return nil
}

// Clone returns a deep copy.
func (b Bounds) Clone() Bounds {
	return Bounds{Cuts: append([]int(nil), b.Cuts...)}
}

// Equal reports whether two bounds describe the same partition.
func (b Bounds) Equal(o Bounds) bool {
	if len(b.Cuts) != len(o.Cuts) {
		return false
	}
	for i := range b.Cuts {
		if b.Cuts[i] != o.Cuts[i] {
			return false
		}
	}
	return true
}

// Grid2D is a Cartesian-product decomposition of an L×L cell domain over a
// PX×PY rank grid: rank (px, py) owns cells
// [X.Cuts[px], X.Cuts[px+1]) × [Y.Cuts[py], Y.Cuts[py+1]).
// Ranks are numbered row by row, x fastest: rank = py*PX + px.
type Grid2D struct {
	PX, PY int
	X, Y   Bounds
}

// NewUniform2D builds the static near-uniform decomposition used by the
// baseline driver.
func NewUniform2D(L, px, py int) (*Grid2D, error) {
	xb, err := NewUniformBounds(L, px)
	if err != nil {
		return nil, fmt.Errorf("decomp: x: %w", err)
	}
	yb, err := NewUniformBounds(L, py)
	if err != nil {
		return nil, fmt.Errorf("decomp: y: %w", err)
	}
	return &Grid2D{PX: px, PY: py, X: xb, Y: yb}, nil
}

// Validate checks both boundary arrays.
func (g *Grid2D) Validate(L int) error {
	if g.X.N() != g.PX || g.Y.N() != g.PY {
		return fmt.Errorf("decomp: grid %dx%d has %dx%d cuts", g.PX, g.PY, g.X.N(), g.Y.N())
	}
	if err := g.X.Validate(L); err != nil {
		return err
	}
	return g.Y.Validate(L)
}

// Rank returns the rank index for grid coordinates (px, py).
func (g *Grid2D) Rank(px, py int) int { return py*g.PX + px }

// Coords returns the grid coordinates of a rank.
func (g *Grid2D) Coords(rank int) (px, py int) { return rank % g.PX, rank / g.PX }

// OwnerOfCell returns the rank owning cell (cx, cy).
func (g *Grid2D) OwnerOfCell(cx, cy int) int {
	return g.Rank(g.X.Owner(cx), g.Y.Owner(cy))
}

// RankRect returns the cell rectangle owned by a rank: origin (x0, y0) and
// extents (nx, ny).
func (g *Grid2D) RankRect(rank int) (x0, y0, nx, ny int) {
	px, py := g.Coords(rank)
	return g.X.Lo(px), g.Y.Lo(py), g.X.Width(px), g.Y.Width(py)
}

// Clone returns a deep copy.
func (g *Grid2D) Clone() *Grid2D {
	return &Grid2D{PX: g.PX, PY: g.PY, X: g.X.Clone(), Y: g.Y.Clone()}
}

// Equal reports whether two decompositions are identical.
func (g *Grid2D) Equal(o *Grid2D) bool {
	return g.PX == o.PX && g.PY == o.PY && g.X.Equal(o.X) && g.Y.Equal(o.Y)
}
