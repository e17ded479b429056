// Package grid provides the simulation mesh of the PIC PRK: a periodic
// L×L arrangement of square cells with fixed charges at the mesh points.
//
// Mesh points sit at integer coordinates (i, j) with 0 <= i, j < L; the
// charge at a mesh point depends only on the parity of its column index:
// +q on even columns, -q on odd columns (paper §III-C). Because the domain
// is periodic, L must be even so that column parities remain consistent
// across the wrap-around boundary.
//
// Although charges are formulaic, parallel drivers materialize them into
// per-rank Blocks (with a one-point ghost ring) so that domain migration
// moves real data and force evaluation exercises ownership, exactly as the
// paper's reference implementations do.
package grid

import (
	"fmt"
	"math"
)

// DefaultCharge is the default magnitude q of the fixed mesh charges.
const DefaultCharge = 1.0

// Mesh describes the global simulation domain: L×L square cells of size
// h×h with periodic boundaries. The PRK specification fixes h = 1, which
// keeps particle coordinates on an exactly-representable half-integer
// lattice; Mesh retains h as a field for clarity but the constructor
// enforces h = 1.
type Mesh struct {
	// L is the number of cells along each coordinate direction. It must
	// be even and positive.
	L int
	// Q is the magnitude of the fixed charges at mesh points.
	Q float64
}

// NewMesh validates the domain parameters and returns a Mesh.
// L must be positive and even (paper §III-C: "L must be an even multiple
// of h to ensure smooth periodic boundary transitions").
func NewMesh(L int, q float64) (Mesh, error) {
	if L <= 0 {
		return Mesh{}, fmt.Errorf("grid: L must be positive, got %d", L)
	}
	if L%2 != 0 {
		return Mesh{}, fmt.Errorf("grid: L must be even, got %d", L)
	}
	if q <= 0 || math.IsNaN(q) || math.IsInf(q, 0) {
		return Mesh{}, fmt.Errorf("grid: charge magnitude must be positive and finite, got %v", q)
	}
	return Mesh{L: L, Q: q}, nil
}

// MustMesh is NewMesh that panics on error, for callers whose L and q are
// fixed by the program (a verification scenario, a figure, a benchmark
// workload) rather than read from input: an error there is a bug.
func MustMesh(L int, q float64) Mesh {
	m, err := NewMesh(L, q)
	if err != nil {
		panic(err)
	}
	return m
}

// Size returns the physical extent of the domain (L·h with h = 1).
func (m Mesh) Size() float64 { return float64(m.L) }

// Cells returns the total number of cells, L².
func (m Mesh) Cells() int64 { return int64(m.L) * int64(m.L) }

// PointCharge returns the fixed charge at mesh point (i, j). Indices may be
// any integers; they are wrapped periodically. The charge depends only on
// the parity of the wrapped column index i: +Q for even, -Q for odd.
func (m Mesh) PointCharge(i, j int) float64 {
	i = WrapIndex(i, m.L)
	if i%2 == 0 {
		return m.Q
	}
	return -m.Q
}

// ColumnSign returns +1 for even cell-column index and -1 for odd, after
// periodic wrapping. A particle in an even column sits between a +Q column
// of points on its left and a -Q column on its right.
func (m Mesh) ColumnSign(i int) int {
	if WrapIndex(i, m.L)%2 == 0 {
		return 1
	}
	return -1
}

// CellOf returns the cell indices containing position (x, y), assuming the
// position already lies in [0, L). Positions exactly on the upper domain
// edge are treated as wrapped to 0 by WrapCoord before calling this.
func (m Mesh) CellOf(x, y float64) (cx, cy int) {
	cx = int(math.Floor(x))
	cy = int(math.Floor(y))
	// Guard against x == L due to floating rounding right at the edge.
	if cx >= m.L {
		cx -= m.L
	}
	if cy >= m.L {
		cy -= m.L
	}
	if cx < 0 {
		cx += m.L
	}
	if cy < 0 {
		cy += m.L
	}
	return cx, cy
}

// WrapCoord maps a coordinate onto the periodic domain [0, L). A coordinate
// already inside is returned as is — math.Mod is the identity there, bit
// for bit (−0 included), and a particle crosses the domain edge on a small
// share of its moves, so the branch keeps the division out of the kernel
// (and, the slow path being its own function, inlines into the move loops).
// It is Wrap with the mesh's extent, spelled out so that the move loops
// reach the out-of-range path through a Mesh, as they always have: the
// same loops calling wrapOutside(x, L) directly compile to a different
// layout, measured 50% slower on BenchmarkMoveSoA and 22% on the
// churn_ckpt_worksteal step on the 2-core reference box.
func (m Mesh) WrapCoord(x float64) float64 {
	if x >= 0 && x < float64(m.L) {
		return x
	}
	return m.wrapOutside(x)
}

// wrapOutside is wrapOutside with the mesh's extent. It must not inline:
// the move loops' call to it, and so their code, stays as WrapCoord needs.
//
//go:noinline
func (m Mesh) wrapOutside(x float64) float64 { return wrapOutside(x, float64(m.L)) }

// Wrap maps x onto [0, L), bit for bit what math.Mod(x, L) gives once a
// negative remainder is shifted up by L, by WrapCoord's rule: the kernel's
// move and the closed-form trajectory of particle.ExpectedAt wrap alike.
func Wrap(x, L float64) float64 {
	if x >= 0 && x < L {
		return x
	}
	return wrapOutside(x, L)
}

// wrapOutside wraps a coordinate outside [0, L). Within one period of the
// domain — where a fast particle lands on about half its moves — it needs no
// division: for L ≤ x < 2L, x − L is exact (Sterbenz) and is math.Mod(x, L)
// bit for bit, and for −L < x < 0 math.Mod is the identity. x = −L and
// everything farther out take math.Mod; −L must, because Mod gives −0 there
// and the sum below would give +0.
func wrapOutside(x, L float64) float64 {
	if x >= L && x < 2*L {
		return x - L
	}
	if !(x > -L && x < L) { // NaN included
		x = math.Mod(x, L)
	}
	if x < 0 {
		x += L
	}
	if x >= L { // math.Mod can return exactly L after += for tiny negatives
		x -= L
	}
	return x
}

// WrapIndex maps an integer index onto [0, n). It accepts any integer,
// including large negative values.
func WrapIndex(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Block is a materialized rectangular sub-block of the global charge field,
// augmented with a one-point ghost ring on every side. Drivers own one Block
// per rank (or per virtual processor); force evaluation reads only from the
// local Block, so a decomposition bug surfaces as a verification failure
// rather than silently reading a formula.
type Block struct {
	mesh Mesh
	// X0, Y0 are the global indices of the first owned mesh point column/row.
	X0, Y0 int
	// NX, NY are the numbers of owned mesh point columns/rows. The block
	// covers owned cells [X0, X0+NX) × [Y0, Y0+NY); force evaluation for a
	// particle in owned cell (cx, cy) needs points up to (cx+1, cy+1), which
	// the ghost ring provides.
	NX, NY int
	// charges holds (NX+2)·(NY+2) values in column-major order including
	// the ghost ring: entry (gi, gj) with gi in [-1, NX] and gj in [-1, NY]
	// lives at index (gi+1)*(NY+2) + (gj+1). That is the order particles
	// sit in their containers (column, then row; core.Fill), so the
	// kernel's charge reads walk the array front to back. What a block
	// ships (AppendRect, CheckRect) stays row-major.
	charges []float64
}

// NewBlock materializes the charge field for owned cell columns
// [x0, x0+nx) and rows [y0, y0+ny), including the ghost ring. nx and ny
// must be positive and no larger than L.
func NewBlock(m Mesh, x0, y0, nx, ny int) (*Block, error) {
	b := &Block{}
	if err := b.Reinit(m, x0, y0, nx, ny); err != nil {
		return nil, err
	}
	return b, nil
}

// Reinit re-materializes the block in place for a new rectangle, reusing the
// charge storage when its capacity suffices. Migration arrivals restore
// recycled VP shells through it instead of allocating a fresh block.
func (b *Block) Reinit(m Mesh, x0, y0, nx, ny int) error {
	if nx <= 0 || ny <= 0 {
		return fmt.Errorf("grid: block dimensions must be positive, got %dx%d", nx, ny)
	}
	if nx > m.L || ny > m.L {
		return fmt.Errorf("grid: block %dx%d exceeds domain %d", nx, ny, m.L)
	}
	need := (nx + 2) * (ny + 2)
	if cap(b.charges) < need {
		b.charges = make([]float64, need)
	}
	b.charges = b.charges[:need]
	b.mesh, b.X0, b.Y0, b.NX, b.NY = m, WrapIndex(x0, m.L), WrapIndex(y0, m.L), nx, ny
	for gi := -1; gi <= nx; gi++ {
		for gj := -1; gj <= ny; gj++ {
			b.charges[b.idx(gi, gj)] = m.PointCharge(x0+gi, y0+gj)
		}
	}
	return nil
}

func (b *Block) idx(gi, gj int) int { return (gi+1)*(b.NY+2) + (gj + 1) }

// Mesh returns the global mesh this block was cut from.
func (b *Block) Mesh() Mesh { return b.mesh }

// Charge returns the charge at global mesh point (i, j), which must lie
// within the block's owned region or its one-point ghost ring. Indices are
// interpreted relative to the periodic domain: the caller passes global
// indices that may exceed L by one at the periodic seam.
func (b *Block) Charge(i, j int) float64 {
	gi := i - b.X0
	gj := j - b.Y0
	// Re-interpret across the periodic seam: a block starting near L-1 may
	// be asked for point 0, which is its ghost point NX (or similar).
	if gi < -1 {
		gi += b.mesh.L
	}
	if gi > b.NX {
		gi -= b.mesh.L
	}
	if gj < -1 {
		gj += b.mesh.L
	}
	if gj > b.NY {
		gj -= b.mesh.L
	}
	if gi < -1 || gi > b.NX || gj < -1 || gj > b.NY {
		panic(fmt.Sprintf("grid: point (%d,%d) outside block [%d,%d)x[%d,%d) ghost region",
			i, j, b.X0, b.X0+b.NX, b.Y0, b.Y0+b.NY))
	}
	return b.charges[b.idx(gi, gj)]
}

// CornerCharges returns the charges at the four mesh-point corners of the
// owned cell (cx, cy), in the kernel's fixed order: (cx,cy), (cx+1,cy),
// (cx,cy+1), (cx+1,cy+1). It is the devirtualized fast path of the move
// kernel: for an owned cell the four corners are two adjacent pairs, one
// per point column, in the column-major charge array (the ghost ring
// guarantees the +1 neighbors are materialized), so the lookup is four
// indexed loads with no per-corner seam arithmetic, and particles in cell
// order read the pairs in memory order. A cell outside the owned region
// falls back to the generic Charge path, which diagnoses genuinely
// out-of-range requests.
func (b *Block) CornerCharges(cx, cy int) (q00, q10, q01, q11 float64) {
	gi := cx - b.X0
	if gi < 0 {
		gi += b.mesh.L
	}
	gj := cy - b.Y0
	if gj < 0 {
		gj += b.mesh.L
	}
	if gi >= b.NX || gj >= b.NY || gi < 0 || gj < 0 {
		return b.Charge(cx, cy), b.Charge(cx+1, cy), b.Charge(cx, cy+1), b.Charge(cx+1, cy+1)
	}
	h := b.NY + 2
	c := (gi+1)*h + gj + 1
	return b.charges[c], b.charges[c+h], b.charges[c+1], b.charges[c+h+1]
}

// rect locates the owned mesh points [x0, x0+w) × [y0, y0+h), given in
// global coordinates, in the block: the offset of the first from the block's
// first owned point, across the periodic seam. A rectangle that is empty or
// not wholly owned is an error. The extents are checked against the block's
// before anything multiplies them, so w·h cannot overflow.
func (b *Block) rect(x0, y0, w, h int) (gi, gj int, err error) {
	L := b.mesh.L
	if w <= 0 || h <= 0 || x0 < 0 || x0 >= L || y0 < 0 || y0 >= L {
		return 0, 0, fmt.Errorf("grid: rectangle %dx%d at (%d,%d) is empty or outside the %d-point domain", w, h, x0, y0, L)
	}
	gi, gj = x0-b.X0, y0-b.Y0
	if gi < 0 {
		gi += L
	}
	if gj < 0 {
		gj += L
	}
	if w > b.NX-gi || h > b.NY-gj {
		return 0, 0, fmt.Errorf("grid: rectangle %dx%d at (%d,%d) outside block [%d,%d)x[%d,%d)",
			w, h, x0, y0, b.X0, b.X0+b.NX, b.Y0, b.Y0+b.NY)
	}
	return gi, gj, nil
}

// AppendRect appends the charges of the owned mesh points [x0, x0+w) ×
// [y0, y0+h) to dst in row-major order. Coordinates are global; the
// rectangle may run across the periodic seam. Migration ships a block's
// ceded points, or a whole VP's, this way. The caller derives the rectangle
// from the block's own decomposition, so one not wholly owned is a
// programming error and panics, as Charge does.
func (b *Block) AppendRect(dst []float64, x0, y0, w, h int) []float64 {
	gi, gj, err := b.rect(x0, y0, w, h)
	if err != nil {
		panic(err)
	}
	for k := 0; k < h; k++ {
		for i := 0; i < w; i++ {
			dst = append(dst, b.charges[b.idx(gi+i, gj+k)])
		}
	}
	return dst
}

// CheckRect checks data — the row-major charges of the owned mesh points
// [x0, x0+w) × [y0, y0+h), as AppendRect produced them on another rank —
// against this block's field. A rectangle not wholly owned, a length that
// does not match it and any differing value are errors: corruption in
// transit is detected, not silently repaired.
func (b *Block) CheckRect(data []float64, x0, y0, w, h int) error {
	gi, gj, err := b.rect(x0, y0, w, h)
	if err != nil {
		return err
	}
	if len(data) != w*h {
		return fmt.Errorf("grid: rectangle data length %d != %dx%d", len(data), w, h)
	}
	for k := 0; k < h; k++ {
		for i := 0; i < w; i++ {
			if got, want := data[k*w+i], b.charges[b.idx(gi+i, gj+k)]; got != want {
				return fmt.Errorf("grid: migrated charge mismatch at point (%d,%d): got %v want %v",
					WrapIndex(x0+i, b.mesh.L), WrapIndex(y0+k, b.mesh.L), got, want)
			}
		}
	}
	return nil
}

// ReinitFromData is Reinit for a block whose owned values were shipped from
// another rank: they are checked against the formulaic field (CheckRect),
// and the ghost ring is recomputed locally, as a real code would refresh
// halos after migration.
func (b *Block) ReinitFromData(m Mesh, x0, y0, nx, ny int, data []float64) error {
	// Before anything is allocated; the quotient catches a product that
	// wrapped around to len(data).
	if len(data) != nx*ny || (nx > 0 && len(data)/nx != ny) {
		return fmt.Errorf("grid: block data length %d != %dx%d", len(data), nx, ny)
	}
	if err := b.Reinit(m, x0, y0, nx, ny); err != nil {
		return err
	}
	return b.CheckRect(data, b.X0, b.Y0, nx, ny)
}
