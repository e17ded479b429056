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

// MustMesh is NewMesh that panics on error; intended for tests and examples
// with known-good constants.
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

// Charge is an alias for PointCharge so that Mesh satisfies the kernel's
// ChargeSource interface directly (the formulaic global field), just as a
// materialized Block does (the per-rank field with ghosts).
func (m Mesh) Charge(i, j int) float64 { return m.PointCharge(i, j) }

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
func (m Mesh) WrapCoord(x float64) float64 {
	if x >= 0 && x < float64(m.L) {
		return x
	}
	return m.wrapOutside(x)
}

// wrapOutside wraps a coordinate outside [0, L). Within one period of the
// domain — where a fast particle lands on about half its moves — it needs no
// division: for L ≤ x < 2L, x − L is exact (Sterbenz) and is math.Mod(x, L)
// bit for bit, and for −L < x < 0 math.Mod is the identity. x = −L and
// everything farther out take math.Mod; −L must, because Mod gives −0 there
// and the sum below would give +0.
func (m Mesh) wrapOutside(x float64) float64 {
	L := float64(m.L)
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
	// charges holds (NX+2)·(NY+2) values in row-major order including the
	// ghost ring: entry (gi, gj) with gi in [-1, NX] and gj in [-1, NY]
	// lives at index (gj+1)*(NX+2) + (gi+1).
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
	for gj := -1; gj <= ny; gj++ {
		for gi := -1; gi <= nx; gi++ {
			b.charges[b.idx(gi, gj)] = m.PointCharge(x0+gi, y0+gj)
		}
	}
	return nil
}

func (b *Block) idx(gi, gj int) int { return (gj+1)*(b.NX+2) + (gi + 1) }

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
// kernel: for an owned cell the four corners are two adjacent pairs in the
// row-major charge array (the ghost ring guarantees the +1 neighbors are
// materialized), so the lookup is four indexed loads with no per-corner
// seam arithmetic. A cell outside the owned region falls back to the
// generic Charge path, which diagnoses genuinely out-of-range requests.
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
	w := b.NX + 2
	row := (gj+1)*w + gi + 1
	return b.charges[row], b.charges[row+1], b.charges[row+w], b.charges[row+w+1]
}

// OwnsCell reports whether global cell (cx, cy) is owned by this block.
// The periodic seam is handled: ownership is tested on wrapped indices.
func (b *Block) OwnsCell(cx, cy int) bool {
	cx = WrapIndex(cx, b.mesh.L)
	cy = WrapIndex(cy, b.mesh.L)
	dx := cx - b.X0
	if dx < 0 {
		dx += b.mesh.L
	}
	dy := cy - b.Y0
	if dy < 0 {
		dy += b.mesh.L
	}
	return dx < b.NX && dy < b.NY
}

// Bytes returns the approximate in-memory size of the block's charge data,
// used by migration cost accounting.
func (b *Block) Bytes() int { return 8 * len(b.charges) }

// ExtractColumns returns the charge values of owned mesh-point columns
// [c0, c0+w) relative to the block (0 <= c0, c0+w <= NX), as a dense
// row-major slice of w·NY values. Used when diffusion LB ships boundary
// columns to a neighbor.
func (b *Block) ExtractColumns(c0, w int) ([]float64, error) {
	if c0 < 0 || w <= 0 || c0+w > b.NX {
		return nil, fmt.Errorf("grid: column range [%d,%d) outside block width %d", c0, c0+w, b.NX)
	}
	out := make([]float64, 0, w*b.NY)
	for gj := 0; gj < b.NY; gj++ {
		for gi := c0; gi < c0+w; gi++ {
			out = append(out, b.charges[b.idx(gi, gj)])
		}
	}
	return out, nil
}

// ExtractRows returns the charge values of owned mesh-point rows
// [r0, r0+h) relative to the block (0 <= r0, r0+h <= NY), as a dense
// row-major slice of NX·h values. Used when the two-phase diffusion LB
// ships boundary rows to a y-neighbor.
func (b *Block) ExtractRows(r0, h int) ([]float64, error) {
	if r0 < 0 || h <= 0 || r0+h > b.NY {
		return nil, fmt.Errorf("grid: row range [%d,%d) outside block height %d", r0, r0+h, b.NY)
	}
	out := make([]float64, 0, h*b.NX)
	for gj := r0; gj < r0+h; gj++ {
		for gi := 0; gi < b.NX; gi++ {
			out = append(out, b.charges[b.idx(gi, gj)])
		}
	}
	return out, nil
}

// ValidateRows checks that row data received from another rank matches this
// block's field for owned mesh-point rows starting at global index rowY0.
// rows is row-major (h rows × NX columns) as produced by ExtractRows.
func (b *Block) ValidateRows(rows []float64, rowY0 int) error {
	if len(rows) == 0 {
		return nil
	}
	h := len(rows) / b.NX
	if h*b.NX != len(rows) {
		return fmt.Errorf("grid: row data length %d not divisible by nx=%d", len(rows), b.NX)
	}
	for k := 0; k < h; k++ {
		gj := rowY0 - b.Y0 + k
		if gj < -1 {
			gj += b.mesh.L
		}
		if gj > b.NY {
			gj -= b.mesh.L
		}
		if gj < 0 || gj >= b.NY {
			return fmt.Errorf("grid: incoming row %d outside block [%d,%d)", rowY0+k, b.Y0, b.Y0+b.NY)
		}
		for gi := 0; gi < b.NX; gi++ {
			want := b.charges[b.idx(gi, gj)]
			got := rows[k*b.NX+gi]
			if want != got {
				return fmt.Errorf("grid: migrated charge mismatch at point (%d,%d): got %v want %v",
					b.X0+gi, rowY0+k, got, want)
			}
		}
	}
	return nil
}

// ValidateColumns checks that column data received from another rank
// matches this block's field for owned mesh-point columns starting at
// global index colX0. cols is row-major (w columns × NY rows) as produced
// by ExtractColumns. A mismatch indicates a migration protocol bug.
func (b *Block) ValidateColumns(cols []float64, colX0 int) error {
	if len(cols) == 0 {
		return nil
	}
	w := len(cols) / b.NY
	if w*b.NY != len(cols) {
		return fmt.Errorf("grid: column data length %d not divisible by ny=%d", len(cols), b.NY)
	}
	for gj := 0; gj < b.NY; gj++ {
		for k := 0; k < w; k++ {
			gi := colX0 - b.X0 + k
			if gi < -1 {
				gi += b.mesh.L
			}
			if gi > b.NX {
				gi -= b.mesh.L
			}
			if gi < 0 || gi >= b.NX {
				return fmt.Errorf("grid: incoming column %d outside block [%d,%d)", colX0+k, b.X0, b.X0+b.NX)
			}
			want := b.charges[b.idx(gi, gj)]
			got := cols[gj*w+k]
			if want != got {
				return fmt.Errorf("grid: migrated charge mismatch at point (%d,%d): got %v want %v",
					colX0+k, b.Y0+gj, got, want)
			}
		}
	}
	return nil
}

// OwnedData returns a copy of the owned (non-ghost) charge values in
// row-major order, NX×NY. Virtual-processor migration packs this so that
// moving a VP ships its grid data, as the paper's PUP routines do.
func (b *Block) OwnedData() []float64 {
	return b.AppendOwnedData(make([]float64, 0, b.NX*b.NY))
}

// AppendOwnedData is the allocation-free form of OwnedData: the owned values
// append to dst, which migration packing reuses across epochs.
func (b *Block) AppendOwnedData(dst []float64) []float64 {
	for gj := 0; gj < b.NY; gj++ {
		for gi := 0; gi < b.NX; gi++ {
			dst = append(dst, b.charges[b.idx(gi, gj)])
		}
	}
	return dst
}

// NewBlockFromData rebuilds a block whose owned values were shipped from
// another rank, validating them against the formulaic field (corruption in
// transit is detected, not silently repaired). The ghost ring is recomputed
// locally, as a real code would refresh halos after migration.
func NewBlockFromData(m Mesh, x0, y0, nx, ny int, data []float64) (*Block, error) {
	b := &Block{}
	if err := b.ReinitFromData(m, x0, y0, nx, ny, data); err != nil {
		return nil, err
	}
	return b, nil
}

// ReinitFromData is NewBlockFromData into an existing block, reusing its
// storage where capacity allows.
func (b *Block) ReinitFromData(m Mesh, x0, y0, nx, ny int, data []float64) error {
	if len(data) != nx*ny {
		return fmt.Errorf("grid: block data length %d != %dx%d", len(data), nx, ny)
	}
	if err := b.Reinit(m, x0, y0, nx, ny); err != nil {
		return err
	}
	for gj := 0; gj < ny; gj++ {
		for gi := 0; gi < nx; gi++ {
			want := b.charges[b.idx(gi, gj)]
			got := data[gj*nx+gi]
			if got != want {
				return fmt.Errorf("grid: migrated block data mismatch at point (%d,%d): got %v want %v",
					x0+gi, y0+gj, got, want)
			}
		}
	}
	return nil
}

// Resize rebuilds the block for a new owned region. Drivers call this after
// a load-balancing step changed the decomposition. The incoming column data
// (from ExtractColumns on the sending side) is validated against the
// formulaic field: a mismatch indicates a migration protocol bug and is
// returned as an error rather than silently repaired.
func (b *Block) Resize(x0, y0, nx, ny int, incoming []float64, incomingX0 int) error {
	nb, err := NewBlock(b.mesh, x0, y0, nx, ny)
	if err != nil {
		return err
	}
	if incoming != nil {
		w := len(incoming) / ny
		if w*ny != len(incoming) {
			return fmt.Errorf("grid: incoming column data length %d not divisible by ny=%d", len(incoming), ny)
		}
		for gj := 0; gj < ny; gj++ {
			for k := 0; k < w; k++ {
				gi := incomingX0 - x0 + k
				if gi < 0 || gi >= nx {
					return fmt.Errorf("grid: incoming column %d outside new block", incomingX0+k)
				}
				want := nb.charges[nb.idx(gi, gj)]
				got := incoming[gj*w+k]
				if want != got {
					return fmt.Errorf("grid: migrated charge mismatch at point (%d,%d): got %v want %v",
						incomingX0+k, y0+gj, got, want)
				}
			}
		}
	}
	*b = *nb
	return nil
}
