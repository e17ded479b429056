package core

import "github.com/parres/picprk/internal/grid"

// This file is the spatial side of the step: a Frontier mask
// marking every cell from which one move could reach remotely-owned
// territory, and PartitionFrontier, which splits a particle container into
// an interior head (no particle there can leave this step) and a frontier
// tail.
//
// The pipeline they enable: the frontier tail moves first and its leavers
// go on the wire immediately, and the interior head moves while that
// exchange is in flight. The split is sound because the kernel's
// trajectories have an exact per-step displacement bound — (2K+1) cells in
// x and |M| cells in y (verify.go's closed form: both half-steps advance
// Dir·(2K+1) in x, and VY is constant M) — so a particle in a cell farther
// than that from any remote cell cannot leave this step. The driver still
// classifies interior particles and hard-errors if one tries to leave, so a
// wrong ring width is a loud failure, never silent corruption.

// Frontier is a dense per-cell mask over the full L×L domain: true means a
// particle in that cell could reach a cell with a remote owner in one step.
// It is the remote-owner mask dilated by the displacement ring (rx cells in
// x, ry in y), with wraparound. Rebuild it whenever ownership placement
// changes (a decomposition shift, a VP migration) — the mask is L² bools,
// so a rebuild on the rare balancing step is cheap.
type Frontier struct {
	L    int
	mask []bool
	tmp  []bool
}

// Rebuild recomputes the mask for the given owner table and ring widths.
// remote reports whether an owner index lives outside this rank (for the
// block substrate: owner != self; for the VP substrate: the owning VP is
// hosted on another core).
func (f *Frontier) Rebuild(ot *OwnerTable, L, rx, ry int, remote func(owner int32) bool) {
	f.L = L
	if len(f.mask) != L*L {
		f.mask = make([]bool, L*L)
		f.tmp = make([]bool, L*L)
	}
	// Base mask: cells with a remote owner.
	for cy := 0; cy < L; cy++ {
		row := f.tmp[cy*L:]
		for cx := 0; cx < L; cx++ {
			row[cx] = remote(ot.Owner(cx, cy))
		}
	}
	// Dilate by rx in x (wrapped), tmp → mask.
	if rx >= L/2 {
		rx = L / 2 // window spans the whole wrapped axis beyond this
	}
	if ry >= L/2 {
		ry = L / 2
	}
	for cy := 0; cy < L; cy++ {
		src := f.tmp[cy*L : cy*L+L]
		dst := f.mask[cy*L : cy*L+L]
		for cx := 0; cx < L; cx++ {
			v := false
			for d := -rx; d <= rx; d++ {
				if src[wrapCell(cx+d, L)] {
					v = true
					break
				}
			}
			dst[cx] = v
		}
	}
	// Dilate by ry in y (wrapped), mask → tmp, then swap back.
	for cy := 0; cy < L; cy++ {
		dst := f.tmp[cy*L : cy*L+L]
		for cx := 0; cx < L; cx++ {
			v := false
			for d := -ry; d <= ry; d++ {
				if f.mask[wrapCell(cy+d, L)*L+cx] {
					v = true
					break
				}
			}
			dst[cx] = v
		}
	}
	f.mask, f.tmp = f.tmp, f.mask
}

// At reports whether cell (cx, cy) is a frontier cell.
func (f *Frontier) At(cx, cy int) bool { return f.mask[cy*f.L+cx] }

// PartitionFrontier reorders s in place so that every particle in a
// non-frontier cell precedes every particle in a frontier cell, and returns
// the number of interior particles: [0, n) is the interior head, [n, Len)
// the frontier tail. It is a two-ended swap partition — each particle is
// classified once and only one whose class disagrees with its end of the
// container moves — so a step costs one pass over the positions plus a swap
// per particle that drifted across the ring's edge since the last step, not
// a full reorder. Order within a container is no contract: updates are
// per-particle independent, and every identity test and verification is
// order-free or sorts by ID.
func PartitionFrontier(s *SoA, m grid.Mesh, f *Frontier) int {
	frontier := func(i int) bool {
		cx, cy := m.CellOf(s.X[i], s.Y[i])
		return f.At(cx, cy)
	}
	i, j := 0, s.Len()-1
	for {
		for i <= j && !frontier(i) {
			i++
		}
		for i < j && frontier(j) {
			j--
		}
		if i >= j {
			return i
		}
		s.swap(i, j)
		i++
		j--
	}
}

func (s *SoA) swap(i, j int) {
	s.X[i], s.X[j] = s.X[j], s.X[i]
	s.Y[i], s.Y[j] = s.Y[j], s.Y[i]
	s.VX[i], s.VX[j] = s.VX[j], s.VX[i]
	s.VY[i], s.VY[j] = s.VY[j], s.VY[i]
	s.Q[i], s.Q[j] = s.Q[j], s.Q[i]
	s.Meta[i], s.Meta[j] = s.Meta[j], s.Meta[i]
}

func wrapCell(c, L int) int {
	c %= L
	if c < 0 {
		c += L
	}
	return c
}

// TilePlan and SortByTile below are called only by bench/micro.go; delete
// them with the core.sort_by_tile_ns_per_particle row in the next benchmark
// PR. The step partitions with PartitionFrontier instead.

// TilePlan partitions the cell rectangle [x0, x0+nx) × [y0, y0+ny) into
// tiles. The rectangle is covered by a grid of size×size cell tiles (ragged
// at the far edges); each grid tile then splits into up to two plan tiles —
// its interior cells and its frontier cells — so the boundary/interior
// classification is exact per cell, not rounded to tile granularity. Tile
// ids are ordered interior first: ids [0, NumInterior) are interior tiles,
// ids [NumInterior, NumTiles) are boundary tiles. Sorting particles by tile
// id therefore lands every boundary particle in one contiguous tail, which
// is what lets the exchange scatter touch only the tail of the SoA.
//
// Every cell of the rectangle belongs to exactly one tile
// (TestTilePlanCoversEveryCellOnce pins this for assorted shapes).
type TilePlan struct {
	x0, y0, nx, ny int
	// tileOf maps local cell (cy-y0)*nx + (cx-x0) to its tile id.
	tileOf            []int32
	nInterior, nTiles int
	boundaryCells     int
}

// Build recomputes the plan for the rectangle against the frontier mask.
// size is the tile edge in cells (minimum 1); a size covering the whole
// rectangle degenerates to at most one interior and one boundary tile.
func (tp *TilePlan) Build(fr *Frontier, x0, y0, nx, ny, size int) {
	if size < 1 {
		size = 1
	}
	tp.x0, tp.y0, tp.nx, tp.ny = x0, y0, nx, ny
	if len(tp.tileOf) < nx*ny {
		tp.tileOf = make([]int32, nx*ny)
	}
	gx := (nx + size - 1) / size
	gy := (ny + size - 1) / size
	// First pass: which grid tiles have interior cells, which have frontier
	// cells. Encoded as 2 bits per grid tile in a small scratch walk — the
	// plan rebuild is rare (init and balancing steps only), so clarity over
	// cleverness.
	hasInterior := make([]bool, gx*gy)
	hasBoundary := make([]bool, gx*gy)
	for ly := 0; ly < ny; ly++ {
		g := (ly / size) * gx
		for lx := 0; lx < nx; lx++ {
			if fr.At(x0+lx, y0+ly) {
				hasBoundary[g+lx/size] = true
			} else {
				hasInterior[g+lx/size] = true
			}
		}
	}
	// Second pass: assign ids — interior parts first (row-major over grid
	// tiles), boundary parts after.
	nInterior := 0
	for _, h := range hasInterior {
		if h {
			nInterior++
		}
	}
	interiorID := make([]int32, gx*gy)
	boundaryID := make([]int32, gx*gy)
	ii, bi := int32(0), int32(nInterior)
	for g := range interiorID {
		if hasInterior[g] {
			interiorID[g] = ii
			ii++
		}
		if hasBoundary[g] {
			boundaryID[g] = bi
			bi++
		}
	}
	tp.nInterior, tp.nTiles = nInterior, int(bi)
	tp.boundaryCells = 0
	for ly := 0; ly < ny; ly++ {
		g := (ly / size) * gx
		row := tp.tileOf[ly*nx:]
		for lx := 0; lx < nx; lx++ {
			if fr.At(x0+lx, y0+ly) {
				row[lx] = boundaryID[g+lx/size]
				tp.boundaryCells++
			} else {
				row[lx] = interiorID[g+lx/size]
			}
		}
	}
}

// NumTiles returns the total tile count.
func (tp *TilePlan) NumTiles() int { return tp.nTiles }

// NumInterior returns the number of interior tiles; boundary tiles occupy
// ids [NumInterior, NumTiles).
func (tp *TilePlan) NumInterior() int { return tp.nInterior }

// BoundaryCells returns how many cells of the rectangle are frontier cells.
func (tp *TilePlan) BoundaryCells() int { return tp.boundaryCells }

// TileOf returns the tile id of the global cell (cx, cy), which must lie
// inside the plan's rectangle.
func (tp *TilePlan) TileOf(cx, cy int) int32 {
	return tp.tileOf[(cy-tp.y0)*tp.nx+(cx-tp.x0)]
}

// SortByTile stably reorders src into dst by tile id: dst holds src's
// particles grouped by tile, ascending, with the original order preserved
// within each tile. tid[i] is the tile id of src particle i (in [0, nt));
// starts must have length nt+1 and receives the tile range offsets
// (tile t occupies dst indices [starts[t], starts[t+1])); cur must have
// length ≥ nt and is clobbered. dst is resized to src's length; with
// caller-reused buffers the sort allocates nothing once capacities reach
// their high-water marks.
func SortByTile(dst, src *SoA, tid []int32, nt int, starts, cur []int32) {
	n := src.Len()
	dst.Resize(n)
	for t := 0; t <= nt; t++ {
		starts[t] = 0
	}
	for _, t := range tid {
		starts[t+1]++
	}
	for t := 0; t < nt; t++ {
		starts[t+1] += starts[t]
		cur[t] = starts[t]
	}
	for i := 0; i < n; i++ {
		t := tid[i]
		w := cur[t]
		cur[t] = w + 1
		dst.X[w], dst.Y[w] = src.X[i], src.Y[i]
		dst.VX[w], dst.VY[w] = src.VX[i], src.VY[i]
		dst.Q[w] = src.Q[i]
		dst.Meta[w] = src.Meta[i]
	}
}

// Resize sets the container's length to n, growing capacity as needed.
// It is a scratch-buffer primitive: slots hold unspecified values after a
// growing Resize until written.
func (s *SoA) Resize(n int) {
	s.X = resized(s.X, n)
	s.Y = resized(s.Y, n)
	s.VX = resized(s.VX, n)
	s.VY = resized(s.VY, n)
	s.Q = resized(s.Q, n)
	s.Meta = resized(s.Meta, n)
}

func resized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
