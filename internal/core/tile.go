package core

import "slices"

// This file is the spatial side of the step: Frontier, which marks every
// cell from which one move could reach remotely-owned territory. The
// kernel's trajectories have an exact per-step displacement bound — (2K+1)
// cells in x and |M| cells in y (verify.go's closed form: both half-steps
// advance Dir·(2K+1) in x, and VY is constant M) — so a particle in a cell
// farther than that from any remote cell cannot leave this step. NbrSet
// (neighbors.go) derives the sparse exchange schedule from the same pass.
//
// The answer is derived at the owner table's granularity, never per mesh
// cell. The table is a Cartesian product, so each axis is a short list of
// owner runs, and the cells of an axis fall into classes: maximal stretches
// with the same home run whose wrapped windows [c−r, c+r] touch the same
// runs. Every block in the product of two classes' reach ranges has a cell
// inside the window of every cell of the class pair, so "some cell in the
// window is remote" is exactly "some block in the product is remote" — one
// answer per class pair. An axis of n runs has at most 3n classes (the
// home, the window's first run and its last run each advance n times), so
// the state is two L-length class arrays and a table of at most nine
// entries per owner, and a rebuild costs O(L) plus one pass over the pairs.

// Frontier reports, per mesh cell, whether a particle in that cell could
// reach a cell with a remote owner in one step: some cell within the
// displacement ring (rx cells in x, ry in y, wrapped) has a remote owner.
// Rebuild it whenever ownership placement changes (a decomposition shift, a
// VP migration). A Frontier is reusable: Rebuild keeps its storage, so a
// rebuild on a mesh of the same size allocates nothing once warm.
type Frontier struct {
	x, y ringAxis
	// front[xc·len(y.classes) + yc] answers class pair (xc, yc); x.class
	// holds xc already multiplied by the y class count, so At is two reads
	// and a sum.
	front []bool
}

// ringAxis is one axis of the derivation: its owner runs, its classes, and
// each cell's class index (times the axis stride).
type ringAxis struct {
	runs    []ownerRun
	classes []ringClass
	class   []int32
}

// ownerRun is one maximal run of cells on an axis owned by a single block:
// the cells from the previous run's end up to hi all map to block idx. The
// owner table's monotone cut structure means every non-empty block
// contributes exactly one run per axis.
type ownerRun struct {
	idx int32
	hi  int
}

// ringClass is a stretch of cells whose home is block home and whose
// windows touch runs first, first+1, …, first+n−1 (mod the run count).
type ringClass struct {
	home     int32
	first, n int
}

// Rebuild recomputes the frontier for the given owner table and ring widths.
// remote reports whether an owner index lives outside this rank (for the
// block substrate: owner != self; for the VP substrate: the owning VP is
// hosted on another core).
func (f *Frontier) Rebuild(ot *OwnerTable, L, rx, ry int, remote func(owner int32) bool) {
	f.rebuild(ot, L, rx, ry, remote, func(int32) {})
}

// rebuild is the one class-pair pass behind Frontier.Rebuild and
// NbrSet.Rebuild. It fills the frontier table and hands reached every owner whose block a window of a local cell touches
// (owners may repeat).
func (f *Frontier) rebuild(ot *OwnerTable, L, rx, ry int, remote func(owner int32) bool, reached func(owner int32)) {
	f.y.rebuild(ot.yOwner[:L], ry, 1)
	f.x.rebuild(ot.xOwner[:L], rx, len(f.y.classes))
	nx, ny := len(f.x.runs), len(f.y.runs)
	pairs := len(f.x.classes) * len(f.y.classes)
	f.front = slices.Grow(f.front[:0], pairs)[:pairs]
	k := 0
	for _, xc := range f.x.classes {
		for _, yc := range f.y.classes {
			// A cell's own block is inside its window, so a remote home
			// settles the pair; a local one scans the whole reach.
			front := remote(yc.home*ot.px + xc.home)
			if !front {
				for j := range yc.n {
					row := f.y.runs[(yc.first+j)%ny].idx * ot.px
					for i := range xc.n {
						o := row + f.x.runs[(xc.first+i)%nx].idx
						front = front || remote(o)
						reached(o)
					}
				}
			}
			f.front[k] = front
			k++
		}
	}
}

// rebuild splits the axis owner array into runs and classes for ring width
// r, recording each cell's class index times stride.
func (a *ringAxis) rebuild(owner []int32, r, stride int) {
	L := len(owner)
	r = min(r, L/2) // a window of 2·(L/2)+1 ≥ L cells already covers the axis
	a.runs = a.runs[:0]
	for c := 0; c < L; {
		v := owner[c]
		for c++; c < L && owner[c] == v; c++ {
		}
		a.runs = append(a.runs, ownerRun{idx: v, hi: c})
	}
	n := len(a.runs)
	// The window's edges c−r and c+r walk forward through the runs of three
	// laps, [−L, 0), [0, L) and [L, 2L): unwrapped run k is run k mod n
	// shifted by k/n − 1 laps. Counting the runs between the edges in that
	// numbering is what keeps a window that leaves its home run and
	// re-enters it around the wrap from being read as touching one run.
	end := func(k int) int { return a.runs[k%n].hi + (k/n-1)*L }
	a.classes = a.classes[:0]
	a.class = slices.Grow(a.class[:0], L)[:L]
	home, lo, hi := 0, 0, 0
	loEnd, hiEnd := end(0), end(0)
	for c := 0; c < L; c++ {
		for a.runs[home].hi <= c {
			home++
		}
		for loEnd <= c-r {
			lo++
			loEnd = end(lo)
		}
		for hiEnd <= c+r {
			hi++
			hiEnd = end(hi)
		}
		cl := ringClass{home: a.runs[home].idx, first: lo % n, n: min(hi-lo+1, n)}
		if cl.n == n {
			cl.first = 0 // every run: where the window starts no longer matters
		}
		if m := len(a.classes); m == 0 || a.classes[m-1] != cl {
			a.classes = append(a.classes, cl)
		}
		a.class[c] = int32((len(a.classes) - 1) * stride)
	}
}

// At reports whether cell (cx, cy) is a frontier cell.
func (f *Frontier) At(cx, cy int) bool { return f.front[f.x.class[cx]+f.y.class[cy]] }

// TilePlan and SortByTile below are called only by bench/micro.go, and
// TilePlan is the last reader of Frontier.At; delete them with the
// core.sort_by_tile_ns_per_particle row in the next benchmark change. The
// step moves every particle in one pass and orders nothing.

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

// Build recomputes the plan for the rectangle against the frontier.
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
