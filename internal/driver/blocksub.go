package driver

import (
	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/grid"
)

// blockSubstrate realizes the §IV-A/§IV-B algorithm family: each rank owns
// one rectangle of a PX×PY Cartesian-product block decomposition. With a
// NullBalancer the decomposition is static (the "mpi-2d" baseline); with a
// DiffusionBalancer the cut arrays move and the substrate migrates the
// affected mesh columns/rows between neighbors ("mpi-2d-LB").
//
// It is the one-cell case of the shared step (step.go): owners are ranks,
// every owner hosts itself, and the rank's rectangle is the only cell.
type blockSubstrate struct {
	stepper
	cell
	cart *comm.Cart2D
	g    *decomp.Grid2D

	// Reused load histograms for Measure.
	hist, rhist []int64

	migrations int
	bytes      int64
}

func newBlockSubstrate(c *comm.Comm, cfg Config, px, py int) (*blockSubstrate, error) {
	cart := comm.NewCart2D(c, px, py)
	g, err := decomp.NewUniform2D(cfg.Mesh.L, px, py)
	if err != nil {
		return nil, err
	}
	x0, y0, nx, ny := g.RankRect(c.Rank())
	block, err := grid.NewBlock(cfg.Mesh, x0, y0, nx, ny)
	if err != nil {
		return nil, err
	}
	s := &blockSubstrate{
		cell: cell{id: c.Rank(), block: block, soa: &core.SoA{}},
		cart: cart, g: g,
		hist:  make([]int64, cfg.Mesh.L),
		rhist: make([]int64, cfg.Mesh.L),
	}
	s.ot = core.NewOwnerTable(g.X.Cuts, g.Y.Cuts)
	self := int32(c.Rank())
	err = fillLocal(cfg, s.ot, c.Size(), func(o int32) *core.SoA {
		if o == self {
			return s.soa
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.init(c, cfg, "rank")
	s.cells = []*cell{&s.cell}
	s.host = make([]int, c.Size())
	for r := range s.host {
		s.host[r] = r
	}
	s.rebuildTopology()
	return s, nil
}

// Measure implements Substrate: globally reduce the per-cell-column (and,
// for the two-phase scheme, per-cell-row) particle histograms. Both
// histograms are filled in one pass over the particles into reused buffers;
// the reduction returns fresh slices, so handing them to the policy is safe.
func (s *blockSubstrate) Measure(n balance.Needs) balance.Loads {
	loads := balance.Loads{X: s.g.X, Y: s.g.Y, Cores: s.c.Size()}
	if !n.Cells && !n.Rows {
		return loads
	}
	clear(s.hist)
	clear(s.rhist)
	soa, mesh := s.soa, s.cfg.Mesh
	for i := 0; i < soa.Len(); i++ {
		cx, cy := mesh.CellOf(soa.X[i], soa.Y[i])
		s.hist[cx]++
		s.rhist[cy]++
	}
	if n.Cells {
		loads.Cells = comm.Allreduce(s.c, s.hist, comm.Sum[int64])
	}
	if n.Rows {
		loads.Rows = comm.Allreduce(s.c, s.rhist, comm.Sum[int64])
	}
	return loads
}

// Execute implements Substrate: install the new cut arrays, shipping the
// charge data of ceded columns/rows to the neighbors gaining them, then
// rebuild the owner table and what the step derives from it, so the
// follow-up rehome exchange (and subsequent fused classification) sees the
// new decomposition. The particles themselves rehome via the engine's
// follow-up exchange.
func (s *blockSubstrate) Execute(plan balance.Plan) (bool, error) {
	if plan.X != nil {
		ng := &decomp.Grid2D{PX: s.g.PX, PY: s.g.PY, X: plan.X.Clone(), Y: s.g.Y.Clone()}
		nb, bytes, err := migrateColumns(s.cart, s.cfg.Mesh, s.g, ng, s.block)
		if err != nil {
			return false, err
		}
		s.bytes += bytes
		s.migrations++
		s.g, s.block = ng, nb
	}
	if plan.Y != nil {
		ng := &decomp.Grid2D{PX: s.g.PX, PY: s.g.PY, X: s.g.X.Clone(), Y: plan.Y.Clone()}
		nb, bytes, err := migrateRows(s.cart, s.cfg.Mesh, s.g, ng, s.block)
		if err != nil {
			return false, err
		}
		s.bytes += bytes
		s.migrations++
		s.g, s.block = ng, nb
	}
	s.ot = core.NewOwnerTable(s.g.X.Cuts, s.g.Y.Cuts)
	s.rebuildTopology()
	return true, nil
}

// MigrationStats implements Substrate.
func (s *blockSubstrate) MigrationStats() (int, int64) { return s.migrations, s.bytes }

// colsParcel carries migrated mesh columns between row neighbors after a
// boundary shift: the charge data of owned columns [X0, X0+W) for the
// sender's row range.
type colsParcel struct {
	X0   int
	W    int
	Cols []float64
}

// migrateColumns rebuilds the local grid block after the x-cuts changed.
// Each rank ships the charge data of columns it loses to the row neighbor
// gaining them (at most one parcel per neighbor, moved by pointer through
// the row communicator's exchange collective) and validates what it
// receives against the formulaic field — the data volume is what the paper
// charges the diffusion scheme for. It returns the new block and the number
// of payload bytes sent.
func migrateColumns(cart *comm.Cart2D, m grid.Mesh, old, nw *decomp.Grid2D, block *grid.Block) (*grid.Block, int64, error) {
	me := cart.Comm.Rank()
	row := cart.Row
	oldX0, _, oldNX, _ := old.RankRect(me)
	newX0, newY0, newNX, newNY := nw.RankRect(me)

	// One parcel per row neighbor that gains columns I currently own; the
	// row communicator's rank i is the rank with CX == i, so parcels index
	// directly by target px.
	send := make([]*colsParcel, row.Size())
	recv := make([]*colsParcel, row.Size())
	var sent int64
	for opx := 0; opx < nw.PX; opx++ {
		if opx == cart.CX {
			continue
		}
		lo := max(oldX0, nw.X.Lo(opx))
		hi := min(oldX0+oldNX, nw.X.Hi(opx))
		if lo >= hi {
			continue
		}
		cols, err := block.ExtractColumns(lo-oldX0, hi-lo)
		if err != nil {
			return nil, 0, err
		}
		send[opx] = &colsParcel{X0: lo, W: hi - lo, Cols: cols}
		sent += int64(8 * len(cols))
	}
	comm.ExchangePtr(row, send, recv)

	nb, err := grid.NewBlock(m, newX0, newY0, newNX, newNY)
	if err != nil {
		return nil, 0, err
	}
	for src, pc := range recv {
		if src == cart.CX || pc == nil {
			continue
		}
		if err := nb.ValidateColumns(pc.Cols, pc.X0); err != nil {
			return nil, 0, err
		}
	}
	return nb, sent, nil
}

// rowsParcel carries migrated mesh rows between column neighbors after a
// y-direction boundary shift (phase 2 of the two-phase scheme).
type rowsParcel struct {
	Y0   int
	H    int
	Rows []float64
}

// migrateRows is the y-direction analogue of migrateColumns: after the
// y-cuts changed, each rank ships the charge data of rows it loses to the
// column neighbor gaining them and validates what it receives.
func migrateRows(cart *comm.Cart2D, m grid.Mesh, old, nw *decomp.Grid2D, block *grid.Block) (*grid.Block, int64, error) {
	me := cart.Comm.Rank()
	col := cart.Col
	_, oldY0, _, oldNY := old.RankRect(me)
	newX0, newY0, newNX, newNY := nw.RankRect(me)

	send := make([]*rowsParcel, col.Size())
	recv := make([]*rowsParcel, col.Size())
	var sent int64
	for opy := 0; opy < nw.PY; opy++ {
		if opy == cart.CY {
			continue
		}
		lo := max(oldY0, nw.Y.Lo(opy))
		hi := min(oldY0+oldNY, nw.Y.Hi(opy))
		if lo >= hi {
			continue
		}
		rows, err := block.ExtractRows(lo-oldY0, hi-lo)
		if err != nil {
			return nil, 0, err
		}
		send[opy] = &rowsParcel{Y0: lo, H: hi - lo, Rows: rows}
		sent += int64(8 * len(rows))
	}
	comm.ExchangePtr(col, send, recv)

	nb, err := grid.NewBlock(m, newX0, newY0, newNX, newNY)
	if err != nil {
		return nil, 0, err
	}
	for src, pc := range recv {
		if src == cart.CY || pc == nil {
			continue
		}
		if err := nb.ValidateRows(pc.Rows, pc.Y0); err != nil {
			return nil, 0, err
		}
	}
	return nb, sent, nil
}
