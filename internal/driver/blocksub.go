package driver

import (
	"fmt"

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
// ceded mesh columns/rows to the ranks gaining them ("mpi-2d-LB").
//
// It is the one-cell case of the shared step (step.go): owners are ranks,
// the owner grid is the rank grid, whose cuts move, every owner hosts
// itself, and the rank's rectangle is the only cell.
type blockSubstrate struct {
	stepper
	cell

	// Reused load histograms for Measure.
	hist, rhist []int64
}

func newBlockSubstrate(c *comm.Comm, cfg Config, px, py int) (*blockSubstrate, error) {
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
		cell:  cell{id: c.Rank(), block: block, soa: &core.SoA{}},
		hist:  make([]int64, cfg.Mesh.L),
		rhist: make([]int64, cfg.Mesh.L),
	}
	s.g, s.ot = g, core.NewOwnerTable(g.X.Cuts, g.Y.Cuts)
	self := int32(c.Rank())
	err = core.Fill(cfg.distConfig(), s.ot, c.Size(), func(o int32) *core.SoA {
		if o == self {
			return s.soa
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.init(c, cfg, "rank", s)
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
// charge data of ceded columns/rows to the ranks gaining them — one
// migration per axis that moved, x first — then rebuild the owner table and
// what the step derives from it, so the follow-up rehome exchange (and
// subsequent fused classification) sees the new decomposition. The
// particles themselves rehome via the engine's follow-up exchange.
func (s *blockSubstrate) Execute(plan balance.Plan) (bool, error) {
	if plan.X != nil {
		if err := s.migrate(&decomp.Grid2D{PX: s.g.PX, PY: s.g.PY, X: plan.X.Clone(), Y: s.g.Y.Clone()}); err != nil {
			return false, err
		}
	}
	if plan.Y != nil {
		if err := s.migrate(&decomp.Grid2D{PX: s.g.PX, PY: s.g.PY, X: s.g.X.Clone(), Y: plan.Y.Clone()}); err != nil {
			return false, err
		}
	}
	s.ot = core.NewOwnerTable(s.g.X.Cuts, s.g.Y.Cuts)
	s.rebuildTopology()
	return true, nil
}

// admit implements cellHome: every rank hosts its own rectangle.
func (s *blockSubstrate) admit(_ *decomp.Grid2D, host []int) error {
	for id, r := range host {
		if r != id {
			return fmt.Errorf("driver: checkpoint hosts rank %d's rectangle on rank %d", id, r)
		}
	}
	return nil
}

// home implements cellHome: the one cell is the rank's own.
func (s *blockSubstrate) home(int) *cell { return &s.cell }

// rectParcel carries ceded mesh points between ranks after a cut moved: the
// row-major charges of the global rectangle [X0, X0+W) × [Y0, Y0+H).
type rectParcel struct {
	X0, Y0, W, H int
	Data         []float64
}

// tagMigrate is the tag migration sends on: every ceded rectangle of the
// block substrate, and, offset by the VP id, every migrating VP of the VP
// substrate (the two never share a world).
const tagMigrate = 1 << 20

// migrate installs the decomposition nw. Every rank works out from the
// replicated cut arrays what moves: it sends each other rank the charges of
// (its old rectangle ∩ that rank's new one), and receives from each rank
// whose old rectangle meets its new one, checking the data against the
// formulaic field. The bytes sent are what the paper charges the diffusion
// scheme for.
//
// One fixed tag is enough, although chaos-delayed delivery may reorder two
// messages between one pair of ranks. Within a migration a pair exchanges
// at most one parcel. The x and y migrations of one Execute involve
// disjoint pairs: ranks of one row, then ranks of one column. And Execute
// returns rehome = true, whose follow-up exchange runs the full ring because
// rebuildTopology arms the fence, so every rank hears from every other rank
// before any of them starts the next migration.
func (s *blockSubstrate) migrate(nw *decomp.Grid2D) error {
	me := s.c.Rank()
	old := s.g
	for r := range s.c.Size() {
		if r == me {
			continue
		}
		x0, y0, w, h := overlap(old, me, nw, r)
		if w == 0 {
			continue
		}
		data := s.block.AppendRect(make([]float64, 0, w*h), x0, y0, w, h)
		s.c.Send(r, tagMigrate, &rectParcel{X0: x0, Y0: y0, W: w, H: h, Data: data})
		s.migratedBytes += int64(8 * len(data))
	}
	x0, y0, nx, ny := nw.RankRect(me)
	block, err := grid.NewBlock(s.cfg.Mesh, x0, y0, nx, ny)
	if err != nil {
		return err
	}
	for r := range s.c.Size() {
		if r == me {
			continue
		}
		x0, y0, w, h := overlap(old, r, nw, me)
		if w == 0 {
			continue
		}
		data, _ := s.c.Recv(r, tagMigrate)
		pc, ok := data.(*rectParcel)
		if !ok || pc == nil {
			return fmt.Errorf("driver: rank %d sent a %T where ceded mesh points were due", r, data)
		}
		if pc.X0 != x0 || pc.Y0 != y0 || pc.W != w || pc.H != h {
			return fmt.Errorf("driver: rank %d ceded %dx%d points at (%d,%d), the cuts cede %dx%d at (%d,%d)",
				r, pc.W, pc.H, pc.X0, pc.Y0, w, h, x0, y0)
		}
		if err := block.CheckRect(pc.Data, x0, y0, w, h); err != nil {
			return fmt.Errorf("driver: mesh points ceded by rank %d: %w", r, err)
		}
	}
	s.migrations++
	s.g, s.block = nw, block
	return nil
}

// overlap is the rectangle rank a owns under g ∩ the one rank b owns under
// nw; w == 0 when they do not meet.
func overlap(g *decomp.Grid2D, a int, nw *decomp.Grid2D, b int) (x0, y0, w, h int) {
	ax, ay, aw, ah := g.RankRect(a)
	bx, by, bw, bh := nw.RankRect(b)
	x0, y0 = max(ax, bx), max(ay, by)
	w, h = min(ax+aw, bx+bw)-x0, min(ay+ah, by+bh)-y0
	if w <= 0 || h <= 0 {
		return 0, 0, 0, 0
	}
	return x0, y0, w, h
}
