package driver

// The checkpoint: a rank's full dynamic state, in one format for both
// substrates, written by one stepper traversal — the owner grid, the host
// table, the migration ledger, each hosted cell's id and particle columns
// (core.PUPColumns, the traversal the exchange and VP migration use) and
// the exchange ledger. The static configuration (mesh, schedule, seed) is
// not part of it — a restoring rank rebuilds it from its own Config and
// validates the checkpoint against it. Derived state (materialized mesh
// blocks, owner tables, frontiers) is likewise rebuilt rather than
// shipped: mesh charge data is formulaic, and the lookup structures are
// pure functions of the owner grid and host table that do travel.

import (
	"fmt"
	"math"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/pup"
)

// checkpointMagic guards against restoring an unrelated buffer with a clear
// error instead of silent corruption. The trailing digit is the format
// version (testdata/checkpoint_*.golden).
const checkpointMagic uint64 = 0x50494350524b5334 // "PICPRKS4"

// A cellHome is what a restore leaves to the substrate: the decompositions
// it can run, and where each restored cell goes.
type cellHome interface {
	// admit refuses an owner grid and host table the substrate cannot
	// run; admitting them, it gives up its hosted cells to the restore.
	admit(g *decomp.Grid2D, host []int) error
	// home returns the cell owner id restores into, hosted from now on.
	home(id int) *cell
}

// pupIntSlice serializes a length-prefixed []int whose length is checked at 8
// bytes per element, so a corrupt prefix sizes no more than the bytes present.
func pupIntSlice(p *pup.PUPer, v *[]int) {
	if pup.SliceLen(p, v, 8) {
		for i := range *v {
			p.Int(&(*v)[i])
		}
	}
}

// PUP implements pup.PUPable: the checkpoint traversal. Unpacking reads the
// owner grid and host table into fresh values and installs them only once
// the whole checkpoint has checked out, rebuilding the owner table when the
// cuts changed and then every structure rebuildTopology derives (which
// zeroes the ownership prefixes) before the restored particles are trusted.
func (s *stepper) PUP(p *pup.PUPer) {
	magic := checkpointMagic
	p.Uint64(&magic)
	unpacking := p.Mode() == pup.Unpacking
	if unpacking && magic != checkpointMagic {
		p.Fail(fmt.Errorf("driver: not a checkpoint (magic %#x)", magic))
		return
	}
	g, host := s.g, s.host
	if unpacking {
		g, host = &decomp.Grid2D{}, nil
	}
	p.Int(&g.PX)
	p.Int(&g.PY)
	pupIntSlice(p, &g.X.Cuts)
	pupIntSlice(p, &g.Y.Cuts)
	pupIntSlice(p, &host)
	if unpacking && p.Err() == nil {
		if err := s.checkDecomposition(g, host); err != nil {
			p.Fail(err)
			return
		}
	}
	p.Int(&s.migrations)
	pupInt64(p, &s.migratedBytes)
	s.pupCells(p, g, host)
	s.pupLedger(p)
	if unpacking && p.Err() == nil {
		if !g.Equal(s.g) {
			s.g, s.ot = g, core.NewOwnerTable(g.X.Cuts, g.Y.Cuts)
		}
		copy(s.host, host)
		s.rebuildTopology()
	}
}

// checkDecomposition refuses a restored owner grid or host table this run
// cannot take — another shape, invalid cuts, an owner hosted on a rank that
// does not exist — and then asks the substrate for its own rule.
func (s *stepper) checkDecomposition(g *decomp.Grid2D, host []int) error {
	if g.PX != s.g.PX || g.PY != s.g.PY {
		return fmt.Errorf("driver: checkpoint is for a %dx%d owner grid, run has %dx%d", g.PX, g.PY, s.g.PX, s.g.PY)
	}
	if err := g.Validate(s.cfg.Mesh.L); err != nil {
		return fmt.Errorf("driver: checkpoint cuts: %w", err)
	}
	if len(host) != len(s.host) {
		return fmt.Errorf("driver: checkpoint host table has %d entries for %d %ss", len(host), len(s.host), s.unit)
	}
	for id, r := range host {
		if r < 0 || r >= s.c.Size() {
			return fmt.Errorf("driver: checkpoint hosts %s %d on rank %d of %d", s.unit, id, r, s.c.Size())
		}
	}
	return s.home.admit(g, host)
}

// pupCells serializes the hosted cells in ascending id order, each its id
// and its particle columns. Unpacking takes exactly the ids host places on
// this rank, in order, each into the cell the substrate homes it in, whose
// mesh block is re-materialized from the formula over g's rectangle for it.
func (s *stepper) pupCells(p *pup.PUPer, g *decomp.Grid2D, host []int) {
	n := len(s.cells)
	p.Int(&n)
	if p.Mode() != pup.Unpacking {
		for _, c := range s.cells {
			id := c.id
			p.Int(&id)
			core.PUPColumns(p, c.soa)
		}
		return
	}
	if p.Err() != nil {
		return
	}
	me, hosted := s.c.Rank(), 0
	for _, r := range host {
		if r == me {
			hosted++
		}
	}
	if n != hosted {
		p.Fail(fmt.Errorf("driver: checkpoint carries %d %ss, its host table places %d on rank %d", n, s.unit, hosted, me))
		return
	}
	s.cells = s.cells[:0]
	for i := 0; i < n; i++ {
		var id int
		p.Int(&id)
		if p.Err() != nil {
			return
		}
		if id < 0 || id >= len(host) || host[id] != me || (i > 0 && id <= s.cells[i-1].id) {
			p.Fail(fmt.Errorf("driver: checkpoint %s %d does not belong on rank %d (or is out of order)", s.unit, id, me))
			return
		}
		c := s.home.home(id)
		c.id = id
		if c.block == nil {
			c.block = &grid.Block{}
		}
		x0, y0, nx, ny := g.RankRect(id)
		if err := c.block.Reinit(s.cfg.Mesh, x0, y0, nx, ny); err != nil {
			p.Fail(err)
			return
		}
		core.PUPColumns(p, c.soa)
		s.cells = append(s.cells, c)
	}
}

// Checkpoint implements Substrate.
func (s *stepper) Checkpoint() ([]byte, error) { return pup.Pack(s) }

// Restore implements Substrate.
func (s *stepper) Restore(buf []byte) error {
	if err := pup.Unpack(s, buf); err != nil {
		return err
	}
	return s.checkRestored()
}

// maxRestored bounds the magnitude of a restored particle's velocity
// components and of its charge times the mesh charge. A real particle's are
// a few times its per-step displacement; the bound only keeps the move
// kernel's arithmetic finite.
const maxRestored = 1 << 60

// checkRestored sweeps every hosted particle after a restore and refuses the
// checkpoint if the step could not take one. Each must sit at the centre of
// a cell its own cell owns — particles start at cell centres and move whole
// cells, so one elsewhere, or another rank's, is not this rank's state —
// and carry a velocity and charge within maxRestored. Otherwise the next
// step's move kernel would index outside the mesh or the owner table.
func (s *stepper) checkRestored() error {
	mesh, L := s.cfg.Mesh, float64(s.cfg.Mesh.L)
	for _, c := range s.cells {
		soa := c.soa
		for i, x := range soa.X {
			y, id := soa.Y[i], soa.Meta[i].ID
			if !(x >= 0 && x < L && y >= 0 && y < L) || x-math.Floor(x) != 0.5 || y-math.Floor(y) != 0.5 {
				return fmt.Errorf("driver: checkpoint particle %d at (%v,%v) is not at a cell centre", id, x, y)
			}
			if cx, cy := mesh.CellOf(x, y); s.ot.Owner(cx, cy) != int32(c.id) {
				return fmt.Errorf("driver: checkpoint particle %d at cell (%d,%d) not owned by %s %d", id, cx, cy, s.unit, c.id)
			}
			if !(math.Abs(soa.VX[i]) <= maxRestored && math.Abs(soa.VY[i]) <= maxRestored && math.Abs(soa.Q[i]*mesh.Q) <= maxRestored) {
				return fmt.Errorf("driver: checkpoint particle %d has velocity (%v,%v) and charge %v", id, soa.VX[i], soa.VY[i], soa.Q[i])
			}
		}
	}
	return nil
}
