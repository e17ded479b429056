package driver

// Substrate checkpoints: the full per-rank dynamic state of each execution
// model, its particles serialized through core.PUPColumns — the traversal
// the exchange and VP migration use. The static configuration (mesh,
// decomposition shape, schedule, seed) is not part of a checkpoint — a
// restoring rank rebuilds it from its own Config and validates the
// checkpoint against it. Derived state (materialized mesh blocks,
// owner tables, frontiers) is likewise rebuilt rather than
// shipped: block charge data is formulaic, and the lookup structures are
// pure functions of the cuts / VP placement that do travel.

import (
	"fmt"
	"math"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/pup"
)

// Checkpoint magics guard against restoring the wrong substrate family (or
// an unrelated buffer) with a clear error instead of silent corruption. The
// trailing digit is the format version (testdata/checkpoint_*.golden).
const (
	blockCheckpointMagic uint64 = 0x50494350524b4233 // "PICPRKB3"
	vpCheckpointMagic    uint64 = 0x50494350524b5633 // "PICPRKV3"
)

// pupIntSlice serializes a length-prefixed []int whose length is checked at 8
// bytes per element, so a corrupt prefix sizes no more than the bytes present.
func pupIntSlice(p *pup.PUPer, v *[]int) {
	if pup.SliceLen(p, v, 8) {
		for i := range *v {
			p.Int(&(*v)[i])
		}
	}
}

// PUP implements pup.PUPable: the block substrate's dynamic state is the
// cut arrays (the decomposition the balancer has evolved), the local SoA
// particle container, the migration accounting and the exchange ledger. Unpacking
// reinstalls the cuts — rebuilding the mesh block, owner table and
// frontier, and zeroing the ownership prefix — before the restored particles are
// trusted.
func (s *blockSubstrate) PUP(p *pup.PUPer) {
	magic := blockCheckpointMagic
	p.Uint64(&magic)
	if p.Mode() == pup.Unpacking && magic != blockCheckpointMagic {
		p.Fail(fmt.Errorf("driver: not a block-substrate checkpoint (magic %#x)", magic))
		return
	}
	px, py, L := s.g.PX, s.g.PY, s.cfg.Mesh.L
	p.Int(&px)
	p.Int(&py)
	p.Int(&L)
	if p.Mode() == pup.Unpacking {
		if L != s.cfg.Mesh.L {
			p.Fail(fmt.Errorf("driver: checkpoint is for L=%d, run has L=%d", L, s.cfg.Mesh.L))
			return
		}
		if px != s.g.PX || py != s.g.PY {
			p.Fail(fmt.Errorf("driver: checkpoint is for a %dx%d decomposition, run has %dx%d", px, py, s.g.PX, s.g.PY))
			return
		}
	}
	// Cuts travel as values; packing must not alias the live grid (a wire
	// Ship may serialize concurrently with the owner still reading it), and
	// unpacking builds the new grid from fresh slices.
	var xcuts, ycuts []int
	if p.Mode() != pup.Unpacking {
		xcuts, ycuts = s.g.X.Cuts, s.g.Y.Cuts
	}
	pupIntSlice(p, &xcuts)
	pupIntSlice(p, &ycuts)
	core.PUPColumns(p, s.soa)
	p.Int(&s.migrations)
	pupInt64(p, &s.bytes)
	s.pupLedger(p)
	if p.Mode() == pup.Unpacking && p.Err() == nil {
		if err := s.installCuts(xcuts, ycuts); err != nil {
			p.Fail(err)
		}
	}
}

// installCuts validates and installs restored cut arrays, rebuilding every
// structure derived from the decomposition (mirror of Execute's tail, minus
// the neighbor charge migration — the rebuilt block's charge is formulaic).
func (s *blockSubstrate) installCuts(xcuts, ycuts []int) error {
	g := &decomp.Grid2D{PX: s.g.PX, PY: s.g.PY, X: decomp.Bounds{Cuts: xcuts}, Y: decomp.Bounds{Cuts: ycuts}}
	if err := g.X.Validate(s.cfg.Mesh.L); err != nil {
		return fmt.Errorf("driver: checkpoint x-cuts: %w", err)
	}
	if err := g.Y.Validate(s.cfg.Mesh.L); err != nil {
		return fmt.Errorf("driver: checkpoint y-cuts: %w", err)
	}
	if g.X.N() != g.PX || g.Y.N() != g.PY {
		return fmt.Errorf("driver: checkpoint cuts describe %dx%d blocks, run has %dx%d", g.X.N(), g.Y.N(), g.PX, g.PY)
	}
	x0, y0, nx, ny := g.RankRect(s.c.Rank())
	block, err := grid.NewBlock(s.cfg.Mesh, x0, y0, nx, ny)
	if err != nil {
		return err
	}
	s.g, s.block = g, block
	s.ot = core.NewOwnerTable(g.X.Cuts, g.Y.Cuts)
	s.rebuildTopology()
	return nil
}

// Checkpoint implements Substrate.
func (s *blockSubstrate) Checkpoint() ([]byte, error) { return pup.Pack(s) }

// Restore implements Substrate.
func (s *blockSubstrate) Restore(buf []byte) error {
	if err := pup.Unpack(s, buf); err != nil {
		return err
	}
	return s.checkRestored()
}

// PUP implements pup.PUPable: the VP substrate's dynamic state is the
// placement, the migration counters and every locally hosted VP in
// ascending id order, serialized through its own PUP routine (particles and
// grid data column-wise, recycled shells on unpack), plus the exchange
// ledger. It is the rank's checkpoint shard: pack it on every rank and
// the union reconstructs the world. Unpacking first retires the hosted VPs
// into the shell free list (the path migration uses, so a restore stays off
// the allocator once warm), then rebuilds the hosted set from the stream,
// checking the placement against the world and against each restored VP's
// id. The frontier depends on the placement and is rebuilt after restore.
func (s *vpSubstrate) PUP(p *pup.PUPer) {
	magic := vpCheckpointMagic
	p.Uint64(&magic)
	if p.Mode() == pup.Unpacking && magic != vpCheckpointMagic {
		p.Fail(fmt.Errorf("driver: not a VP-substrate checkpoint (magic %#x)", magic))
		return
	}
	L := s.cfg.Mesh.L
	p.Int(&L)
	if p.Mode() == pup.Unpacking && L != s.cfg.Mesh.L {
		p.Fail(fmt.Errorf("driver: checkpoint is for L=%d, run has L=%d", L, s.cfg.Mesh.L))
		return
	}
	nvp := len(s.host)
	p.Int(&nvp)
	if p.Mode() == pup.Unpacking && nvp != len(s.host) {
		p.Fail(fmt.Errorf("driver: checkpoint has %d VPs, run has %d", nvp, len(s.host)))
		return
	}
	pupIntSlice(p, &s.host)
	p.Int(&s.measures)
	p.Int(&s.sent)
	p.Int(&s.received)
	pupInt64(p, &s.sentBytes)
	pupInt64(p, &s.recvBytes)

	me, hosted := s.c.Rank(), 0
	if p.Mode() == pup.Unpacking {
		if len(s.host) != nvp {
			p.Fail(fmt.Errorf("driver: checkpoint placement has %d entries for %d VPs", len(s.host), nvp))
			return
		}
		for id, c := range s.host {
			if c < 0 || c >= s.c.Size() {
				p.Fail(fmt.Errorf("driver: checkpoint places VP %d on core %d of %d", id, c, s.c.Size()))
				return
			}
			if c == me {
				hosted++
			}
		}
		s.free = append(s.free, s.vps...)
		clear(s.vps)
		s.vps = s.vps[:0]
	}
	n := len(s.vps)
	p.Int(&n)
	if p.Mode() != pup.Unpacking {
		for _, v := range s.vps {
			v.PUP(p)
		}
	} else {
		if n != hosted {
			p.Fail(fmt.Errorf("driver: checkpoint carries %d VPs, its placement puts %d on core %d", n, hosted, me))
			return
		}
		for i := 0; i < n; i++ {
			v := s.shell()
			v.PUP(p)
			if p.Err() != nil {
				return
			}
			if s.host[v.id] != me || (i > 0 && v.id <= s.vps[i-1].id) {
				p.Fail(fmt.Errorf("driver: checkpoint VP %d does not belong on core %d (or is out of order)", v.id, me))
				return
			}
			s.vps = append(s.vps, v)
		}
	}
	s.pupLedger(p)
	if p.Mode() == pup.Unpacking && p.Err() == nil {
		s.placed()
	}
}

// Checkpoint implements Substrate.
func (s *vpSubstrate) Checkpoint() ([]byte, error) { return pup.Pack(s) }

// Restore implements Substrate.
func (s *vpSubstrate) Restore(buf []byte) error {
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
