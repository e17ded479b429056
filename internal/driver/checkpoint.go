package driver

// Substrate checkpoints: the full per-rank dynamic state of each execution
// model, serialized through the same column-wise PUP paths the migration
// machinery uses. The static configuration (mesh, decomposition shape,
// schedule, seed) is not part of a checkpoint — a restoring rank rebuilds
// it from its own Config and validates the checkpoint against it, exactly
// like core.Simulation.Checkpoint. Derived state (materialized mesh blocks,
// owner tables, frontier masks) is likewise rebuilt rather than
// shipped: block charge data is formulaic, and the lookup structures are
// pure functions of the cuts / VP placement that do travel.

import (
	"fmt"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/pup"
)

// Checkpoint magics guard against restoring the wrong substrate family (or
// an unrelated buffer) with a clear error instead of silent corruption.
const (
	blockCheckpointMagic uint64 = 0x50494350524b4231 // "PICPRKB1"
	vpCheckpointMagic    uint64 = 0x50494350524b5631 // "PICPRKV1"
)

func pupIntSlice(p *pup.PUPer, v *[]int) {
	pup.Slice(p, v, func(p *pup.PUPer, e *int) { p.Int(e) })
}

// PUP implements pup.PUPable: the block substrate's dynamic state is the
// cut arrays (the decomposition the balancer has evolved), the local SoA
// particle container, and the migration/exchange accounting. Unpacking
// reinstalls the cuts — rebuilding the mesh block, owner table, and frontier
// mask, and zeroing the ownership prefix — before the restored particles are
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
	core.PUPSoA(p, s.soa)
	p.Int(&s.migrations)
	pupInt64(p, &s.bytes)
	pupInt64(p, &s.xbytes)
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
func (s *blockSubstrate) Restore(buf []byte) error { return pup.Unpack(s, buf) }

// PUP implements pup.PUPable: the VP substrate's dynamic state is the ampi
// runtime's — the location table, the runtime stats, and every locally
// hosted VP serialized through its own PUP routine (particles and grid data
// column-wise, recycled shells on unpack) — plus the exchange accounting.
// The frontier mask depends on VP placement and is rebuilt after restore.
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
	s.rt.PUPState(p)
	pupInt64(p, &s.xbytes)
	if p.Mode() == pup.Unpacking && p.Err() == nil {
		s.placed()
	}
}

// Checkpoint implements Substrate.
func (s *vpSubstrate) Checkpoint() ([]byte, error) { return pup.Pack(s) }

// Restore implements Substrate.
func (s *vpSubstrate) Restore(buf []byte) error { return pup.Unpack(s, buf) }
