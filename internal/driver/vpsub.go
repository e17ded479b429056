package driver

import (
	"fmt"
	"slices"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/pup"
)

// picVP is one virtual processor of the over-decomposed PIC problem: a cell
// over a static rectangular subdomain. Migration PUPs the entire state —
// particles and grid data — mirroring the paper's PUP routines.
type picVP struct {
	cell
	// run is the stepper hosting the VP: its mesh and owner grid (the
	// static VP grid) fix the VP's rectangle. Not part of the PUPed state.
	run *stepper
	// gdata is the reused grid-data staging buffer for pack and unpack; it
	// is not part of the PUPed state.
	gdata []float64
}

// PUP implements pup.PUPable. The header is the VP's id, the run's mesh and
// the rectangle the VP grid gives the id. Particles travel column-wise
// through core.PUPColumns: the SoA slices serialize directly, with no AoS
// staging, and unpacking resizes into whatever storage the shell still
// holds — a recycled shell (the substrate's free list) makes steady-state
// migration nearly allocation-free. Unpacking refuses a VP that is not one
// of this run's: a mesh other than the run's, or a rectangle other than the
// static VP grid's for its id.
func (v *picVP) PUP(p *pup.PUPer) {
	id, mesh := v.id, v.run.cfg.Mesh
	var x0, y0, nx, ny int
	if p.Mode() != pup.Unpacking {
		x0, y0, nx, ny = v.run.g.RankRect(id)
	}
	p.Int(&id)
	p.Int(&mesh.L)
	p.Float64(&mesh.Q)
	p.Int(&x0)
	p.Int(&y0)
	p.Int(&nx)
	p.Int(&ny)
	if p.Mode() == pup.Unpacking {
		if err := v.checkHome(id, mesh, x0, y0, nx, ny); err != nil {
			p.Fail(err)
			return
		}
		v.id = id
	} else {
		v.gdata = v.block.AppendRect(v.gdata[:0], x0, y0, nx, ny)
	}
	p.Float64s(&v.gdata)
	core.PUPColumns(p, v.soa)
	if p.Mode() == pup.Unpacking && p.Err() == nil {
		if v.block == nil {
			v.block = &grid.Block{}
		}
		if err := v.block.ReinitFromData(mesh, x0, y0, nx, ny, v.gdata); err != nil {
			p.Fail(err)
		}
	}
}

// checkHome checks an unpacked VP's header against the run the receiving
// shell belongs to: its mesh, and the VP grid that fixes the rectangle of
// every id.
func (v *picVP) checkHome(id int, mesh grid.Mesh, x0, y0, nx, ny int) error {
	vg, run := v.run.g, v.run.cfg.Mesh
	if n := vg.PX * vg.PY; id < 0 || id >= n {
		return fmt.Errorf("driver: VP id %d outside [0,%d)", id, n)
	}
	if mesh != run {
		return fmt.Errorf("driver: VP %d is for mesh L=%d q=%v, run has L=%d q=%v", id, mesh.L, mesh.Q, run.L, run.Q)
	}
	wx, wy, wnx, wny := vg.RankRect(id)
	if x0 != wx || y0 != wy || nx != wnx || ny != wny {
		return fmt.Errorf("driver: VP %d carries rectangle %dx%d at (%d,%d), the VP grid gives it %dx%d at (%d,%d)",
			id, nx, ny, x0, y0, wnx, wny, wx, wy)
	}
	return nil
}

// vpSubstrate realizes the §IV-C execution model: the static 2D algorithm
// over-decomposed into d·P virtual processors, with a strategy-driven
// Balancer deciding VP placement and PUP-serialized migration executing it.
// It backs both the "ampi" and the "worksteal" drivers.
//
// It is the many-cell case of the shared step (step.go): owners are VPs,
// the owner grid is the static VP grid, so the cell→VP owner table is built
// once, and the stepper's host table is the placement — the same on every
// rank, so which VPs a rank hosts, the frontier and the exchange schedule
// all follow from it.
type vpSubstrate struct {
	stepper
	// vps are the VPs hosted here, in ascending id order.
	vps []*picVP
	// free holds shells of departed VPs; arrivals unpack into one instead
	// of a fresh one, so their retained buffer capacities keep steady-state
	// migration off the allocator. Bounded by the number of VPs this core
	// has ever hosted.
	free []*picVP
	// loads is the reused local input vector for Measure.
	loads []float64
}

func newVPSubstrate(c *comm.Comm, cfg Config, overdecompose int) (*vpSubstrate, error) {
	p := c.Size()
	px, py := comm.Dims2D(p)
	dx, dy := comm.Dims2D(overdecompose)
	vx, vy := px*dx, py*dy
	if vx > cfg.Mesh.L || vy > cfg.Mesh.L {
		return nil, fmt.Errorf("driver: VP grid %dx%d exceeds domain %d", vx, vy, cfg.Mesh.L)
	}
	vg, err := decomp.NewUniform2D(cfg.Mesh.L, vx, vy)
	if err != nil {
		return nil, err
	}
	place, err := ampi.BlockPlacement(vx, vy, px, py)
	if err != nil {
		return nil, err
	}
	nvp := vx * vy
	s := &vpSubstrate{loads: make([]float64, nvp)}
	host := make([]int, nvp)
	local := make([]*core.SoA, nvp)
	for id := range host {
		if host[id] = place(id); host[id] != c.Rank() {
			continue
		}
		x0, y0, nx, ny := vg.RankRect(id)
		block, err := grid.NewBlock(cfg.Mesh, x0, y0, nx, ny)
		if err != nil {
			return nil, err
		}
		v := &picVP{cell: cell{id: id, block: block, soa: &core.SoA{}}, run: &s.stepper}
		s.vps = append(s.vps, v)
		local[id] = v.soa
	}
	// Each core fills only the VPs placed on it, straight from the stream.
	vot := core.NewOwnerTable(vg.X.Cuts, vg.Y.Cuts)
	if err := core.Fill(cfg.distConfig(), vot, nvp, func(o int32) *core.SoA { return local[o] }); err != nil {
		return nil, err
	}
	s.init(c, cfg, "VP", s)
	s.g, s.ot, s.host = vg, vot, host
	s.placed()
	return s, nil
}

// placed hands the step the VPs hosted here and rebuilds what derives from
// the placement. Called at construction and after every migration. A
// migration does not rehome particles, but it does put the pre-migration
// schedule's pointers in flight, so installing the refreshed schedule arms
// comm's full-ring fence; it also re-checks every hosted particle, arrivals
// or not.
func (s *vpSubstrate) placed() {
	s.cells = s.cells[:0]
	for _, v := range s.vps {
		s.cells = append(s.cells, &v.cell)
	}
	s.rebuildTopology()
}

// shell returns a VP to unpack an arrival into: a departed one's when there
// is one, else a fresh one that knows the run.
func (s *vpSubstrate) shell() *picVP {
	if n := len(s.free); n > 0 {
		v := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return v
	}
	return &picVP{cell: cell{soa: &core.SoA{}}, run: &s.stepper}
}

// admit implements cellHome: the cuts are the static VP grid's; the hosted
// VPs retire into the shell free list, as departing ones do.
func (s *vpSubstrate) admit(g *decomp.Grid2D, _ []int) error {
	if !g.Equal(s.g) {
		return fmt.Errorf("driver: checkpoint cuts %v x %v are not the VP grid's %v x %v", g.X.Cuts, g.Y.Cuts, s.g.X.Cuts, s.g.Y.Cuts)
	}
	s.free = append(s.free, s.vps...)
	clear(s.vps)
	s.vps = s.vps[:0]
	return nil
}

// home implements cellHome: a restored VP unpacks into a shell.
func (s *vpSubstrate) home(id int) *cell {
	v := s.shell()
	v.id = id
	s.vps = append(s.vps, v)
	return &v.cell
}

// Measure implements Substrate: the collective reduction of the per-VP
// particle counts (work is exactly proportional to them) plus a copy of the
// placement.
func (s *vpSubstrate) Measure(n balance.Needs) balance.Loads {
	loads := balance.Loads{Cores: s.c.Size()}
	if n.Units {
		clear(s.loads)
		for _, v := range s.vps {
			s.loads[v.id] = float64(v.soa.Len())
		}
		// Allreduce copies its input before sending, so the reused local
		// vector never escapes; the returned global vector is freshly owned.
		loads.Units = comm.Allreduce(s.c, s.loads, comm.Sum[float64])
		loads.Owner = slices.Clone(s.host)
	}
	return loads
}

// Execute implements Substrate: install the plan's placement. Every rank
// works out from the replicated placement which VPs change host; each one
// is PUPed by its old host and sent point to point to its new one, which
// unpacks it into a shell. Every rank executes the identical plan (it is a
// pure function of globally reduced loads). Particles travel inside their
// VP, so no rehoming exchange is needed.
//
// Each VP travels on its own tag, so two VPs bound for the same rank cannot
// be confused even if a transport reorders their messages.
func (s *vpSubstrate) Execute(plan balance.Plan) (bool, error) {
	if plan.Owner == nil {
		return false, nil
	}
	me, p := s.c.Rank(), s.c.Size()
	if len(plan.Owner) != len(s.host) {
		return false, fmt.Errorf("driver: plan places %d VPs, the run has %d", len(plan.Owner), len(s.host))
	}
	for id, to := range plan.Owner {
		if to < 0 || to >= p {
			return false, fmt.Errorf("driver: plan moves VP %d to invalid core %d", id, to)
		}
	}
	// Departures first (sends never block), then arrivals.
	kept := s.vps[:0]
	for _, v := range s.vps {
		to := plan.Owner[v.id]
		if to == me {
			kept = append(kept, v)
			continue
		}
		buf, err := pup.Pack(v)
		if err != nil {
			return false, fmt.Errorf("driver: packing VP %d: %w", v.id, err)
		}
		s.c.Send(to, tagMigrate+v.id, buf)
		s.free = append(s.free, v)
		s.migrations++
		s.migratedBytes += int64(len(buf))
	}
	s.vps = kept
	for id, to := range plan.Owner {
		from := s.host[id]
		if to != me || from == me {
			continue
		}
		data, _ := s.c.Recv(from, tagMigrate+id)
		buf, ok := data.([]byte)
		if !ok {
			return false, fmt.Errorf("driver: rank %d sent a %T where VP %d was due", from, data, id)
		}
		v := s.shell()
		if err := pup.Unpack(v, buf); err != nil {
			return false, fmt.Errorf("driver: unpacking VP %d: %w", id, err)
		}
		if v.id != id {
			return false, fmt.Errorf("driver: rank %d sent VP %d where VP %d was due", from, v.id, id)
		}
		s.vps = append(s.vps, v)
		s.migrations++
	}
	slices.SortFunc(s.vps, func(a, b *picVP) int { return a.id - b.id })
	copy(s.host, plan.Owner)
	s.placed()
	return false, nil
}
