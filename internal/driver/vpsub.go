package driver

import (
	"fmt"

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
	mesh   grid.Mesh
	x0, y0 int
	nx, ny int
	// gdata is the reused grid-data staging buffer for pack and unpack; it
	// is not part of the PUPed state.
	gdata []float64
}

// VPID implements ampi.VP.
func (v *picVP) VPID() int { return v.id }

// Load implements ampi.VP: work is exactly proportional to particle count.
func (v *picVP) Load() float64 { return float64(v.soa.Len()) }

// PUP implements pup.PUPable. Particles travel column-wise through
// core.PUPSoA: the SoA slices serialize directly, with no AoS staging, and
// unpacking resizes into whatever storage the shell still holds — a recycled
// shell (the runtime's freelist) makes steady-state migration nearly
// allocation-free.
func (v *picVP) PUP(p *pup.PUPer) {
	p.Int(&v.id)
	p.Int(&v.mesh.L)
	p.Float64(&v.mesh.Q)
	p.Int(&v.x0)
	p.Int(&v.y0)
	p.Int(&v.nx)
	p.Int(&v.ny)
	if p.Mode() != pup.Unpacking {
		v.gdata = v.block.AppendOwnedData(v.gdata[:0])
	}
	p.Float64s(&v.gdata)
	if v.soa == nil {
		v.soa = &core.SoA{}
	}
	core.PUPSoA(p, v.soa)
	if p.Mode() == pup.Unpacking && p.Err() == nil {
		if v.block == nil {
			v.block = &grid.Block{}
		}
		if err := v.block.ReinitFromData(v.mesh, v.x0, v.y0, v.nx, v.ny, v.gdata); err != nil {
			p.Fail(err)
		}
	}
}

// vpSubstrate realizes the §IV-C execution model: the static 2D algorithm
// over-decomposed into d·P virtual processors hosted by the ampi runtime,
// with a strategy-driven Balancer deciding VP placement and PUP-serialized
// migration executing it. It backs both the "ampi" and the "worksteal"
// drivers.
//
// It is the many-cell case of the shared step (step.go): owners are VPs,
// the static cell→VP owner table is built once, and which VPs a rank hosts —
// and so the host table, the frontier mask and the exchange schedule —
// follows the runtime's placement.
type vpSubstrate struct {
	stepper
	rt *ampi.Runtime
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

	makeLocal := func(vp int) ampi.VP {
		x0, y0, nx, ny := vg.RankRect(vp)
		block, err := grid.NewBlock(cfg.Mesh, x0, y0, nx, ny)
		if err != nil {
			panic(err) // static decomposition of a validated mesh cannot fail
		}
		return &picVP{cell: cell{id: vp, block: block, soa: &core.SoA{}}, mesh: cfg.Mesh, x0: x0, y0: y0, nx: nx, ny: ny}
	}
	rt, err := ampi.NewRuntime(c, vx*vy, place, makeLocal, func() ampi.VP { return &picVP{} })
	if err != nil {
		return nil, err
	}
	// Each core fills only the VPs placed on it, straight from the stream.
	vot := core.NewOwnerTable(vg.X.Cuts, vg.Y.Cuts)
	err = fillLocal(cfg, vot, vx*vy, func(o int32) *core.SoA {
		if v, ok := rt.Local(int(o)).(*picVP); ok {
			return v.soa
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s := &vpSubstrate{rt: rt}
	s.init(c, cfg, "VP")
	s.ot = vot
	s.placed()
	return s, nil
}

// placed hands the step the runtime's current placement — the hosted cells
// and the VP→core table — and rebuilds what derives from it. Called at
// construction, after every migration and after a checkpoint restore. A
// migration does not rehome particles, but it does put the pre-migration
// schedule's pointers in flight, so installing the refreshed schedule arms
// comm's full-ring fence; it also re-checks every hosted particle, arrivals
// or not.
func (s *vpSubstrate) placed() {
	s.cells = s.cells[:0]
	for _, id := range s.rt.LocalIDs() {
		s.cells = append(s.cells, &s.rt.Local(id).(*picVP).cell)
	}
	s.host = s.rt.Locations()
	s.rebuildTopology()
}

// Measure implements Substrate: the runtime's collective load reduction
// plus a copy of the current owner table.
func (s *vpSubstrate) Measure(n balance.Needs) balance.Loads {
	loads := balance.Loads{Cores: s.c.Size()}
	if n.Units {
		loads.Units = s.rt.MeasureLoads()
		loads.Owner = s.rt.Locations()
	}
	return loads
}

// Execute implements Substrate: migrate VPs to the plan's owner table.
// Particles travel inside their VP, so no rehoming exchange is needed.
func (s *vpSubstrate) Execute(plan balance.Plan) (bool, error) {
	if plan.Owner == nil {
		return false, nil
	}
	if _, err := s.rt.Migrate(plan.Owner); err != nil {
		return false, err
	}
	s.placed()
	return false, nil
}

// MigrationStats implements Substrate.
func (s *vpSubstrate) MigrationStats() (int, int64) {
	return s.rt.Stats.VPsSent + s.rt.Stats.VPsReceived, s.rt.Stats.BytesSent
}
