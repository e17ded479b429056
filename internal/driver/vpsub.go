package driver

import (
	"fmt"
	"time"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/pup"
	"github.com/parres/picprk/internal/trace"
)

// picVP is one virtual processor of the over-decomposed PIC problem: a
// static rectangular subdomain with its materialized mesh block and the
// particles currently inside it, stored SoA for the move kernel. Migration
// PUPs the entire state — particles and grid data — mirroring the paper's
// PUP routines.
type picVP struct {
	id     int
	mesh   grid.Mesh
	x0, y0 int
	nx, ny int
	block  *grid.Block
	soa    *core.SoA
	// owned is the VP's ownership prefix (see blockSubstrate.owned): set
	// after the step's ScatterRemove, zeroed by a removal event, a migration
	// step and unpacking. It is not part of the PUPed state.
	owned int
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
		v.owned = 0
		if v.block == nil {
			v.block = &grid.Block{}
		}
		if err := v.block.ReinitFromData(v.mesh, v.x0, v.y0, v.nx, v.ny, v.gdata); err != nil {
			p.Fail(err)
		}
	}
}

// vpColParcel addresses one destination VP's shard of arriving particles
// inside a per-core parcel list. The Columns pointer refers into the
// sender's double-buffered shard set (see colShards for the reuse rules).
type vpColParcel struct {
	VP   int
	Cols *core.Columns
}

// vpSubstrate realizes the §IV-C execution model: the static 2D algorithm
// over-decomposed into d·P virtual processors hosted by the ampi runtime,
// with a strategy-driven Balancer deciding VP placement and PUP-serialized
// migration executing it. It backs both the "ampi" and the "worksteal"
// drivers.
//
// The per-step exchange is columnar, like the block substrate's: the move
// pass classifies leavers against the static cell→VP owner table,
// ScatterRemove deposits them into per-VP Columns shards, the shards are
// grouped into per-core parcel lists, and comm.ExchangePtr moves the lists
// by pointer. All of it reuses double-buffered storage, so the steady-state
// step stays off the allocator.
type vpSubstrate struct {
	c    *comm.Comm
	cfg  Config
	rt   *ampi.Runtime
	pool *core.MovePool

	// vot is the dense cell→VP owner table; the VP decomposition is static,
	// so it is built once.
	vot *core.OwnerTable
	// lv is the per-VP move pass's leaver list (reset per VP); shards holds
	// the double-buffered per-destination-VP Columns, filled by Move (cur is
	// the generation in flight) and shipped by Exchange.
	lv     core.Leavers
	shards colShards
	cur    []core.Columns
	// lists / sendPtrs / recvPtrs are the per-core parcel groupings; lists
	// is double-buffered because ExchangePtr transfers ownership of the
	// pointed-to slices until the next call completes.
	lists              [2][][]vpColParcel
	lgen               int
	sendPtrs, recvPtrs []*[]vpColParcel

	psScratch []particle.Particle
	xbytes    int64
	// peerBytes/peerMsgs accumulate the per-destination-core exchange
	// matrix in framed columnar units (transport-invariant); nbr derives
	// the sparse exchange schedule from the VP owner table and the current
	// placement, refreshed after every migration.
	peerBytes, peerMsgs []int64
	nbr                 core.NbrSet

	// Pipeline state (pipelined is false only under Config.Tile == -1). Each
	// VP's particles partition into an interior head and a frontier tail
	// against a global frontier mask — a cell is frontier when one step could
	// carry a particle from it into a VP hosted on another core. The mask
	// depends on VP placement and is rebuilt after every Migrate; vni holds
	// each local VP's interior count between the two waves.
	pipelined bool
	rx, ry    int
	frontier  core.Frontier
	vni       []int
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
		return &picVP{id: vp, mesh: cfg.Mesh, x0: x0, y0: y0, nx: nx, ny: ny, block: block, soa: &core.SoA{}}
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
	s := &vpSubstrate{
		c: c, cfg: cfg, rt: rt, vot: vot,
		pool: core.NewMovePool(cfg.effectiveWorkers(c.Size())),
	}
	s.pipelined = cfg.Tile != -1
	s.rx, s.ry = cfg.ringWidths()
	s.peerBytes = make([]int64, p)
	s.peerMsgs = make([]int64, p)
	s.rebuildTopology()
	return s, nil
}

// rebuildTopology recomputes everything derived from VP placement: the
// frontier mask (when the pipeline is on — remote means the owning VP is
// hosted on another core) and the sparse exchange schedule over hosting
// cores. Called at construction, after every migration, and after a
// checkpoint restore. A migration does not rehome particles, but it does
// put the pre-migration schedule's pointers in flight, so installing the
// refreshed schedule arms comm's full-ring fence.
func (s *vpSubstrate) rebuildTopology() {
	me := s.c.Rank()
	if s.pipelined {
		s.frontier.Rebuild(s.vot, s.cfg.Mesh.L, s.rx, s.ry, func(o int32) bool {
			return s.rt.Location(int(o)) != me
		})
	}
	peers := s.nbr.Rebuild(s.vot, s.cfg.Mesh.L, s.rx, s.ry, me, s.c.Size(),
		func(o int32) int { return s.rt.Location(int(o)) })
	s.c.SetExchangeNeighbors(peers)
}

// Move implements Substrate: each local VP runs through the shared worker
// pool's fused move+classify pass against the static cell→VP owner table;
// its leavers scatter straight into the per-destination-VP Columns shards
// of the current generation — no AoS materialization, no second sweep.
func (s *vpSubstrate) Move() {
	cols := s.shards.next(s.rt.NumVPs())
	s.cur = cols
	for _, id := range s.rt.LocalIDs() {
		v := s.rt.Local(id).(*picVP)
		s.pool.MoveClassify(v.soa, v.block, s.cfg.Mesh, s.vot, int32(v.id), &s.lv)
		v.soa.ScatterRemove(&s.lv, cols)
		v.owned = v.soa.Len()
	}
}

// Exchange implements Substrate: the non-empty VP shards of the current
// generation are grouped into per-hosting-core parcel lists (ascending VP
// order — deterministic) and moved by pointer; arrivals append column-wise
// to their destination VPs. Lists are double-buffered for the same reason
// the shards are.
func (s *vpSubstrate) Exchange(rec *trace.Recorder) error {
	start := time.Now()
	p, me := s.c.Size(), s.c.Rank()
	lists := s.nextLists()
	cols := s.cur
	for vp := range cols {
		sh := &cols[vp]
		if sh.Len() == 0 {
			continue
		}
		dst := s.rt.Location(vp)
		lists[dst] = append(lists[dst], vpColParcel{VP: vp, Cols: sh})
	}
	if len(s.sendPtrs) != p {
		s.sendPtrs = make([]*[]vpColParcel, p)
		s.recvPtrs = make([]*[]vpColParcel, p)
	}
	onWire := s.c.OnWire()
	for dst := range lists {
		if dst == me || len(lists[dst]) == 0 {
			s.sendPtrs[dst] = nil
			continue
		}
		s.sendPtrs[dst] = &lists[dst]
		s.peerMsgs[dst]++
		for _, pc := range lists[dst] {
			s.peerBytes[dst] += pc.Cols.FramedBytes()
			if !onWire {
				s.xbytes += pc.Cols.FramedBytes()
			}
		}
	}
	// Estimated framed size in-process, measured transport delta on the
	// wire (see blockSubstrate.Exchange for the rationale).
	var wireBase int64
	if onWire {
		wireBase = s.c.TransportBytes()
	}
	comm.ExchangePtr(s.c, s.sendPtrs, s.recvPtrs)
	if onWire {
		s.xbytes += s.c.TransportBytes() - wireBase
	}
	for src := 0; src < p; src++ {
		var parcels []vpColParcel
		if src == me {
			parcels = lists[me] // self parcels transfer locally
		} else if lp := s.recvPtrs[src]; lp != nil {
			parcels = *lp
		}
		if err := s.deliverParcels(parcels); err != nil {
			return err
		}
	}
	rec.Add(trace.Exchange, time.Since(start))
	return nil
}

// deliverParcels appends each parcel's columns to its destination VP.
func (s *vpSubstrate) deliverParcels(parcels []vpColParcel) error {
	for _, pc := range parcels {
		avp := s.rt.Local(pc.VP)
		if avp == nil {
			return fmt.Errorf("driver: parcel for VP %d arrived at core %d which does not host it", pc.VP, s.c.Rank())
		}
		avp.(*picVP).soa.AppendColumns(pc.Cols)
	}
	return nil
}

// nextLists returns the older generation's per-core parcel lists, emptied.
func (s *vpSubstrate) nextLists() [][]vpColParcel {
	p := s.c.Size()
	lists := s.lists[s.lgen]
	if len(lists) != p {
		lists = make([][]vpColParcel, p)
		s.lists[s.lgen] = lists
	}
	s.lgen = 1 - s.lgen
	for i := range lists {
		lists[i] = lists[i][:0]
	}
	return lists
}

// MoveExchange implements Substrate: the pipelined step on the
// over-decomposed substrate. Each VP's particles are partitioned against
// the global frontier mask into an interior head and a frontier tail
// (per-cell, not per-VP — with over-decomposition most VPs touch a remote
// core's territory somewhere, but only a band of their cells can actually
// reach it in one step). The frontier tails of every local VP move first
// and their leavers go on the wire; the interior heads move while the
// parcels are in flight. Interior leavers are legal here — a particle may
// hop to another VP hosted on this same core — but an interior leaver
// bound for a remote core would mean the displacement ring is wrong, and
// is a hard error: its shard may already be in flight.
func (s *vpSubstrate) MoveExchange(rec *trace.Recorder) error {
	if !s.pipelined {
		start := time.Now()
		s.Move()
		rec.Add(trace.Compute, time.Since(start))
		return s.Exchange(rec)
	}
	mesh, p, me := s.cfg.Mesh, s.c.Size(), s.c.Rank()

	// Wave 1: partition each VP and move its frontier tail.
	t0 := time.Now()
	cols := s.shards.next(s.rt.NumVPs())
	s.cur = cols
	ids := s.rt.LocalIDs()
	if cap(s.vni) < len(ids) {
		s.vni = make([]int, len(ids))
	}
	vni := s.vni[:len(ids)]
	for k, id := range ids {
		v := s.rt.Local(id).(*picVP)
		vni[k] = core.PartitionFrontier(v.soa, mesh, &s.frontier)
		s.pool.MoveClassifyRange(v.soa, vni[k], v.soa.Len(), v.block, mesh, s.vot, int32(id), &s.lv)
		v.soa.ScatterRemove(&s.lv, cols)
	}
	rec.Add(trace.Compute, time.Since(t0))

	// Ship the remote-bound shards. Shards for VPs hosted on this core stay
	// local and deliver after both waves (wave 2 may still add to them).
	t1 := time.Now()
	lists := s.nextLists()
	for vp := range cols {
		sh := &cols[vp]
		if sh.Len() == 0 {
			continue
		}
		if dst := s.rt.Location(vp); dst != me {
			lists[dst] = append(lists[dst], vpColParcel{VP: vp, Cols: sh})
		}
	}
	if len(s.sendPtrs) != p {
		s.sendPtrs = make([]*[]vpColParcel, p)
		s.recvPtrs = make([]*[]vpColParcel, p)
	}
	onWire := s.c.OnWire()
	for dst := range lists {
		if dst == me || len(lists[dst]) == 0 {
			s.sendPtrs[dst] = nil
			continue
		}
		s.sendPtrs[dst] = &lists[dst]
		s.peerMsgs[dst]++
		for _, pc := range lists[dst] {
			s.peerBytes[dst] += pc.Cols.FramedBytes()
			if !onWire {
				s.xbytes += pc.Cols.FramedBytes()
			}
		}
	}
	var wireBase int64
	if onWire {
		wireBase = s.c.TransportBytes()
	}
	comm.ExchangePtrStart(s.c, s.sendPtrs)
	rec.Add(trace.Exchange, time.Since(t1))

	// Wave 2: interior heads, overlapped with the in-flight exchange.
	t2 := time.Now()
	for k, id := range ids {
		v := s.rt.Local(id).(*picVP)
		s.pool.MoveClassifyRange(v.soa, 0, vni[k], v.block, mesh, s.vot, int32(id), &s.lv)
		for w := 0; w < s.lv.Chunks(); w++ {
			_, ds := s.lv.Chunk(w)
			for _, d := range ds {
				if s.rt.Location(int(d)) != me {
					return fmt.Errorf("driver: interior particle of VP %d left for remote-hosted VP %d in one step (displacement ring rx=%d ry=%d violated)", id, d, s.rx, s.ry)
				}
			}
		}
		v.soa.ScatterRemove(&s.lv, cols)
		v.owned = v.soa.Len()
	}
	d2 := time.Since(t2)
	rec.Add(trace.Compute, d2)
	if p > 1 {
		rec.AddOverlap(d2)
	}

	// Finish: remote arrivals, then the local shards from both waves.
	t3 := time.Now()
	comm.ExchangePtrFinish(s.c, s.sendPtrs, s.recvPtrs)
	if onWire {
		s.xbytes += s.c.TransportBytes() - wireBase
	}
	for src := 0; src < p; src++ {
		if src == me {
			continue
		}
		if lp := s.recvPtrs[src]; lp != nil {
			if err := s.deliverParcels(*lp); err != nil {
				return err
			}
		}
	}
	for vp := range cols {
		sh := &cols[vp]
		if sh.Len() == 0 || s.rt.Location(vp) != me {
			continue
		}
		avp := s.rt.Local(vp)
		if avp == nil {
			return fmt.Errorf("driver: local shard for VP %d on core %d which does not host it", vp, me)
		}
		avp.(*picVP).soa.AppendColumns(sh)
	}
	rec.Add(trace.Exchange, time.Since(t3))
	return nil
}

// ApplyEvents implements Substrate: removal per VP; injections routed to
// the owning VP if hosted locally.
func (s *vpSubstrate) ApplyEvents(es *eventState, step int) {
	es.apply(s.cfg, step, func(region dist.Rect) {
		s.rt.ForEach(func(avp ampi.VP) {
			v := avp.(*picVP)
			removeRegion(v.soa, region, s.cfg.Mesh)
			v.owned = 0
		})
	}, func(cx, cy int, p *particle.Particle) {
		if v, ok := s.rt.Local(int(s.vot.Owner(cx, cy))).(*picVP); ok {
			v.soa.Append(*p)
		}
	})
}

// Count implements Substrate. Written without closures (and against the
// runtime's cached id list) so the per-step path stays allocation-free.
func (s *vpSubstrate) Count() int {
	n := 0
	for _, id := range s.rt.LocalIDs() {
		n += s.rt.Local(id).(*picVP).soa.Len()
	}
	return n
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
	// VP placement changed, so which cells can reach a remote core — and
	// therefore the reachable peer set — changed. A migration step also
	// re-checks every hosted particle, arrivals (zeroed by unpack) or not.
	for _, id := range s.rt.LocalIDs() {
		s.rt.Local(id).(*picVP).owned = 0
	}
	s.rebuildTopology()
	return false, nil
}

// CheckOwnership implements Substrate: every particle behind its VP's
// ownership prefix must sit inside that VP's subdomain. Like Count, it
// avoids closures on the per-step path.
func (s *vpSubstrate) CheckOwnership(step int) error {
	mesh := s.cfg.Mesh
	for _, id := range s.rt.LocalIDs() {
		v := s.rt.Local(id).(*picVP)
		self := int32(v.id)
		for i := v.owned; i < v.soa.Len(); i++ {
			cx, cy := mesh.CellOf(v.soa.X[i], v.soa.Y[i])
			if s.vot.Owner(cx, cy) != self {
				return fmt.Errorf("driver: step %d: particle %d at cell (%d,%d) not owned by VP %d", step, v.soa.Meta[i].ID, cx, cy, v.id)
			}
		}
	}
	return nil
}

// VerifyLocal implements Substrate: one verifier over every hosted VP, so a
// duplicate ID is caught across VPs of the rank as well as within one.
func (s *vpSubstrate) VerifyLocal(v *core.ColumnVerifier) error {
	for _, id := range s.rt.LocalIDs() {
		if err := v.Check(s.rt.Local(id).(*picVP).soa); err != nil {
			return err
		}
	}
	return nil
}

// Particles implements Substrate. The returned slice is scratch, valid
// until the next Particles call.
func (s *vpSubstrate) Particles() []particle.Particle {
	s.psScratch = s.psScratch[:0]
	for _, id := range s.rt.LocalIDs() {
		s.psScratch = s.rt.Local(id).(*picVP).soa.AppendParticles(s.psScratch)
	}
	return s.psScratch
}

// MigrationStats implements Substrate.
func (s *vpSubstrate) MigrationStats() (int, int64) {
	return s.rt.Stats.VPsSent + s.rt.Stats.VPsReceived, s.rt.Stats.BytesSent
}

// ExchangeBytes implements Substrate.
func (s *vpSubstrate) ExchangeBytes() int64 { return s.xbytes }

// PeerExchange implements Substrate.
func (s *vpSubstrate) PeerExchange() (bytes, msgs []int64) { return s.peerBytes, s.peerMsgs }

// Close implements Substrate.
func (s *vpSubstrate) Close() { s.pool.Close() }
