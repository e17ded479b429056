package driver

import (
	"fmt"
	"time"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/trace"
)

// cell is one unit of the decomposition hosted on a rank: a materialized
// mesh block and the particles inside it. Under the block decomposition a
// rank hosts exactly one, its own rectangle; over-decomposed, it hosts the
// virtual processors placed on it.
type cell struct {
	// id is the cell's owner index in the stepper's owner table: the rank
	// under the block decomposition, the VP id when over-decomposed.
	id    int
	block *grid.Block
	soa   *core.SoA
	// owned is the ownership prefix: particles [0, owned) were classified
	// as staying by this step's fused move+classify pass and not touched
	// since, so CheckOwnership sweeps only what was appended behind them
	// (arrivals, injections). A removal's compaction zeroes it, and so does
	// rebuildTopology (new cuts, a new placement, a restore); that step's
	// check sweeps everything.
	owned int
}

// parcel addresses one destination cell's shard of arriving particles
// inside a per-rank parcel list — the one payload type of the particle
// exchange. In-process the Columns pointer refers into the sender's
// double-buffered shard set (see colShards for the reuse rules); off a socket
// it is the receiver's own decoded copy (see decodedShards).
type parcel struct {
	Owner int
	Cols  *core.Columns
}

// stepper is the step, once: what a rank does to the cells it hosts every
// time step, whichever decomposition put them there. It owns the exchange
// state — shards, parcel lists, send/receive pointers, byte and message
// accounting — and implements the part of Substrate that is a pure function
// of the hosted cells. The two substrates embed it and add what differs:
// construction, Measure, Execute, Checkpoint/Restore, and which cells the
// rank hosts. The block substrate is the one-cell case (owners are ranks,
// every owner hosts itself); the VP substrate is the many-cell case.
//
// Every buffer is double-buffered and reused, so a steady-state step (no
// events, no balancing) stays off the allocator entirely, and no particle is
// ever materialized in AoS form on the way.
type stepper struct {
	c    *comm.Comm
	cfg  Config
	pool *core.MovePool
	// unit names an owner in error messages: "rank" or "VP".
	unit string

	// The decomposition, installed by the substrate before rebuildTopology:
	// ot maps a mesh cell to its owner index, host[owner] is the rank
	// hosting that owner, and cells are the owners hosted here, ascending.
	ot    *core.OwnerTable
	host  []int
	cells []*cell
	// at indexes cells by owner (nil where the owner lives elsewhere).
	at []*cell

	// frontier marks the mesh cells within one step's displacement (rx, ry)
	// of a cell hosted on another rank; ni holds each hosted cell's interior
	// count between the two waves; nbr derives the sparse exchange schedule.
	rx, ry   int
	frontier core.Frontier
	ni       []int
	nbr      core.NbrSet
	// interior records whether any mesh cell hosted here lies outside the
	// frontier mask. When none does (a ring as wide as the blocks), every
	// particle is a frontier particle and the partition pass is skipped.
	interior bool

	// lv is the move pass's leaver list (reset per cell and wave); shards
	// holds the double-buffered per-owner Columns the leavers scatter into;
	// lists groups the remote-bound shards per hosting rank, double-buffered
	// because ExchangePtr transfers ownership of the pointed-to slices until
	// the next call completes.
	lv                 core.Leavers
	shards             colShards
	lists              [2][][]parcel
	lgen               int
	sendPtrs, recvPtrs []*[]parcel

	// xbytes is the exchange volume: in-process the framed size the shards
	// would occupy, on a wire transport the measured transport delta (same
	// quantity, including per-message framing, exact rather than estimated;
	// wireBase is the counter at start). peerBytes/peerMsgs accumulate the
	// per-destination-rank matrix in framed columnar units on both
	// transports, so the matrix is transport-invariant.
	xbytes, wireBase    int64
	peerBytes, peerMsgs []int64

	psScratch []particle.Particle
}

func (s *stepper) init(c *comm.Comm, cfg Config, unit string) {
	p := c.Size()
	s.c, s.cfg, s.unit = c, cfg, unit
	s.pool = core.NewMovePool(cfg.effectiveWorkers(p))
	s.rx, s.ry = cfg.ringWidths()
	for g := range s.lists {
		s.lists[g] = make([][]parcel, p)
	}
	s.sendPtrs = make([]*[]parcel, p)
	s.recvPtrs = make([]*[]parcel, p)
	s.peerBytes = make([]int64, p)
	s.peerMsgs = make([]int64, p)
}

// rebuildTopology recomputes everything derived from ot, host and cells: the
// frontier mask (and whether it leaves this rank any interior), the sparse
// exchange schedule over hosting ranks and the owner index — and zeroes every
// ownership prefix, which was established against the old decomposition.
// Called at construction, after every Execute and after a checkpoint restore. Installing the schedule mid-run arms comm's
// full-ring fence, which is exactly what a follow-up rehome exchange needs
// (it can route particles outside both the old and the new neighbor sets).
func (s *stepper) rebuildTopology() {
	me, L, host := s.c.Rank(), s.cfg.Mesh.L, s.host
	s.frontier.Rebuild(s.ot, L, s.rx, s.ry, func(o int32) bool { return host[o] != me })
	s.interior = false
	for cy := 0; cy < L && !s.interior; cy++ {
		for cx := 0; cx < L; cx++ {
			if host[s.ot.Owner(cx, cy)] == me && !s.frontier.At(cx, cy) {
				s.interior = true
				break
			}
		}
	}
	peers := s.nbr.Rebuild(s.ot, L, s.rx, s.ry, me, s.c.Size(), func(o int32) int { return host[o] })
	s.c.SetExchangeNeighbors(peers)
	if len(s.at) != len(s.host) {
		s.at = make([]*cell, len(s.host))
	}
	clear(s.at)
	for _, c := range s.cells {
		s.at[c.id] = c
		c.owned = 0
	}
	if cap(s.ni) < len(s.cells) {
		s.ni = make([]int, len(s.cells))
	}
	s.ni = s.ni[:len(s.cells)]
}

// MoveExchange implements Substrate: partition, frontier wave, start,
// interior wave, finish. PartitionFrontier swaps each cell's particles in
// frontier mesh cells into one contiguous tail (per mesh cell, not per
// hosted cell — over-decomposed, most VPs touch another rank's territory
// somewhere, but only a band of their mesh cells can reach it in one step).
// When the mask covers every mesh cell hosted here the answer is known to
// be "no interior" and the pass is not run.
// The tails move and classify first, their leavers scatter into the
// outgoing shards and the exchange STARTS; the interior heads move while
// the parcels are in flight, and only then does the exchange FINISH. The
// interior wave's wall time is credited as overlap.
//
// Correctness: the frontier ring is the exact per-step displacement bound,
// so no interior particle can leave the rank this step. An interior leaver
// bound for another cell hosted here is legal and rides the local shards,
// which deliver after both waves; one bound for another rank is a hard error
// rather than a silent mishoming — its shard is already in flight. Each tail
// is compacted before its interior wave starts (interior indices never
// shift: wave 1's leaver indices all sit in the tail), and arrivals append
// only after both waves. Particle updates are independent, so the split
// changes only the order in which they run, never a result.
func (s *stepper) MoveExchange(rec *trace.Recorder) error {
	mesh, me := s.cfg.Mesh, s.c.Rank()

	t0 := time.Now()
	cols := s.shards.next(len(s.host))
	for k, c := range s.cells {
		s.ni[k] = 0
		if s.interior {
			s.ni[k] = core.PartitionFrontier(c.soa, mesh, &s.frontier)
		}
		s.pool.MoveClassifyRange(c.soa, s.ni[k], c.soa.Len(), c.block, mesh, s.ot, int32(c.id), &s.lv)
		c.soa.ScatterRemove(&s.lv, cols)
	}
	rec.Add(trace.Compute, time.Since(t0))

	t1 := time.Now()
	s.start(cols)
	rec.Add(trace.Exchange, time.Since(t1))

	t2 := time.Now()
	for k, c := range s.cells {
		s.pool.MoveClassifyRange(c.soa, 0, s.ni[k], c.block, mesh, s.ot, int32(c.id), &s.lv)
		for w := 0; w < s.lv.Chunks(); w++ {
			_, ds := s.lv.Chunk(w)
			for _, d := range ds {
				if s.host[d] != me {
					return fmt.Errorf("driver: interior particle of %s %d left for %s %d on rank %d in one step (displacement ring rx=%d ry=%d violated)",
						s.unit, c.id, s.unit, d, s.host[d], s.rx, s.ry)
				}
			}
		}
		c.soa.ScatterRemove(&s.lv, cols)
		// Both waves classified every particle still here as staying.
		c.owned = c.soa.Len()
	}
	d2 := time.Since(t2)
	rec.Add(trace.Compute, d2)
	if s.c.Size() > 1 {
		rec.AddOverlap(d2)
	}

	t3 := time.Now()
	err := s.finish(cols)
	rec.Add(trace.Exchange, time.Since(t3))
	return err
}

// Exchange implements Substrate: the rehome exchange after a decomposition
// change, which arrives without a move — the same start and finish, fed by a
// classification sweep instead of the fused pass. It can route anywhere (the
// fence armed by rebuildTopology runs it on the full ring), ships nothing
// when every particle is already home, and leaves the ownership prefixes
// alone: that step's check still sweeps everything.
func (s *stepper) Exchange(rec *trace.Recorder) error {
	t0 := time.Now()
	mesh, ot := s.cfg.Mesh, s.ot
	cols := s.shards.next(len(s.host))
	for _, c := range s.cells {
		s.lv.Reset(1)
		xs, ys, self := c.soa.X, c.soa.Y, int32(c.id)
		for i := range xs {
			cx, cy := mesh.CellOf(xs[i], ys[i])
			if o := ot.Owner(cx, cy); o != self {
				s.lv.Add(0, int32(i), o)
			}
		}
		c.soa.ScatterRemove(&s.lv, cols)
	}
	s.start(cols)
	err := s.finish(cols)
	rec.Add(trace.Exchange, time.Since(t0))
	return err
}

// start groups the non-empty shards bound for other ranks into per-rank
// parcel lists (ascending owner order — deterministic), accounts them and
// posts them. A rank with nothing to receive gets a nil pointer: under the
// sparse schedule the nils inside the neighbor set still travel, the ones
// outside it are elided entirely. Shards for cells hosted here stay behind
// for finish, so the caller may keep adding to them until then.
func (s *stepper) start(cols []core.Columns) {
	me, onWire := s.c.Rank(), s.c.OnWire()
	lists := s.lists[s.lgen]
	s.lgen = 1 - s.lgen
	for dst := range lists {
		lists[dst] = lists[dst][:0]
	}
	for o := range cols {
		if dst := s.host[o]; dst != me && cols[o].Len() > 0 {
			lists[dst] = append(lists[dst], parcel{Owner: o, Cols: &cols[o]})
		}
	}
	for dst := range lists {
		if len(lists[dst]) == 0 {
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
	if onWire {
		s.wireBase = s.c.TransportBytes()
	}
	comm.ExchangePtrStart(s.c, s.sendPtrs)
}

// finish completes the exchange start opened and appends the arrivals to
// their cells: the parcels from other ranks, then the local shards. On a
// wire transport each received shard is recycled once delivered.
func (s *stepper) finish(cols []core.Columns) error {
	me, onWire := s.c.Rank(), s.c.OnWire()
	comm.ExchangePtrFinish(s.c, s.sendPtrs, s.recvPtrs)
	if onWire {
		s.xbytes += s.c.TransportBytes() - s.wireBase
	}
	for src, lp := range s.recvPtrs {
		if src == me || lp == nil {
			continue
		}
		for _, pc := range *lp {
			if err := s.deliver(pc.Owner, pc.Cols); err != nil {
				return err
			}
			if onWire {
				// Decoded for this rank and now copied out: back to the
				// decoder's free list (see decodedShards for the rule).
				decodedShards.put(pc.Cols)
			}
		}
	}
	for o := range cols {
		if s.host[o] == me && cols[o].Len() > 0 {
			if err := s.deliver(o, &cols[o]); err != nil {
				return err
			}
		}
	}
	return nil
}

// deliver appends a shard to the cell it is addressed to. The address may
// have crossed a socket, so it is checked.
func (s *stepper) deliver(owner int, cols *core.Columns) error {
	if owner < 0 || owner >= len(s.at) || s.at[owner] == nil || cols == nil {
		return fmt.Errorf("driver: parcel for %s %d arrived at rank %d, which does not host it", s.unit, owner, s.c.Rank())
	}
	s.at[owner].soa.AppendColumns(cols)
	return nil
}

// ApplyEvents implements Substrate: removal in every hosted cell;
// injections routed to the owning cell if it is hosted here.
func (s *stepper) ApplyEvents(es *eventState, step int) {
	es.apply(s.cfg, step, func(region dist.Rect) {
		for _, c := range s.cells {
			removeRegion(c.soa, region, s.cfg.Mesh)
			c.owned = 0
		}
	}, func(cx, cy int, p *particle.Particle) {
		if c := s.at[s.ot.Owner(cx, cy)]; c != nil {
			c.soa.Append(*p)
		}
	})
}

// Count implements Substrate.
func (s *stepper) Count() int {
	n := 0
	for _, c := range s.cells {
		n += c.soa.Len()
	}
	return n
}

// CheckOwnership implements Substrate: every particle behind its cell's
// ownership prefix must sit inside that cell's subdomain.
func (s *stepper) CheckOwnership(step int) error {
	mesh, ot := s.cfg.Mesh, s.ot
	for _, c := range s.cells {
		xs, ys, self := c.soa.X, c.soa.Y, int32(c.id)
		for i := c.owned; i < len(xs); i++ {
			cx, cy := mesh.CellOf(xs[i], ys[i])
			if ot.Owner(cx, cy) != self {
				return fmt.Errorf("driver: step %d: particle %d at cell (%d,%d) not owned by %s %d", step, c.soa.Meta[i].ID, cx, cy, s.unit, c.id)
			}
		}
	}
	return nil
}

// VerifyLocal implements Substrate: one verifier over every hosted cell, so
// a duplicate ID is caught across the cells of a rank as well as within one.
func (s *stepper) VerifyLocal(v *core.ColumnVerifier) error {
	for _, c := range s.cells {
		if err := v.Check(c.soa); err != nil {
			return err
		}
	}
	return nil
}

// Particles implements Substrate. The returned slice is scratch, valid
// until the next Particles call.
func (s *stepper) Particles() []particle.Particle {
	s.psScratch = s.psScratch[:0]
	for _, c := range s.cells {
		s.psScratch = c.soa.AppendParticles(s.psScratch)
	}
	return s.psScratch
}

// ExchangeBytes implements Substrate.
func (s *stepper) ExchangeBytes() int64 { return s.xbytes }

// PeerExchange implements Substrate.
func (s *stepper) PeerExchange() (bytes, msgs []int64) { return s.peerBytes, s.peerMsgs }

// Close implements Substrate.
func (s *stepper) Close() { s.pool.Close() }
