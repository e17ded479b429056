package driver

import (
	"fmt"
	"time"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/pup"
	"github.com/parres/picprk/internal/telemetry"
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
// exchange. In-process the shard pointer refers into the sender's
// double-buffered shard set (see colShards for the reuse rules); off a socket
// it is the receiver's own decoded copy (see decodedShards).
type parcel struct {
	Owner int
	Cols  *core.SoA
}

// stepper is the step, once: what a rank does to the cells it hosts every
// time step, whichever decomposition put them there. It owns the
// decomposition, the exchange state — shards, parcel lists, send/receive
// pointers — and both ledgers, and implements the part of Substrate that is
// a pure function of the hosted cells, the checkpoint included
// (checkpoint.go). The two substrates embed it and add what differs:
// construction, Measure, Execute, and which cells the rank hosts. The block
// substrate is the one-cell case (owners are ranks, every owner hosts
// itself); the VP substrate is the many-cell case.
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
	// home is the embedding substrate's say in a restore.
	home cellHome

	// The decomposition, installed by the substrate before rebuildTopology:
	// g is the owner grid, which fixes every owner's rectangle, ot maps a
	// mesh cell to its owner index (built from g's cuts), host[owner] is
	// the rank hosting that owner, and cells are the owners hosted here,
	// ascending.
	g     *decomp.Grid2D
	ot    *core.OwnerTable
	host  []int
	cells []*cell
	// at indexes cells by owner (nil where the owner lives elsewhere).
	at []*cell

	// nbr derives, from one step's displacement (rx, ry), the sparse
	// exchange schedule: the ranks hosting a cell within reach of a cell
	// hosted here.
	rx, ry int
	nbr    core.NbrSet

	// lv is the move pass's leaver list (reset per cell); shards
	// holds the double-buffered per-owner shards the leavers scatter into;
	// lists groups the remote-bound shards per hosting rank, double-buffered
	// because ExchangePtr transfers ownership of the pointed-to slices until
	// the next call completes.
	lv                 core.Leavers
	shards             colShards
	lists              [2][][]parcel
	lgen               int
	sendPtrs, recvPtrs []*[]parcel

	// The exchange ledger, the same on every transport and carried by
	// checkpoints: per destination rank the framed columnar bytes and the
	// parcel lists sent; the messages posted and those the sparse schedule
	// elided from the P-1 ring; and the fence, the full-ring exchanges comm
	// owes after a schedule change, which decides what the next ones post.
	peerBytes, peerMsgs  []int64
	msgsSent, msgsElided int64
	fence                int

	// The migration ledger, carried by checkpoints: the moves the balancer
	// made this rank take part in and the payload bytes it sent for them.
	migrations    int
	migratedBytes int64
}

func (s *stepper) init(c *comm.Comm, cfg Config, unit string, home cellHome) {
	p := c.Size()
	s.c, s.cfg, s.unit, s.home = c, cfg, unit, home
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
// sparse exchange schedule over hosting ranks (NbrSet.Rebuild) and the
// owner index — and zeroes every ownership prefix, which was
// established against the old decomposition. Called at construction, after
// every Execute and after a checkpoint restore. Installing the schedule
// mid-run arms comm's full-ring fence, which a follow-up rehome exchange
// needs (it can route particles outside both neighbor sets); a restore
// rearms the fence the checkpoint owed.
func (s *stepper) rebuildTopology() {
	host := s.host
	peers := s.nbr.Rebuild(s.ot, s.cfg.Mesh.L, s.rx, s.ry, s.c.Rank(), s.c.Size(), func(o int32) int { return host[o] })
	s.fence = s.c.SetExchangeNeighbors(peers, s.fence)
	if len(s.at) != len(s.host) {
		s.at = make([]*cell, len(s.host))
	}
	clear(s.at)
	for _, c := range s.cells {
		s.at[c.id] = c
		c.owned = 0
	}
}

// MoveExchange implements Substrate: one pass, then the exchange. Each
// hosted cell's particles move and classify in one fused pass, the leavers
// scatter into the outgoing shards, and every particle still there was
// classified as staying, so it becomes the cell's ownership prefix. Then the
// exchange starts and finishes once. ScatterRemove keeps the stayers in
// order, and arrivals append behind them, so a particle's place in its cell
// changes only by the leavers removed ahead of it.
//
// The pass is booked as compute and the exchange as exchange: the two tile
// the step. A leaver bound for a rank outside the neighbor schedule (a
// displacement ring too narrow) makes comm.ExchangePtrStart panic, which
// the world turns into the run's error.
func (s *stepper) MoveExchange(rec *trace.Recorder) error {
	mesh := s.cfg.Mesh
	t0 := time.Now()
	cols := s.shards.next(len(s.host))
	for _, c := range s.cells {
		s.pool.MoveClassify(c.soa, c.block, mesh, s.ot, int32(c.id), &s.lv)
		c.soa.ScatterRemove(&s.lv, cols)
		c.owned = c.soa.Len()
	}
	rec.Add(telemetry.Compute, time.Since(t0))

	t1 := time.Now()
	s.start(cols)
	err := s.finish(cols)
	rec.Add(telemetry.Exchange, time.Since(t1))
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
	rec.Add(telemetry.Exchange, time.Since(t0))
	return err
}

// start groups the non-empty shards bound for other ranks into per-rank
// parcel lists (ascending owner order — deterministic), accounts them and
// posts them. A rank with nothing to receive gets a nil pointer: under the
// sparse schedule the nils inside the neighbor set still travel (and count
// as sent), the ones outside it are elided. Shards for cells hosted here
// stay behind for finish, so the caller may keep adding to them until then.
func (s *stepper) start(cols []core.SoA) {
	me := s.c.Rank()
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
		}
	}
	posted := comm.ExchangePtrStart(s.c, s.sendPtrs)
	s.msgsSent += int64(posted)
	s.msgsElided += int64(len(lists) - 1 - posted)
	s.fence = max(s.fence-1, 0)
}

// finish completes the exchange start opened and appends the arrivals to
// their cells: the parcels from other ranks, then the local shards. On a
// wire transport each received shard is recycled once delivered.
func (s *stepper) finish(cols []core.SoA) error {
	me, onWire := s.c.Rank(), s.c.OnWire()
	comm.ExchangePtrFinish(s.c, s.sendPtrs, s.recvPtrs)
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
func (s *stepper) deliver(owner int, cols *core.SoA) error {
	if owner < 0 || owner >= len(s.at) || s.at[owner] == nil || cols == nil {
		return fmt.Errorf("driver: parcel for %s %d arrived at rank %d, which does not host it", s.unit, owner, s.c.Rank())
	}
	s.at[owner].soa.AppendColumns(cols)
	return nil
}

// ApplyEvents implements Substrate: removal in every hosted cell;
// injections routed to the owning cell if it is hosted here.
func (s *stepper) ApplyEvents(ev *core.Events, step int) {
	ev.Fire(step, func(visit func(*core.SoA)) {
		for _, c := range s.cells {
			visit(c.soa)
			c.owned = 0
		}
	}, func(cx, cy int) *core.SoA {
		if c := s.at[s.ot.Owner(cx, cy)]; c != nil {
			return c.soa
		}
		return nil
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

// Local implements Substrate: the hosted cells' containers in ascending
// owner order, so one verifier sees them all and catches a duplicate ID
// across the cells of a rank as well as within one.
func (s *stepper) Local(visit func(*core.SoA) error) error {
	for _, c := range s.cells {
		if err := visit(c.soa); err != nil {
			return err
		}
	}
	return nil
}

// Particles implements Substrate.
func (s *stepper) Particles() []particle.Particle {
	var ps []particle.Particle
	for _, c := range s.cells {
		ps = c.soa.AppendParticles(ps)
	}
	return ps
}

// MigrationStats implements Substrate.
func (s *stepper) MigrationStats() (int, int64) { return s.migrations, s.migratedBytes }

// PeerExchange implements Substrate.
func (s *stepper) PeerExchange() (bytes, msgs []int64, sent, elided int64) {
	return s.peerBytes, s.peerMsgs, s.msgsSent, s.msgsElided
}

// pupLedger serializes the exchange ledger into the rows init sized, each
// row's length checked against the world size before the row is read.
func (s *stepper) pupLedger(p *pup.PUPer) {
	for _, row := range [][]int64{s.peerBytes, s.peerMsgs} {
		n := len(row)
		p.Int(&n)
		if p.Mode() == pup.Unpacking && n != len(row) {
			p.Fail(fmt.Errorf("driver: checkpoint exchange ledger has a row for %d ranks, run has %d", n, len(row)))
			return
		}
		for i := range row {
			pupInt64(p, &row[i])
		}
	}
	pupInt64(p, &s.msgsSent)
	pupInt64(p, &s.msgsElided)
	p.Int(&s.fence)
	if p.Mode() == pup.Unpacking && (s.fence < 0 || s.fence > 2) {
		p.Fail(fmt.Errorf("driver: checkpoint owes %d full-ring exchanges, comm owes at most 2", s.fence))
	}
}

// Close implements Substrate.
func (s *stepper) Close() { s.pool.Close() }
