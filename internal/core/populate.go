package core

import (
	"slices"

	"github.com/parres/picprk/internal/dist"
)

// This file is what changes a run's population besides the move: the
// set-up fill and the step's events. Ranks, virtual processors and the
// one-owner Simulation all run it on their columns.

// Fill streams cfg's initial population into the containers local returns
// for the owners of ot — ranks, VPs, or a Simulation's one owner — nil for
// an owner that lives elsewhere, never materializing the rest of the world.
// Each container comes out in cell order: by column, then row, ties in ID
// order, the order a grid.Block stores its charges in, so the kernel reads
// them front to back. The cell columns a local owner reaches come from the
// owner table's axes, O(L + owners); the others are skipped, RNG included.
// Over the rest the plan is walked twice: a count pass that tallies owners
// from the drawn rows, then, every container sized exactly, a fill pass that
// buckets each column's particles by row and writes them by index in that
// order. The count pass draws nothing for a column one owner holds from end
// to end: that owner gets the plan's count. Placement stays bitwise
// independent of the owner table, which the verification scheme relies on:
// every rank sees the same stream and keeps its share.
func Fill(cfg dist.Config, ot *OwnerTable, owners int, local func(owner int32) *SoA) error {
	dst := make([]*SoA, owners)
	hosted := make([]bool, owners)
	for o := range dst {
		dst[o] = local(int32(o))
		hosted[o] = dst[o] != nil
	}
	plan, err := dist.NewPlan(cfg)
	if err != nil {
		return err
	}
	want := ot.ColumnsOf(hosted)
	lo, hi := plan.RowRange()
	at := make([]int, owners) // owner o's particle count, then its fill cursor
	// The owner of a column's cells is monotone in the row (the cuts
	// ascend), so one owner at both ends of the row range owns it all.
	whole := func(cx int) bool { return ot.Owner(cx, lo) == ot.Owner(cx, hi-1) }
	for cx, w := range want {
		if w && whole(cx) {
			at[ot.Owner(cx, lo)] += plan.Count(cx)
		}
	}
	plan.Columns(func(cx int) bool { return want[cx] && !whole(cx) }, func(c *dist.Column) {
		for _, row := range c.Rows {
			at[ot.Owner(c.X, int(row))]++
		}
	})
	for o, s := range dst {
		if s != nil {
			s.Resize(at[o])
		}
		at[o] = 0
	}
	// Each column's particles are bucketed by row before they are written,
	// so that every container is written front to back: head[r-lo] is 1 +
	// the offset in the column of the first hosted particle in row r (0:
	// none), and the plan's row buffer, once read, links each one to the
	// next of its row the same way, ties in ID order. head is zero between
	// columns, and only the rows from the first to the last hosted
	// particle are touched. Where every owner of the column is hosted, no
	// particle's owner is looked up.
	head := make([]int32, hi-lo)
	plan.Columns(func(cx int) bool { return want[cx] }, func(c *dist.Column) {
		all := ot.hostsRows(c.X, lo, hi, hosted)
		first, last := hi, lo
		for k := len(c.Rows) - 1; k >= 0; k-- {
			r := int(c.Rows[k])
			if !all && dst[ot.Owner(c.X, r)] == nil {
				continue
			}
			c.Rows[k], head[r-lo] = head[r-lo], int32(k+1)
			first, last = min(first, r), max(last, r)
		}
		b := c.Batch
		x, q := dist.Center(c.X), b.Charge(c.X)
		m := SoAMeta{X0: x, K: b.K, M: b.M, Dir: b.Dir, Born: b.Born}
		for r := first; r <= last; r++ {
			e := head[r-lo]
			if e == 0 {
				continue
			}
			head[r-lo] = 0
			o := ot.Owner(c.X, r)
			s, i, y := dst[o], at[o], dist.Center(r)
			m.Y0 = y
			for ; e != 0; e = c.Rows[e-1] {
				s.X[i], s.Y[i], s.VX[i], s.VY[i], s.Q[i] = x, y, 0, b.VY, q
				m.ID = c.First + uint64(e-1)
				s.Meta[i] = m
				i++
			}
			at[o] = i
		}
	})
	return nil
}

// Events fires a run's injection and removal events (paper §III-E5).
type Events struct {
	cfg   dist.Config
	sched dist.Schedule
	// NextID is the ID the next injection mints first. Every rank advances
	// it identically, and a checkpoint carries it.
	NextID uint64

	// Scratch of the injection sort, kept across events: the containers
	// an injection appended to with their lengths before it, and the
	// counting sort's counts.
	tails []injected
	hist  []int32
}

// injected is a container an injection appended to, and its length before.
type injected struct {
	s    *SoA
	from int
}

// NewEvents prepares the events of sched for a run initialized from cfg.
func NewEvents(cfg dist.Config, sched dist.Schedule) Events {
	_, next := cfg.IDRange()
	return Events{cfg: cfg, sched: sched, NextID: next}
}

// Fire fires the events scheduled at step, each removal before its
// injection, so particles injected at a step are never removed by that
// step's own event. A removal deletes, in place, every particle inside its
// region from each container that each visits; an injection appends every
// particle it adds to at(cx, cy), the container of its start cell, and
// drops it where that is nil: every rank streams the same global sequence
// and keeps the particles that start in cells it hosts. The particles one
// injection appends to a container enter it in cell order (column, row,
// ID), as Fill's do.
func (e *Events) Fire(step int, each func(visit func(s *SoA)), at func(cx, cy int) *SoA) {
	m := e.cfg.Mesh
	for _, ev := range e.sched.At(step) {
		if ev.Remove {
			each(func(s *SoA) {
				s.Filter(func(i int) bool { return !ev.Region.ContainsPos(s.X[i], s.Y[i], m) })
			})
		}
		if ev.Inject > 0 {
			b := e.cfg.Injection(ev)
			dist.EachInjected(ev, e.cfg.Seed, e.NextID, func(cx, cy int, id uint64) {
				if s := at(cx, cy); s != nil {
					e.touch(s)
					s.place(&b, cx, cy, id)
				}
			})
			for _, t := range e.tails {
				e.sortTail(t.s, t.from, ev.Region)
			}
			clear(e.tails)
			e.tails = e.tails[:0]
			e.NextID += uint64(ev.Inject)
		}
	}
}

// touch records s, and its length, before an injection first appends to it.
func (e *Events) touch(s *SoA) {
	for _, t := range e.tails {
		if t.s == s {
			return
		}
	}
	e.tails = append(e.tails, injected{s, s.Len()})
}

// sortTail puts particles [from, len) of s — one injection's, in ID order,
// at the centres of cells of r and not yet moved — in cell order: a stable
// counting sort by row, then one by column.
func (e *Events) sortTail(s *SoA, from int, r dist.Rect) {
	e.sortTailBy(s, from, s.Y[from:], r.Y0, r.Y1-r.Y0)
	e.sortTailBy(s, from, s.X[from:], r.X0, r.X1-r.X0)
}

// sortTailBy stably sorts particles [from, len) of s by cell index
// int(coord[k]) in [c0, c0+w). The counts give each particle its
// destination, which it carries in its VX — 0 until an injected particle
// first moves — while swaps move it there, one cycle of the permutation at
// a time; VX is zeroed again after.
func (e *Events) sortTailBy(s *SoA, from int, coord []float64, c0, w int) {
	e.hist = slices.Grow(e.hist[:0], w)[:w]
	clear(e.hist)
	for _, v := range coord {
		e.hist[int(v)-c0]++
	}
	next := int32(0)
	for c, n := range e.hist {
		e.hist[c], next = next, next+n
	}
	dest := s.VX[from:]
	for k, v := range coord {
		c := int(v) - c0
		dest[k] = float64(e.hist[c])
		e.hist[c]++
	}
	for k := range dest {
		for d := int(dest[k]); d != k; d = int(dest[k]) {
			s.swap(from+k, from+d)
		}
	}
	clear(dest)
}

// place appends particle id of batch b, starting in cell (cx, cy).
func (s *SoA) place(b *dist.Batch, cx, cy int, id uint64) {
	x, y := dist.Center(cx), dist.Center(cy)
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
	s.VX = append(s.VX, 0)
	s.VY = append(s.VY, b.VY)
	s.Q = append(s.Q, b.Charge(cx))
	s.Meta = append(s.Meta, SoAMeta{ID: id, X0: x, Y0: y, K: b.K, M: b.M, Dir: b.Dir, Born: b.Born})
}
