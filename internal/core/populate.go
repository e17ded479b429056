package core

import (
	"github.com/parres/picprk/internal/dist"
)

// This file is what changes a run's population besides the move: the
// set-up fill and the step's events. Ranks, virtual processors and the
// one-owner Simulation all run it on their columns.

// Fill streams cfg's initial population into the containers local returns
// for the owners of ot — ranks, VPs, or a Simulation's one owner — nil for
// an owner that lives elsewhere, never materializing the rest of the world. The cell columns a local owner reaches come from
// the owner table's axes, O(L + owners); the others are skipped, RNG
// included. Over the rest the plan is walked twice, two row draws per
// particle: a count pass that tallies owners from the drawn rows alone,
// then, every container sized exactly, a fill pass that writes each
// particle's columns by index from its column's batch. Placement stays
// bitwise independent of the owner table, which the verification scheme
// relies on: every rank sees the same stream and keeps its share.
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
	cols := func(cx int) bool { return want[cx] }
	at := make([]int, owners) // owner o's particle count, then its fill cursor
	plan.Columns(cols, func(c *dist.Column) {
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
	plan.Columns(cols, func(c *dist.Column) {
		b := c.Batch
		x, q := dist.Center(c.X), b.Charge(c.X)
		m := SoAMeta{X0: x, K: b.K, M: b.M, Dir: b.Dir, Born: b.Born}
		for k, row := range c.Rows {
			o := ot.Owner(c.X, int(row))
			s := dst[o]
			if s == nil {
				continue
			}
			i, y := at[o], dist.Center(int(row))
			at[o]++
			s.X[i], s.Y[i], s.VX[i], s.VY[i], s.Q[i] = x, y, 0, b.VY, q
			m.ID, m.Y0 = c.First+uint64(k), y
			s.Meta[i] = m
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
// and keeps the particles that start in cells it hosts.
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
					s.place(&b, cx, cy, id)
				}
			})
			e.NextID += uint64(ev.Inject)
		}
	}
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
