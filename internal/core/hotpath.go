package core

import (
	"sync"

	"github.com/parres/picprk/internal/grid"
)

// This file is the multicore, allocation-free hot path of the move phase:
// one loop, which every decomposition unit (a rank's block, a virtual
// processor's block, a Simulation's whole mesh) runs through a MovePool.
//
// moveRange reads the four corner charges of an owned cell as two adjacent
// pairs in the block's column-major charge array — in memory order for a
// container in cell order, as Fill leaves it — and evaluates the force a
// block of particles at a time (force.go), two particles per packed
// instruction where the architecture has one. Every lane performs forceQQ's
// IEEE operations in its order, so results are bitwise identical to the
// one-particle AoS kernel the tests keep as the reference
// (TestKernelLoopMatchesReference, TestForceLanesMatchesReference) — which
// the verification scheme and the cross-driver identity tests rely on.

// moveRange advances particles [lo, hi) of s by one step against the block
// that owns their cells (the engine's ownership invariant). With lv non-nil
// it also classifies: a particle whose new cell's owner in ot differs from
// self is recorded, with that owner, on leaver chunk w. Classification only
// adds reads after the update, so the particle states do not depend on it.
//
// It works in blocks of laneBlock particles, in three passes: gather each
// particle's cell-relative position and charge products into a stack
// buffer, evaluate the forces over the block, then update and classify.
func moveRange(s *SoA, lo, hi int, b *grid.Block, m grid.Mesh, ot *OwnerTable, self int32, lv *Leavers, w int) {
	var buf forceBuf
	for ; lo < hi; lo += laneBlock {
		n := min(hi-lo, laneBlock)
		xs, ys, qs := s.X[lo:lo+n], s.Y[lo:lo+n], s.Q[lo:lo+n]
		rx, ry := buf.rx[:n], buf.ry[:n]
		qq00, qq10, qq01, qq11 := buf.qq00[:n], buf.qq10[:n], buf.qq01[:n], buf.qq11[:n]
		for j := range xs {
			cx, cy := m.CellOf(xs[j], ys[j])
			c00, c10, c01, c11 := b.CornerCharges(cx, cy)
			q := qs[j]
			rx[j], ry[j] = xs[j]-float64(cx), ys[j]-float64(cy)
			qq00[j], qq10[j], qq01[j], qq11[j] = q*c00, q*c10, q*c01, q*c11
		}
		force(&buf, n)
		vxs, vys := s.VX[lo:lo+n], s.VY[lo:lo+n]
		fx, fy := buf.fx[:n], buf.fy[:n]
		for j := range xs {
			ax, ay := fx[j], fy[j]
			xs[j] = m.WrapCoord(xs[j] + vxs[j] + 0.5*ax)
			ys[j] = m.WrapCoord(ys[j] + vys[j] + 0.5*ay)
			vxs[j] += ax
			vys[j] += ay
			if lv != nil {
				ncx, ncy := m.CellOf(xs[j], ys[j])
				if o := ot.Owner(ncx, ncy); o != self {
					lv.Add(w, int32(lo+j), o)
				}
			}
		}
	}
}

// chunkBounds returns the half-open particle range of chunk w when n
// particles are split into `workers` contiguous chunks. Boundaries are a
// pure function of (n, workers, w); they exist for cache locality, not for
// correctness — each particle's update reads and writes only its own slots,
// so ANY partition yields bitwise-identical results.
func chunkBounds(n, workers, w int) (lo, hi int) {
	return w * n / workers, (w + 1) * n / workers
}

// parallelThreshold is the particle count below which MovePool.Move runs
// the chunk serially: waking workers costs a few microseconds, which only
// pays for itself on reasonably sized particle sets (virtual processors in
// an over-decomposed run can hold just a handful of particles each).
const parallelThreshold = 512

// MovePool is a persistent chunked worker pool for the move phase: one
// fixed set of worker goroutines advances disjoint contiguous chunks of an
// SoA in parallel. A move on an idle pool performs zero heap allocations —
// job hand-off is a buffered-channel token per worker plus a WaitGroup.
//
// Bitwise determinism: particles are independent (each update touches only
// its own slots and the read-only charge field), so the result is identical
// to the serial loop at any worker count; chunking only affects locality.
type MovePool struct {
	workers int
	wake    []chan struct{}
	busy    sync.WaitGroup

	// In-flight job — moveRange's arguments, with the container split into
	// even static chunks — written by run before the wake sends and read by
	// the workers; the channel send/receive and WaitGroup edges order the
	// accesses (no locks on the hot path).
	s    *SoA
	b    *grid.Block
	m    grid.Mesh
	ot   *OwnerTable
	self int32
	lv   *Leavers
}

// NewMovePool starts a pool with the given number of workers (minimum 1).
// A one-worker pool runs moves inline and starts no goroutines.
func NewMovePool(workers int) *MovePool {
	if workers < 1 {
		workers = 1
	}
	p := &MovePool{workers: workers}
	if workers == 1 {
		return p
	}
	p.wake = make([]chan struct{}, workers)
	for w := range p.wake {
		ch := make(chan struct{}, 1)
		p.wake[w] = ch
		go p.worker(w, ch)
	}
	return p
}

func (p *MovePool) worker(w int, wake <-chan struct{}) {
	for range wake {
		lo, hi := chunkBounds(p.s.Len(), p.workers, w)
		moveRange(p.s, lo, hi, p.b, p.m, p.ot, p.self, p.lv, w)
		p.busy.Done()
	}
}

// run advances every particle of s, classifying into lv when it is non-nil.
// It blocks until all chunks are done; the pool must not be shared by
// concurrent callers. Small containers run inline (see parallelThreshold).
func (p *MovePool) run(s *SoA, b *grid.Block, m grid.Mesh, ot *OwnerTable, self int32, lv *Leavers) {
	chunks := p.workers
	if s.Len() < parallelThreshold {
		chunks = 1
	}
	if lv != nil {
		lv.Reset(chunks)
	}
	if chunks == 1 {
		moveRange(s, 0, s.Len(), b, m, ot, self, lv, 0)
		return
	}
	p.s, p.b, p.m = s, b, m
	p.ot, p.self, p.lv = ot, self, lv
	p.busy.Add(p.workers)
	for _, ch := range p.wake {
		ch <- struct{}{}
	}
	p.busy.Wait()
	p.s, p.b, p.ot, p.lv = nil, nil, nil, nil
}

// Move advances every particle of s by one step against the block that
// owns their cells.
func (p *MovePool) Move(s *SoA, b *grid.Block, m grid.Mesh) {
	p.run(s, b, m, nil, 0, nil)
}

// MoveClassify is Move fused with destination classification: every
// particle is advanced one step and, when its new cell's owner (per the
// owner table) differs from self, recorded on lv with its destination. The
// leaver lists come back ready for SoA.ScatterRemove — the exchange phase
// needs no second sweep over the particles. lv is Reset here; like Move,
// the call performs zero heap allocations once lv reached its high-water
// capacity, and results are bitwise identical at any worker count.
func (p *MovePool) MoveClassify(s *SoA, b *grid.Block, m grid.Mesh, ot *OwnerTable, self int32, lv *Leavers) {
	p.run(s, b, m, ot, self, lv)
}

// Close terminates the worker goroutines. The pool must be idle; Move must
// not be called afterwards (except on a pool that never had workers).
func (p *MovePool) Close() {
	for _, ch := range p.wake {
		close(ch)
	}
	p.wake = nil
}
