package core

import (
	"sync"

	"github.com/parres/picprk/internal/grid"
)

// This file is the multicore, allocation-free hot path of the move phase:
// one loop, which every decomposition unit (a rank's block, a virtual
// processor's block) runs through a MovePool.
//
// The AoS kernel (Force + Move) pays four interface-dispatched Charge calls
// per particle per step and stays as the reference the identity tests
// compare against. moveRange reads the four corner charges of an owned cell
// as two adjacent pairs in the block's row-major charge array and feeds them
// to the same forceCorners, so the floating-point operations and their order
// are literally the same code and results are bitwise identical to the
// reference (TestKernelLoopMatchesReference) — which the verification scheme
// and the cross-driver identity tests rely on.

// moveRange advances particles [lo, hi) of s by one step against the block
// that owns their cells (the engine's ownership invariant). With lv non-nil
// it also classifies: a particle whose new cell's owner in ot differs from
// self is recorded, with that owner, on leaver chunk w. Classification only
// adds reads after the update, so the particle states do not depend on it.
func moveRange(s *SoA, lo, hi int, b *grid.Block, m grid.Mesh, ot *OwnerTable, self int32, lv *Leavers, w int) {
	xs, ys, vxs, vys, qs := s.X, s.Y, s.VX, s.VY, s.Q
	for i := lo; i < hi; i++ {
		cx, cy := m.CellOf(xs[i], ys[i])
		q00, q10, q01, q11 := b.CornerCharges(cx, cy)
		ax, ay := forceCorners(q00, q10, q01, q11, qs[i], xs[i]-float64(cx), ys[i]-float64(cy))
		xs[i] = m.WrapCoord(xs[i] + vxs[i] + 0.5*ax)
		ys[i] = m.WrapCoord(ys[i] + vys[i] + 0.5*ay)
		vxs[i] += ax
		vys[i] += ay
		if lv != nil {
			ncx, ncy := m.CellOf(xs[i], ys[i])
			if o := ot.Owner(ncx, ncy); o != self {
				lv.Add(w, int32(i), o)
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

	// In-flight job — moveRange's arguments, with [lo, hi) split into even
	// static chunks — written by run before the wake sends and read by the
	// workers; the channel send/receive and WaitGroup edges order the
	// accesses (no locks on the hot path).
	s      *SoA
	lo, hi int
	b      *grid.Block
	m      grid.Mesh
	ot     *OwnerTable
	self   int32
	lv     *Leavers
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
		lo, hi := chunkBounds(p.hi-p.lo, p.workers, w)
		moveRange(p.s, lo+p.lo, hi+p.lo, p.b, p.m, p.ot, p.self, p.lv, w)
		p.busy.Done()
	}
}

// run advances particles [lo, hi) of s, classifying into lv when it is
// non-nil. It blocks until all chunks are done; the pool must not be shared
// by concurrent callers. Small ranges run inline (see parallelThreshold).
func (p *MovePool) run(s *SoA, lo, hi int, b *grid.Block, m grid.Mesh, ot *OwnerTable, self int32, lv *Leavers) {
	chunks := p.workers
	if hi-lo < parallelThreshold {
		chunks = 1
	}
	if lv != nil {
		lv.Reset(chunks)
	}
	if chunks == 1 {
		moveRange(s, lo, hi, b, m, ot, self, lv, 0)
		return
	}
	p.s, p.lo, p.hi, p.b, p.m = s, lo, hi, b, m
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
	p.run(s, 0, s.Len(), b, m, nil, 0, nil)
}

// MoveClassify is Move fused with destination classification: every
// particle is advanced one step and, when its new cell's owner (per the
// owner table) differs from self, recorded on lv with its destination. The
// leaver lists come back ready for SoA.ScatterRemove — the exchange phase
// needs no second sweep over the particles. lv is Reset here; like Move,
// the call performs zero heap allocations once lv reached its high-water
// capacity, and results are bitwise identical at any worker count.
func (p *MovePool) MoveClassify(s *SoA, b *grid.Block, m grid.Mesh, ot *OwnerTable, self int32, lv *Leavers) {
	p.run(s, 0, s.Len(), b, m, ot, self, lv)
}

// MoveClassifyRange is MoveClassify restricted to particles [lo, hi). The
// leaver chunks cover only the range, in ascending index order, so they
// still feed SoA.ScatterRemove directly; particles outside the range are
// untouched. The step runs its two waves through it (frontier tail first,
// interior head after).
func (p *MovePool) MoveClassifyRange(s *SoA, lo, hi int, b *grid.Block, m grid.Mesh, ot *OwnerTable, self int32, lv *Leavers) {
	p.run(s, lo, hi, b, m, ot, self, lv)
}

// Close terminates the worker goroutines. The pool must be idle; Move must
// not be called afterwards (except on a pool that never had workers).
func (p *MovePool) Close() {
	for _, ch := range p.wake {
		close(ch)
	}
	p.wake = nil
}
