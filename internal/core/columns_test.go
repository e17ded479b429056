package core

import (
	"math/rand"
	"testing"

	"github.com/parres/picprk/internal/memtest"
)

// refScatterRemove is the per-particle scatter ScatterRemove replaced, kept
// here as the reference: one AppendFrom per leaver, stayers compacted with
// the same range copies.
func refScatterRemove(s *SoA, lv *Leavers, out []SoA) {
	w, read := 0, 0
	for c := 0; c < lv.n; c++ {
		ids, ds := lv.idx[c], lv.dst[c]
		for j := range ids {
			i := int(ids[j])
			out[ds[j]].AppendFrom(s, i)
			w = s.moveDown(w, read, i)
			read = i + 1
		}
	}
	s.Truncate(s.moveDown(w, read, s.Len()))
}

func cloneSoA(c *SoA) SoA {
	return SoA{
		X: append([]float64(nil), c.X...), Y: append([]float64(nil), c.Y...),
		VX: append([]float64(nil), c.VX...), VY: append([]float64(nil), c.VY...),
		Q: append([]float64(nil), c.Q...), Meta: append([]SoAMeta(nil), c.Meta...),
	}
}

// TestScatterRemoveMatchesReference: over random containers, chunk counts,
// destination counts and leaver shares from none to all — drawn as runs
// (consecutive indices to one destination, what a fast drift produces) and
// as singletons, crossing chunk boundaries — into shards that are cold,
// pre-filled, and recycled from the previous round, the stayers and every
// shard are bitwise what the per-particle reference leaves, in the same
// order. That order is what keeps frames and goldens byte-identical.
func TestScatterRemoveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(400)
		if trial%10 == 0 {
			n = rng.Intn(4)
		}
		chunks, dests := 1+rng.Intn(7), 1+rng.Intn(9)
		share := []float64{0, 0.02, 0.3, 0.97, 1}[rng.Intn(5)]
		runLen := 1 + rng.Intn(40)*rng.Intn(2) // singletons half the time

		var lv Leavers
		lv.Reset(chunks)
		for i := 0; i < n; {
			span := min(1+rng.Intn(runLen), n-i)
			if rng.Float64() < share {
				d := int32(rng.Intn(dests))
				for k := i; k < i+span; k++ {
					lv.Add(k*chunks/n, int32(k), d)
				}
			}
			i += span
		}

		gotOut, wantOut := make([]SoA, dests), make([]SoA, dests)
		for round := 0; round < 2; round++ { // round 1 reuses round 0's shards
			for d := range gotOut {
				switch rng.Intn(3) {
				case 0: // pre-filled: what an earlier cell of the same step left
					pre := randomShard(rng, rng.Intn(20))
					gotOut[d], wantOut[d] = cloneSoA(pre), cloneSoA(pre)
				case 1: // recycled: emptied, capacity kept
					gotOut[d].Reset()
					wantOut[d].Reset()
				}
			}
			src := randomShard(rng, n)
			gotS, wantS := cloneSoA(src), cloneSoA(src)
			gotS.ScatterRemove(&lv, gotOut)
			refScatterRemove(&wantS, &lv, wantOut)
			if !sameBits(&gotS, &wantS) {
				t.Fatalf("trial %d round %d (n=%d chunks=%d dests=%d share=%g): stayers differ from the reference", trial, round, n, chunks, dests, share)
			}
			for d := range gotOut {
				if !sameBits(&gotOut[d], &wantOut[d]) {
					t.Fatalf("trial %d round %d (n=%d chunks=%d dests=%d share=%g): shard %d differs from the reference", trial, round, n, chunks, dests, share, d)
				}
			}
		}
	}
}

// TestScatterRemoveAllocatesOncePerShard pins the reservation: scattering
// 100k leavers into cold shards allocates the shards' final bytes and little
// else (the per-particle appends it replaced climbed Go's slice-growth chain
// to about five times that), and the same scatter into the warm shards
// allocates nothing.
func TestScatterRemoveAllocatesOncePerShard(t *testing.T) {
	const n, dests = 100000, 2
	src := benchShard()
	var lv Leavers
	lv.Reset(1)
	for i := 0; i < n; i++ {
		lv.Add(0, int32(i), int32(i/37%dests))
	}
	var work SoA
	var shards []SoA
	scatter := func() { work.ScatterRemove(&lv, shards) }
	final := uint64(n * ColumnsBytesPerParticle)
	limit := final + final/20
	cold := memtest.Least(limit, func() { work, shards = cloneSoA(src), make([]SoA, dests) }, scatter)
	placed := 0
	for d := range shards {
		placed += shards[d].Len()
	}
	if work.Len() != 0 || placed != n {
		t.Fatalf("scatter left %d stayers and placed %d of %d leavers", work.Len(), placed, n)
	}
	if cold > limit {
		t.Errorf("cold scatter allocated %d bytes for %d bytes of shards (limit %d)", cold, final, limit)
	}
	// A reallocated column would cost at least 400 KB on every try.
	warm := memtest.Least(4096, func() {
		work = cloneSoA(src)
		for d := range shards {
			shards[d].Reset()
		}
	}, scatter)
	if warm > 4096 {
		t.Errorf("warm scatter allocated %d bytes", warm)
	}
}
