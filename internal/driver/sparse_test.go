package driver

import (
	"testing"

	"github.com/parres/picprk/internal/comm"
)

// TestSparseExchangeMessageCounts pins the tentpole win at the driver level:
// with a narrow halo on 8 ranks, every exchange call posts only |neighbors|
// messages instead of the full P-1 ring, and the per-rank counters prove it.
//
// Geometry: L=64 on Dims2D(8) = 4×2 blocks of 16×32 cells, K=1 → rx=3 and
// M=1 → ry=1, both smaller than a block edge, so each rank's reachable set
// is exactly its torus 8-neighborhood: ±1 block in x (2 peers) plus the
// other row at its own and ±1 columns (3 peers — py=2 wraps cy±1 onto the
// same row) = 5 of the 7 possible peers.
func TestSparseExchangeMessageCounts(t *testing.T) {
	const p, steps = 8, 20
	cfg := testConfig(t, 64, 4000, steps)
	cfg.K, cfg.M = 1, 1
	res, err := NewBaselineEngine(cfg).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("baseline run did not verify")
	}
	px, py := comm.Dims2D(p)
	if px != 4 || py != 2 {
		t.Fatalf("Dims2D(8) = %dx%d, the 5-neighbor expectation assumes 4x2", px, py)
	}
	const neighbors = 5
	for _, s := range res.PerRank {
		if s.MsgsSent != neighbors*steps {
			t.Errorf("rank %d sent %d exchange messages, want %d (%d neighbors × %d steps)",
				s.Rank, s.MsgsSent, neighbors*steps, neighbors, steps)
		}
		if s.MsgsElided != (p-1-neighbors)*steps {
			t.Errorf("rank %d elided %d exchange messages, want %d",
				s.Rank, s.MsgsElided, (p-1-neighbors)*steps)
		}
		// The invariant the telemetry docs promise: sent+elided per call is
		// always P-1, so over the run it is (P-1) × exchange calls.
		if s.MsgsSent+s.MsgsElided != int64((p-1)*steps) {
			t.Errorf("rank %d sent+elided = %d, want %d",
				s.Rank, s.MsgsSent+s.MsgsElided, (p-1)*steps)
		}
	}
}

// TestFullRingWhenHaloCoversMesh pins the degenerate case: a displacement
// ring wider than any block makes every rank reachable, the derived schedule
// is the full ring, and nothing is elided — sparse bookkeeping must not
// undercount a genuinely dense exchange.
func TestFullRingWhenHaloCoversMesh(t *testing.T) {
	const p, steps = 4, 10
	cfg := testConfig(t, 16, 1000, steps)
	cfg.K, cfg.M = 8, 8 // rx=17, ry=8: wraps the whole 16-cell mesh
	res, err := NewBaselineEngine(cfg).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("baseline run did not verify")
	}
	for _, s := range res.PerRank {
		if s.MsgsSent != int64((p-1)*steps) || s.MsgsElided != 0 {
			t.Errorf("rank %d: sent %d elided %d, want %d sent and 0 elided",
				s.Rank, s.MsgsSent, s.MsgsElided, (p-1)*steps)
		}
	}
}
