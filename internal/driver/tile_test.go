package driver

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/parres/picprk/internal/dist"
)

// TestTilePipelineBitwiseMatrix is the determinism matrix of the pipelined
// step: every driver must produce bitwise the same final state and the same
// balance log with the pipeline off (Tile -1) and on, crossed with worker
// counts, all against the sequential reference. Tile's magnitude no longer
// selects anything, so one "on" value stands for all. The split changes only
// the order in which independent particle updates run, so any divergence is
// a routing bug. TestTilePipelineWireIdentity is the same matrix over tcp.
func TestTilePipelineBitwiseMatrix(t *testing.T) {
	cfg := testConfig(t, 16, 4000, 30)
	cfg.Schedule = dist.Schedule{
		{Step: 9, Region: dist.Rect{X0: 2, X1: 10, Y0: 2, Y1: 10}, Inject: 300, M: 1},
		{Step: 21, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 16}, Remove: true},
	}
	tilePipelineMatrix(t, 2, cfg, []int{-1, 0}, []int{1, 2, 7})
}

// tilePipelineMatrix runs every driver at every (tile, workers) setting and
// compares final states with the sequential reference and balance logs with
// the driver's first run.
func tilePipelineMatrix(t *testing.T, p int, cfg Config, tiles, workers []int, drivers ...int) {
	t.Helper()
	ref := sequentialReference(t, cfg)
	if len(drivers) == 0 {
		drivers = []int{0, 1, 2, 3}
	}
	for _, di := range drivers {
		var anchor *Result
		for _, tile := range tiles {
			for _, w := range workers {
				c := cfg
				c.Tile, c.Workers = tile, w
				d := driverMatrix(p, c)[di]
				label := fmt.Sprintf("%s %s tile=%d workers=%d", d.name, c.ResolveTransport(), tile, w)
				res, err := d.fn()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !res.Verified {
					t.Fatalf("%s: not verified", label)
				}
				assertBitwiseEqual(t, ref, res.Particles, label)
				if anchor == nil {
					anchor = res
				} else if !reflect.DeepEqual(anchor.BalanceLog, res.BalanceLog) {
					t.Fatalf("%s: balance log diverged from the driver's first run:\nfirst: %q\ngot:   %q",
						label, anchor.BalanceLog, res.BalanceLog)
				}
			}
		}
	}
}

// TestTilePipelineWireIdentity runs the matrix over real sockets: the
// Start/Finish exchange split must survive serialization and framing with
// bitwise-identical results, pipeline on and off, for the block and the VP
// substrate. This is also the test CI runs under -race to exercise the
// overlap between the transport goroutines and the interior move wave.
func TestTilePipelineWireIdentity(t *testing.T) {
	cfg := testConfig(t, 16, 900, 16)
	cfg.Schedule = dist.Schedule{
		{Step: 5, Region: dist.Rect{X0: 2, X1: 10, Y0: 2, Y1: 10}, Inject: 200, M: 1},
	}
	cfg.Transport = TransportTCP
	// One driver per substrate: baseline (block), worksteal (VP).
	tilePipelineMatrix(t, 4, cfg, []int{-1, 0}, []int{1, 2}, 0, 3)
}

// TestTilePipelineReportsOverlap asserts the overlap metric is actually
// produced on a multi-rank pipelined run: some step of some rank must spend
// compute time while an exchange is in flight, the per-rank totals must
// surface in RankStats, and the timeline samples must sum to them.
func TestTilePipelineReportsOverlap(t *testing.T) {
	cfg := testConfig(t, 32, 8000, 20)
	cfg.Telemetry = true
	res, err := RunBaseline(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total, sampled int64
	for _, st := range res.PerRank {
		total += st.Overlap.Nanoseconds()
	}
	if total == 0 {
		t.Fatal("pipelined 4-rank run reported zero exchange overlap")
	}
	for _, s := range res.Timeline.Samples {
		sampled += s.ExchangeOverlap.Nanoseconds()
	}
	if sampled != total {
		t.Fatalf("timeline overlap sums to %d ns, RankStats to %d ns", sampled, total)
	}

	// The unpipelined and single-rank runs must report none.
	for _, tc := range []struct {
		name string
		p    int
		tile int
	}{{"tile=-1", 4, -1}, {"p=1", 1, 0}} {
		c := cfg
		c.Tile = tc.tile
		r, err := RunBaseline(tc.p, c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for rank, st := range r.PerRank {
			if st.Overlap != 0 {
				t.Fatalf("%s: rank %d reports overlap %v, want 0", tc.name, rank, st.Overlap)
			}
		}
	}
}

// TestTileValidation pins the config check for the tile knob: below -1 is
// rejected, and a positive value — a tile edge, when the step still tiled —
// is still accepted and means "pipelined".
func TestTileValidation(t *testing.T) {
	cfg := testConfig(t, 8, 100, 2)
	cfg.Tile = -2
	if _, err := RunBaseline(2, cfg); err == nil {
		t.Fatal("tile=-2 accepted")
	}
	cfg.Tile = 64
	if res, err := RunBaseline(2, cfg); err != nil || !res.Verified {
		t.Fatalf("tile=64: %v", err)
	}
}
