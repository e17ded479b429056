package driver

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/parres/picprk/internal/dist"
)

// TestTilePipelineBitwiseMatrix is the determinism matrix of the step: every
// driver must produce bitwise the same final state and the same balance log
// at every worker count, all against the sequential reference. The two-wave
// split changes only the order in which independent particle updates run, so
// any divergence is a routing bug. TestTilePipelineWireIdentity is the same
// matrix over tcp.
func TestTilePipelineBitwiseMatrix(t *testing.T) {
	cfg := testConfig(t, 16, 4000, 30)
	cfg.Schedule = dist.Schedule{
		{Step: 9, Region: dist.Rect{X0: 2, X1: 10, Y0: 2, Y1: 10}, Inject: 300, M: 1},
		{Step: 21, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 16}, Remove: true},
	}
	tilePipelineMatrix(t, 2, cfg, []int{1, 2, 7})
}

// tilePipelineMatrix runs every driver at every workers setting and compares
// final states with the sequential reference and balance logs with the
// driver's first run.
func tilePipelineMatrix(t *testing.T, p int, cfg Config, workers []int, drivers ...int) {
	t.Helper()
	ref := sequentialReference(t, cfg)
	if len(drivers) == 0 {
		drivers = []int{0, 1, 2, 3}
	}
	for _, di := range drivers {
		var anchor *Result
		for _, w := range workers {
			c := cfg
			c.Workers = w
			d := driverMatrix(p, c)[di]
			label := fmt.Sprintf("%s %s workers=%d", d.name, c.ResolveTransport(), w)
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

// TestTilePipelineWireIdentity runs the matrix over real sockets: the
// Start/Finish exchange split must survive serialization and framing with
// bitwise-identical results, for the block and the VP substrate. This is
// also the test CI runs under -race to exercise the overlap between the
// transport goroutines and the interior move wave.
func TestTilePipelineWireIdentity(t *testing.T) {
	cfg := testConfig(t, 16, 900, 16)
	cfg.Schedule = dist.Schedule{
		{Step: 5, Region: dist.Rect{X0: 2, X1: 10, Y0: 2, Y1: 10}, Inject: 200, M: 1},
	}
	cfg.Transport = TransportTCP
	// One driver per substrate: baseline (block), worksteal (VP).
	tilePipelineMatrix(t, 4, cfg, []int{1, 2}, 0, 3)
}

// TestTilePipelineReportsOverlap asserts the overlap metric is actually
// produced on a multi-rank run: some step of some rank must spend compute
// time while an exchange is in flight, the per-rank totals must surface in
// RankStats, and the timeline samples must sum to them.
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
		t.Fatal("4-rank run reported zero exchange overlap")
	}
	for _, s := range res.Timeline.Samples {
		sampled += s.ExchangeOverlap.Nanoseconds()
	}
	if sampled != total {
		t.Fatalf("timeline overlap sums to %d ns, RankStats to %d ns", sampled, total)
	}

	// A single rank exchanges with nobody and must report none.
	r, err := RunBaseline(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o := r.PerRank[0].Overlap; o != 0 {
		t.Fatalf("p=1 reports overlap %v, want 0", o)
	}
}

// TestTileValidation pins what is left of the tile knob: Config.Tile is
// inert, and any value but 0 is rejected before a rank starts.
func TestTileValidation(t *testing.T) {
	for _, tile := range []int{-2, -1, 8, 64} {
		cfg := testConfig(t, 8, 100, 2)
		cfg.Tile = tile
		if _, err := RunBaseline(2, cfg); err == nil {
			t.Fatalf("tile=%d accepted", tile)
		}
	}
}
