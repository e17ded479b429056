package driver

import (
	"fmt"
	"testing"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/trace"
)

// TestWorkerCountBitwiseMatrix is the determinism matrix of the multicore
// move phase: all four drivers must produce bitwise the same final state as
// the sequential reference at every worker count. N is chosen so each
// rank's particle set exceeds the pool's inline threshold and the chunked
// parallel path genuinely runs.
func TestWorkerCountBitwiseMatrix(t *testing.T) {
	cfg := testConfig(t, 16, 4000, 30)
	ref := sequentialReference(t, cfg)
	const p = 2
	drivers := []struct {
		name string
		run  func(Config) (*Result, error)
	}{
		{"baseline", func(c Config) (*Result, error) { return RunBaseline(p, c) }},
		{"diffusion", func(c Config) (*Result, error) {
			return RunDiffusion(p, c, diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2})
		}},
		{"ampi", func(c Config) (*Result, error) {
			return RunAMPI(p, c, AMPIParams{Overdecompose: 4, Every: 10})
		}},
		{"worksteal", func(c Config) (*Result, error) {
			return RunWorkSteal(p, c, WorkStealParams{Overdecompose: 4, Every: 10})
		}},
	}
	for _, d := range drivers {
		for _, workers := range []int{1, 2, 7} {
			c := cfg
			c.Workers = workers
			res, err := d.run(c)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", d.name, workers, err)
			}
			if !res.Verified {
				t.Fatalf("%s workers=%d: not verified", d.name, workers)
			}
			assertBitwiseEqual(t, ref, res.Particles, fmt.Sprintf("%s workers=%d", d.name, workers))
		}
	}
}

// TestEngineWithWorkersUnderRace exists for the -race CI job: ranks and
// move workers run concurrently on a particle set large enough that every
// rank's pool leaves the inline path, so the worker hand-off protocol is
// exercised under the race detector.
func TestEngineWithWorkersUnderRace(t *testing.T) {
	cfg := testConfig(t, 32, 8000, 12)
	cfg.Workers = 3
	ref := sequentialReference(t, cfg)
	res, err := RunBaseline(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, ref, res.Particles, "baseline workers=3 under race")
}

// TestMeasureOnePassReusedHistograms pins the single-pass histogram fill
// and the scratch reuse: consecutive Measure calls on the same substrate
// must return the same (correct) histograms, not accumulate into them.
func TestMeasureOnePassReusedHistograms(t *testing.T) {
	cfg := testConfig(t, 16, 1200, 0)
	w := comm.NewWorld(1)
	err := w.Run(func(c *comm.Comm) error {
		s, err := newBlockSubstrate(c, cfg, 1, 1)
		if err != nil {
			return err
		}
		defer s.Close()
		wantCells := make([]int64, cfg.Mesh.L)
		wantRows := make([]int64, cfg.Mesh.L)
		for i := 0; i < s.soa.Len(); i++ {
			cx, cy := cfg.Mesh.CellOf(s.soa.X[i], s.soa.Y[i])
			wantCells[cx]++
			wantRows[cy]++
		}
		needs := balance.Needs{Cells: true, Rows: true}
		for call := 0; call < 2; call++ {
			loads := s.Measure(needs)
			for cx := range wantCells {
				if loads.Cells[cx] != wantCells[cx] {
					return fmt.Errorf("call %d: cells[%d] = %d, want %d", call, cx, loads.Cells[cx], wantCells[cx])
				}
			}
			for cy := range wantRows {
				if loads.Rows[cy] != wantRows[cy] {
					return fmt.Errorf("call %d: rows[%d] = %d, want %d", call, cy, loads.Rows[cy], wantRows[cy])
				}
			}
		}
		// A cells-only measurement must still be correct after the
		// two-histogram pass (and vice versa).
		if loads := s.Measure(balance.Needs{Cells: true}); loads.Rows != nil {
			return fmt.Errorf("cells-only measure populated rows")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBlockSubstrateStep measures one steady-state engine step (move +
// exchange) on a single-rank block substrate. Run with -benchmem: the move
// phase allocates nothing (pinned in internal/core) and the exchange only
// pays the collective's O(P) bookkeeping, so allocs/op should stay small
// and flat.
func BenchmarkBlockSubstrateStep(b *testing.B) {
	cfg := testConfig(b, 64, 50000, 0)
	cfg.Verify = false
	w := comm.NewWorld(1)
	err := w.Run(func(c *comm.Comm) error {
		s, err := newBlockSubstrate(c, cfg, 1, 1)
		if err != nil {
			return err
		}
		defer s.Close()
		rec := &trace.Recorder{}
		// Warm up the exchange scratch so steady state is measured.
		for i := 0; i < 3; i++ {
			if err := s.MoveExchange(rec); err != nil {
				return err
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.MoveExchange(rec); err != nil {
				return err
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(s.soa.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mparticle-steps/s")
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
