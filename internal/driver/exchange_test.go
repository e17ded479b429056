package driver

import (
	"fmt"
	"testing"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/trace"
)

// TestSteadyStateStepAllocationFree pins that a steady-state step — frontier
// partition, two-wave fused move+classify, scatter into reused shards, split
// Start/Finish pointer exchange, columnar append — performs zero
// allocations, with the move pool both on its inline path (workers=1) and
// genuinely parallel (workers=3, particle counts above the chunking
// threshold), on both substrates. AllocsPerRun counts process-global
// mallocs, so rank 0 measures while rank 1 runs the same number of steps in
// lockstep — both ranks must therefore be allocation-free for the test to
// pass.
func TestSteadyStateStepAllocationFree(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		mk      func(c *comm.Comm, cfg Config) (Substrate, error)
	}{
		{"block-pipelined-inline", 1, func(c *comm.Comm, cfg Config) (Substrate, error) {
			return newBlockSubstrate(c, cfg, 2, 1)
		}},
		{"block-pipelined-active", 3, func(c *comm.Comm, cfg Config) (Substrate, error) {
			return newBlockSubstrate(c, cfg, 2, 1)
		}},
		{"vp-pipelined", 1, func(c *comm.Comm, cfg Config) (Substrate, error) {
			return newVPSubstrate(c, cfg, 4)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, 16, 4000, 0)
			cfg.Verify = false
			cfg.Workers = tc.workers
			cfg.Dist = nil // uniform: both ranks stay above the parallel threshold
			const runs = 10
			w := comm.NewWorld(2)
			err := w.Run(func(c *comm.Comm) error {
				s, err := tc.mk(c, cfg)
				if err != nil {
					return err
				}
				defer s.Close()
				rec := &trace.Recorder{}
				step := func() {
					if err := s.MoveExchange(rec); err != nil {
						panic(err)
					}
					if s.Count() == 0 {
						panic("no local particles — the step under test is trivial")
					}
				}
				// Warm until every reused buffer reaches its high-water
				// capacity (the leaver pattern repeats with the particles'
				// periodic trajectories).
				for i := 0; i < 40; i++ {
					step()
				}
				if c.Rank() == 0 {
					if avg := testing.AllocsPerRun(runs, step); avg != 0 {
						return fmt.Errorf("steady-state MoveExchange: %v allocs/step, want 0", avg)
					}
				} else {
					// AllocsPerRun invokes fn runs+1 times (one warmup);
					// mirror it so the collectives stay in lockstep.
					for i := 0; i < runs+1; i++ {
						step()
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// benchmarkExchange measures the steady-state MoveExchange step for one
// substrate construction over p ranks. Every rank runs the same b.N loop
// (the exchange is collective), so ns/op is the true lockstep step time.
func benchmarkExchange(b *testing.B, p int, mk func(c *comm.Comm, cfg Config) (Substrate, error)) {
	cfg := testConfig(b, 64, 40000, 0)
	cfg.Verify = false
	w := comm.NewWorld(p)
	err := w.Run(func(c *comm.Comm) error {
		s, err := mk(c, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		rec := &trace.Recorder{}
		for i := 0; i < 3; i++ {
			if err := s.MoveExchange(rec); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := s.MoveExchange(rec); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			b.StopTimer()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExchange covers the decompositions the drivers actually run:
// single-rank and 2D-block for the block substrate, over-decomposed VPs for
// the ampi/worksteal family. The geometric distribution keeps the exchange
// imbalanced, which is the regime the columnar path is built for.
func BenchmarkExchange(b *testing.B) {
	b.Run("block-1x1", func(b *testing.B) {
		benchmarkExchange(b, 1, func(c *comm.Comm, cfg Config) (Substrate, error) {
			return newBlockSubstrate(c, cfg, 1, 1)
		})
	})
	b.Run("block-2x2", func(b *testing.B) {
		benchmarkExchange(b, 4, func(c *comm.Comm, cfg Config) (Substrate, error) {
			return newBlockSubstrate(c, cfg, 2, 2)
		})
	})
	b.Run("block-4x1", func(b *testing.B) {
		benchmarkExchange(b, 4, func(c *comm.Comm, cfg Config) (Substrate, error) {
			return newBlockSubstrate(c, cfg, 4, 1)
		})
	})
	b.Run("vp-2x2x4", func(b *testing.B) {
		benchmarkExchange(b, 4, func(c *comm.Comm, cfg Config) (Substrate, error) {
			return newVPSubstrate(c, cfg, 4)
		})
	})
}
