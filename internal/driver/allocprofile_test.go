package driver

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
)

// benchRunConfig is the whole-run scenario of the allocation benchmarks and
// budgets below: a skewed 20k-particle, 50-step run.
func benchRunConfig(b *testing.B) Config {
	m, err := grid.NewMesh(64, grid.DefaultCharge)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Mesh: m, N: 20000, Steps: 50,
		Dist: dist.Geometric{R: 0.92},
		Seed: 5,
	}
}

// TestMigrateSteadyStateAllocs pins the cost class of VP migration: once the
// substrate's shell free list and the column-wise PUP buffers are warm, moving a
// VP costs O(1) allocations (the pack buffer and its send envelope), not
// O(particles). The bound is deliberately loose — the pin is against a
// regression to per-particle staging (which costs tens of allocations per
// move), not against the exact constant. Rank 0 measures process-global
// mallocs while rank 1 runs the same ping-pong in lockstep.
func TestMigrateSteadyStateAllocs(t *testing.T) {
	cfg := testConfig(t, 16, 4000, 0)
	cfg.Verify = false
	cfg.Dist = nil
	const runs = 5
	w := comm.NewWorld(2)
	err := w.Run(func(c *comm.Comm) error {
		s, err := newVPSubstrate(c, cfg, 4)
		if err != nil {
			return err
		}
		defer s.Close()
		home := slices.Clone(s.host)
		away := slices.Clone(s.host)
		for vp, owner := range away {
			if owner == 0 {
				away[vp] = 1 // ping-pong one VP between the two cores
				break
			}
		}
		cycle := func() {
			if _, err := s.Execute(balance.Plan{Owner: away}); err != nil {
				panic(err)
			}
			if _, err := s.Execute(balance.Plan{Owner: home}); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 3; i++ {
			cycle() // warm the shells and the reused buffers on both cores
		}
		if c.Rank() == 0 {
			if avg := testing.AllocsPerRun(runs, cycle); avg > 16 {
				return fmt.Errorf("steady-state migrate ping-pong: %v allocs/cycle, want <= 16", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				cycle()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFullRun measures a complete driver run — world construction,
// initialization, 50 steps with balancing, verification gather — for each
// driver at 4 ranks. allocs/op is the whole-run allocation budget the
// shaving work drives down; per-step steady-state allocations are pinned at
// zero separately (TestSteadyStateStepAllocationFree).
func BenchmarkFullRun(b *testing.B) {
	const p = 4
	b.Run("baseline", func(b *testing.B) {
		cfg := benchRunConfig(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewBaselineEngine(cfg).Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("diffusion", func(b *testing.B) {
		cfg := benchRunConfig(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := must(NewDiffusionEngine(cfg, diffusion.Params{Every: 5, Threshold: 0.05, Width: 2, MinWidth: 3})).Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ampi", func(b *testing.B) {
		cfg := benchRunConfig(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := must(NewAMPIEngine(p, cfg, AMPIParams{Overdecompose: 4, Every: 10})).Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("worksteal", func(b *testing.B) {
		cfg := benchRunConfig(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := must(NewWorkStealEngine(cfg, WorkStealParams{Overdecompose: 4, Every: 10})).Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWholeRunAllocationBudget is ROADMAP 4(c) as a test: everything a
// verified run allocates — set-up, 10 steps, distributed verification —
// stays within a small multiple of the resident problem, the two ranks'
// particle columns. The block substrate must stay under 3× (measured 1.8×:
// the columns themselves, one regrowth of a rank's exactly-sized columns
// when its first net arrivals append, the exchange shards, the ID bitset);
// the VP substrate is pinned at its measured 2.2× plus a quarter, its extra
// being a regrowth per VP and the per-VP shard sets. A return of the
// world-sized materializations (AoS copies at set-up or verify, a map of
// IDs) costs 5× or more and fails either bound.
//
// The two exchange rows are the exchange-bound input (k=15 on L=64: nearly
// every particle changes rank every step). In-process the four outgoing
// shards (2 ranks × 2 generations) are each about half the population and
// must be allocated once, at their size — measured 3.3×, against 12× when
// every leaver was appended on its own. Over loopback tcp the decoded shards
// are recycled, so the socket adds the frame buffers and a few decoded
// shards, not one per message: measured 5.5×, against more than 20×.
func TestWholeRunAllocationBudget(t *testing.T) {
	cfg := Config{
		Mesh: grid.MustMesh(256, grid.DefaultCharge), N: 100000, Steps: 10, Seed: 5, Workers: 1,
		DistributedVerify: true, Transport: TransportInproc,
	}
	drift := cfg
	drift.Mesh, drift.N, drift.K, drift.M = grid.MustMesh(64, grid.DefaultCharge), 200000, 15, 5
	driftTCP := drift
	driftTCP.Transport = TransportTCP
	for _, tc := range []struct {
		name   string
		budget float64
		engine func() (*Engine, error)
	}{
		{"block", 3, func() (*Engine, error) { return NewBaselineEngine(cfg), nil }},
		{"vp", 2.2 * 1.25, func() (*Engine, error) {
			return NewAMPIEngine(2, cfg, AMPIParams{Overdecompose: 4, Every: 10})
		}},
		{"exchange", 5, func() (*Engine, error) { return NewBaselineEngine(drift), nil }},
		{"exchange-tcp", 8, func() (*Engine, error) { return NewBaselineEngine(driftTCP), nil }},
	} {
		eng, err := tc.engine()
		if err != nil {
			t.Fatal(err)
		}
		if raceDetector && eng.Cfg.Transport == TransportTCP {
			// wire's frame buffers live in a sync.Pool, which under the race
			// detector drops a quarter of its puts by design: each drop is a
			// payload-sized allocation the program does not make.
			continue
		}
		resident := float64(eng.Cfg.N * core.ColumnsBytesPerParticle)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := eng.Run(2)
		runtime.ReadMemStats(&after)
		if err != nil || !res.Verified {
			t.Fatalf("%s: run failed or unverified: %v", tc.name, err)
		}
		got := float64(after.TotalAlloc-before.TotalAlloc) / resident
		t.Logf("%s: %.2f× the resident %.1f MB", tc.name, got, resident/1e6)
		if got > tc.budget {
			t.Errorf("%s: a verified run allocated %.2f× the resident particle bytes, budget %.2f×", tc.name, got, tc.budget)
		}
	}
}
