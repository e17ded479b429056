package driver

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/telemetry"
)

// counterWorkload is one BENCHMARK.json workload at a size tier-1 runs in a
// fraction of a second: the same driver, balancer, distribution shape, drift
// and schedule shape on two ranks, with N and the step count cut down.
type counterWorkload struct {
	name string
	cfg  func(t testing.TB) Config
	eng  func(cfg Config) (*Engine, error)
}

func counterConfig(t testing.TB, L, n, k, m int, d dist.Distribution, steps int) Config {
	cfg := testConfig(t, L, n, steps)
	cfg.K, cfg.M, cfg.Dist, cfg.Seed = k, m, d, 5
	cfg.Workers = 1
	cfg.Telemetry = true
	return cfg
}

func counterWorkloads() []counterWorkload {
	baseline := func(cfg Config) (*Engine, error) { return NewBaselineEngine(cfg), nil }
	fastdrift := func(t testing.TB) Config { return counterConfig(t, 64, 10000, 15, 5, dist.Uniform{}, 20) }
	skew := func(t testing.TB) Config { return counterConfig(t, 64, 20000, 0, 0, dist.Geometric{R: 0.93}, 40) }
	return []counterWorkload{
		{"uniform_block", func(t testing.TB) Config {
			return counterConfig(t, 128, 20000, 0, 0, dist.Uniform{}, 20)
		}, baseline},
		{"fastdrift_block", fastdrift, baseline},
		{"skew_diffusion", skew, func(cfg Config) (*Engine, error) {
			return NewDiffusionEngine(cfg, diffusion.Params{Every: 5, Threshold: 0.05, Width: 8, MinWidth: 3})
		}},
		{"skew_ampi", skew, func(cfg Config) (*Engine, error) {
			return NewAMPIEngine(2, cfg, AMPIParams{Overdecompose: 4, Every: 10})
		}},
		{"churn_ckpt_worksteal", func(t testing.TB) Config {
			cfg := counterConfig(t, 64, 15000, 0, 0, dist.Geometric{R: 0.93}, 40)
			cfg.Schedule = dist.Schedule{
				{Step: 10, Region: dist.Rect{X0: 0, X1: 16, Y0: 0, Y1: 32}, Inject: 2000, K: 1, M: 1},
				{Step: 30, Region: dist.Rect{X0: 32, X1: 48, Y0: 0, Y1: 64}, Remove: true},
			}
			cfg.CheckpointEvery = 10
			return cfg
		}, func(cfg Config) (*Engine, error) {
			return NewWorkStealEngine(cfg, WorkStealParams{Overdecompose: 4, Every: 10})
		}},
	}
}

// counterGolden renders what a run did that is a function of its input and
// seed alone: the SHA-256 of the final state in picrun -dumpstate's particle
// lines, the balance log, and every non-duration counter of every sample, in
// the counter table's order.
// Times, allocation and wire frame counts are not deterministic and stay out.
func counterGolden(t *testing.T, name string, res *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	h := sha256.New()
	var line []byte
	for i := range res.Particles.Len() {
		line = res.Particles.AppendStateLine(line[:0], i)
		h.Write(line)
	}
	fmt.Fprintf(&b, "# %s: go test ./internal/driver -run TestCounterGoldens -update\n", name)
	fmt.Fprintf(&b, "state_sha256 %x\nparticles %d\n", h.Sum(nil), res.Particles.Len())
	for _, line := range res.BalanceLog {
		fmt.Fprintf(&b, "balance %s\n", line)
	}
	var cols []telemetry.Counter
	b.WriteString("step rank")
	for c := range telemetry.NumCounters {
		if c.Kind() != telemetry.KindSpan {
			cols = append(cols, c)
			fmt.Fprintf(&b, " %s", c)
		}
	}
	for _, s := range res.Timeline.Samples {
		fmt.Fprintf(&b, "\n%d %d", s.Step, s.Rank)
		for _, c := range cols {
			fmt.Fprintf(&b, " %d", s.Counters[c])
		}
	}
	b.WriteString("\n")
	return b.Bytes()
}

func counterGoldenPath(name string) string {
	return filepath.Join("testdata", "counters_"+name+".golden")
}

func runCounterWorkload(t *testing.T, w counterWorkload, cfg Config) []byte {
	t.Helper()
	eng, err := w.eng(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("run did not verify")
	}
	return counterGolden(t, w.name, res)
}

// TestCounterGoldens pins, per BENCHMARK.json workload, everything a run
// does that is not a time: final state, balancing decisions, and per step
// and rank the particles, migrations, migrated and exchanged bytes, and
// exchange messages sent and elided. A change that claims to leave the
// program's behaviour alone must leave these files alone; one that changes
// them says why.
func TestCounterGoldens(t *testing.T) {
	for _, w := range counterWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			got := runCounterWorkload(t, w, w.cfg(t))
			path := counterGoldenPath(w.name)
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s drifted from its golden:\ngot:\n%s\nwant:\n%s", w.name, got, want)
			}
		})
	}
}

// TestCounterGoldenTCP runs fastdrift_block's input over loopback tcp — the
// fastdrift_tcp workload — and checks it against fastdrift_block's golden,
// every column included: the exchange ledger counts the same on every
// transport.
func TestCounterGoldenTCP(t *testing.T) {
	var w counterWorkload
	for _, c := range counterWorkloads() {
		if c.name == "fastdrift_block" {
			w = c
		}
	}
	cfg := w.cfg(t)
	cfg.Transport = TransportTCP
	got := runCounterWorkload(t, w, cfg)
	want, err := os.ReadFile(counterGoldenPath(w.name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("tcp run drifted from fastdrift_block's golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
