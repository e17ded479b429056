package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/particle"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// Two ranks, three steps, times in ns. Rank 1 starts step 1 last (setup
// ends at 100) and the slower rank alternates, so every makespan is a max
// over ranks minus the previous max.
func syntheticStamps() *stamps {
	return &stamps{
		called: 10, returned: 1000,
		start: [][]int64{{0, 80, 200, 420}, {0, 100, 310, 400}},
		end:   [][]int64{{0, 200, 400, 700}, {0, 300, 390, 650}},
		count: [][]int64{{0, 30, 20, 10}, {0, 10, 20, 30}},
	}
}

func TestDeriveMakespansSumToLoop(t *testing.T) {
	got := syntheticStamps().derive()
	if !near(got.setupS, 90e-9) || !near(got.finalizeS, 300e-9) || !near(got.runS, 990e-9) {
		t.Errorf("setup %g finalize %g run %g, want 90e-9 300e-9 990e-9", got.setupS, got.finalizeS, got.runS)
	}
	want := []float64{200e-9, 100e-9, 300e-9}
	var sum float64
	for i, m := range got.makespans {
		if !near(m, want[i]) {
			t.Errorf("makespan[%d] = %g, want %g", i+1, m, want[i])
		}
		sum += m
	}
	if !near(sum, got.loopS) || !near(got.loopS, 600e-9) {
		t.Errorf("sum of makespans %g, loop %g, want both 600e-9", sum, got.loopS)
	}
	if !near(got.setupS+got.loopS+got.finalizeS, got.runS) {
		t.Errorf("setup+loop+finalize = %g, run = %g", got.setupS+got.loopS+got.finalizeS, got.runS)
	}
	if got.particleSteps != 120 {
		t.Errorf("particle steps %d, want 120", got.particleSteps)
	}
	// max/mean per step: 30/20, 20/20, 30/20.
	if !near(got.imbalance, (1.5+1+1.5)/3) {
		t.Errorf("imbalance %g, want %g", got.imbalance, (1.5+1+1.5)/3)
	}
}

func TestTailPercentileWithheldBelowTenSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	for _, c := range []struct {
		n, pct int
		ok     bool
	}{{999, 99, false}, {1000, 99, true}, {199, 95, false}, {200, 95, true}} {
		if _, ok := tailPercentile(sorted[:c.n], c.pct); ok != c.ok {
			t.Errorf("p%d of %d samples: reported=%v, want %v", c.pct, c.n, ok, c.ok)
		}
	}
	if v, _ := tailPercentile(sorted, 99); !near(v, 989.01) {
		t.Errorf("p99 of 0..999 = %g, want 989.01", v)
	}
	s := summarize([]float64{4, 1, 3, 2, 5})
	if s.Value != 3 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.Samples != 5 {
		t.Errorf("summarize = %+v", s)
	}
	if p := summarizePhase([]float64{4, 1, 3, 2, 5}); p.Value != 2 || p.Median != 3 {
		t.Errorf("summarizePhase = %+v, want the lower quartile as the value", p)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []treeSpan{
		{span: span{name: "run", start: 0, end: 100}, parent: -1},
		{span: span{name: "step", start: 10, end: 60}, parent: 0},
		{span: span{name: "call", start: 12, end: 30}, parent: 1},
		{span: span{name: "call", start: 35, end: 55}, parent: 1},
		{span: span{name: "particles", start: 70, end: 90}, parent: 0},
	}
	if got, want := selfTimes(spans), []int64{30, 12, 18, 20, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTreeNestsCallsUnderTheirStep(t *testing.T) {
	st := syntheticStamps()
	tr := newTracer(st, 3)
	tr.lanes[0].spans = []span{
		{name: spanNewSubstrate, step: 0, start: 20, end: 70},
		{name: spanMoveExchange, step: 1, start: 85, end: 190},
		{name: spanCheckpoint, step: 1, start: 201, end: 205}, // after step 1 ended on rank 0
		{name: spanParticles, step: 3, start: 800, end: 900},
	}
	tree := tr.tree()
	parentName := map[string]string{}
	for _, sp := range tree {
		if sp.rank == 0 && sp.parent >= 0 {
			parentName[sp.name] = tree[sp.parent].name
		}
	}
	want := map[string]string{
		"step": "run", spanNewSubstrate: "run", spanMoveExchange: "step",
		spanCheckpoint: "run", spanParticles: "run",
	}
	if !reflect.DeepEqual(parentName, want) {
		t.Errorf("parents %v, want %v", parentName, want)
	}
}

func TestBalancerWrapperForwardsHistoryRestorer(t *testing.T) {
	ln := &lane{st: newStamps(1, 1)}
	if _, ok := wrapBalancer(&balance.DiffusionBalancer{Params: diffusion.DefaultParams()}, ln).(balance.HistoryRestorer); !ok {
		t.Error("wrapped DiffusionBalancer lost balance.HistoryRestorer")
	}
	if _, ok := wrapBalancer(balance.NullBalancer{}, ln).(balance.HistoryRestorer); ok {
		t.Error("wrapped NullBalancer gained balance.HistoryRestorer")
	}
}

func TestManifestMatchesCommittedFile(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	var buf bytes.Buffer
	if err := writeManifest(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), committed) {
		t.Error("BENCHMARK.json differs from `bash bench/run.sh -manifest`; regenerate it")
	}
}

// smokeConfig shrinks a workload to N=4000 and 6 steps. The churn workload
// keeps one injection, one removal and two commits inside those steps.
func smokeConfig(w *workload, seed uint64) driver.Config {
	cfg := w.config(seed, 6)
	cfg.N = 4000
	if cfg.CheckpointEvery > 0 {
		cfg.CheckpointEvery = 3
		cfg.Schedule = dist.Schedule{
			{Step: 2, Region: dist.Rect{X0: 0, X1: 64, Y0: 0, Y1: 128}, Inject: 500, K: 1, M: 1},
			{Step: 4, Region: dist.Rect{X0: 128, X1: 192, Y0: 0, Y1: 256}, Remove: true},
		}
	}
	return cfg
}

// Every workload verifies at small size on a seed other than the default;
// the wrappers change nothing the program counts; the counts repeat.
func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(w, 7)
			want, err := expectedPopulation(cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := w.engine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := eng.Run(ranks)
			if err != nil {
				t.Fatal(err)
			}
			if !bare.Verified || bare.FinalParticles != want {
				t.Fatalf("unwrapped run: verified=%v, %d particles, want %d", bare.Verified, bare.FinalParticles, want)
			}

			var captured []particle.Particle
			traced := runOnce(w, cfg, want, true, &captured)
			again := runOnce(w, cfg, want, false, nil)
			for _, r := range []runResult{traced, again} {
				if r.err != nil {
					t.Fatal(r.err)
				}
				if !reflect.DeepEqual(r.res.BalanceLog, bare.BalanceLog) {
					t.Errorf("BalanceLog %v, unwrapped %v", r.res.BalanceLog, bare.BalanceLog)
				}
				got, ref := resultCounts(r.res), resultCounts(bare)
				for _, name := range exactCounts {
					if got[name] != ref[name] {
						t.Errorf("%s = %g, unwrapped run has %g", name, got[name], ref[name])
					}
				}
				var sum float64
				for _, m := range r.makespans {
					sum += m
				}
				if math.Abs(sum-r.loopS) > 1e-9 {
					t.Errorf("makespans sum to %g, loop is %g", sum, r.loopS)
				}
			}
			if len(captured) == 0 {
				t.Error("warm-up capture saw no rank-0 particles at step 1")
			}
			if sum, _ := traced.tracer.total(spanMoveExchange); sum <= 0 {
				t.Error("traced run recorded no move_exchange time")
			}
			if _, n := traced.tracer.total(spanCheckpoint); (n > 0) != (cfg.CheckpointEvery > 0) {
				t.Errorf("%d checkpoint spans with CheckpointEvery=%d", n, cfg.CheckpointEvery)
			}
			m := spanMetrics(&traced)
			if w.policy == "" && (m["driver.measure_s_per_step"] != 0 || m["driver.execute_s_per_step"] != 0) {
				t.Errorf("baseline workload measured or executed a plan: %v", m)
			}
		})
	}
}

// One traced session at small size produces every per-layer metric the
// manifest names, and nothing the manifest does not name.
func TestLayerMetricsMatchManifest(t *testing.T) {
	w := findWorkload("skew_diffusion")
	cfg := smokeConfig(w, 7)
	want, err := expectedPopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &session{w: w, cfg: cfg, want: want}
	if r := runOnce(w, cfg, want, false, &s.captured); r.err != nil {
		t.Fatal(r.err)
	}
	s.run(false)
	s.run(true)
	if s.failed > 0 {
		t.Fatalf("%d of %d runs failed", s.failed, s.attempted)
	}
	got, err := s.layerMetrics(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{"driver.step_s_p99": true}
	for _, d := range perLayer {
		named[d.Name] = true
	}
	for name := range got {
		if !named[name] {
			t.Errorf("layerMetrics produced %q, which the manifest does not name", name)
		}
	}
	for _, name := range []string{
		"core.move_ns_per_particle", "core.sort_by_tile_ns_per_particle", "core.topology_rebuild_s",
		"dist.initialize_ns_per_particle", "comm.exchange_roundtrip_s", "wire.exchange_mb_per_s",
		"pup.pack_columns_mb_per_s", "balance.diffusion_decide_s", "driver.move_exchange_s_per_step",
		"driver.measure_s_per_step", "driver.new_substrate_s", "driver.parallel_efficiency",
	} {
		if got[name] <= 0 {
			t.Errorf("%s = %g, want > 0", name, got[name])
		}
	}
}
