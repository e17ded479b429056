package driver

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/memtest"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/pup"
	"github.com/parres/picprk/internal/telemetry"
)

// TestTimelineRecordedByAllDrivers asserts every driver emits the identical
// timeline shape: one sample per (step, rank), sorted, with per-step
// particle counts that sum to the global population.
func TestTimelineRecordedByAllDrivers(t *testing.T) {
	cfg := testConfig(t, 16, 2000, 20)
	cfg.Dist = dist.Geometric{R: 0.9}
	cfg.Telemetry = true
	const p = 4
	for _, run := range []struct {
		name string
		fn   func() (*Result, error)
	}{
		{"baseline", func() (*Result, error) { return NewBaselineEngine(cfg).Run(p) }},
		{"diffusion", func() (*Result, error) {
			return must(NewDiffusionEngine(cfg, diffusion.Params{Every: 4, Threshold: 0.05, Width: 1, MinWidth: 2})).Run(p)
		}},
		{"ampi", func() (*Result, error) {
			return must(NewAMPIEngine(p, cfg, AMPIParams{Overdecompose: 4, Every: 5})).Run(p)
		}},
		{"worksteal", func() (*Result, error) {
			return must(NewWorkStealEngine(cfg, WorkStealParams{Overdecompose: 4, Every: 5})).Run(p)
		}},
	} {
		res, err := run.fn()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		tl := res.Timeline
		if tl == nil {
			t.Fatalf("%s: no timeline despite cfg.Telemetry", run.name)
		}
		if tl.Name != run.name || tl.P != p || tl.Steps != cfg.Steps {
			t.Errorf("%s: timeline header %q P=%d steps=%d", run.name, tl.Name, tl.P, tl.Steps)
		}
		if len(tl.Samples) != p*cfg.Steps {
			t.Fatalf("%s: %d samples, want %d", run.name, len(tl.Samples), p*cfg.Steps)
		}
		for i, s := range tl.Samples {
			step, rank := i/p+1, i%p
			if s.Step != step || s.Rank != rank {
				t.Fatalf("%s: sample %d is (step %d, rank %d), want (%d, %d)", run.name, i, s.Step, s.Rank, step, rank)
			}
		}
		// Per-step particle conservation: no events, so every step's ranks
		// sum to N.
		for _, st := range tl.StepStats() {
			if got := st.Load.Mean * float64(st.Load.N); got != float64(cfg.N) {
				t.Fatalf("%s: step %d holds %v particles, want %d", run.name, st.Step, got, cfg.N)
			}
		}
	}
}

// TestTimelineDecisionsMatchBalanceLog pins the decision tags: the
// non-empty decisions on rank 0's samples must reproduce BalanceLog line
// for line, and land on the balancer's cadence.
func TestTimelineDecisionsMatchBalanceLog(t *testing.T) {
	cfg := testConfig(t, 32, 5000, 60)
	cfg.Dist = dist.Geometric{R: 0.85}
	cfg.Telemetry = true
	params := diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2}
	res, err := must(NewDiffusionEngine(cfg, params)).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BalanceLog) == 0 {
		t.Fatal("no balancing decisions; the test would be vacuous")
	}
	var tagged []string
	for _, s := range res.Timeline.Samples {
		if s.Rank != 0 || s.Decision == "" {
			continue
		}
		tagged = append(tagged, s.Decision)
		if s.Step%params.Every != 0 {
			t.Errorf("decision %q on step %d, off the every-%d cadence", s.Decision, s.Step, params.Every)
		}
		if s.Counters[telemetry.Migrations] == 0 {
			t.Errorf("step %d executed %q but reports no migrations", s.Step, s.Decision)
		}
	}
	if fmt.Sprint(tagged) != fmt.Sprint(res.BalanceLog) {
		t.Errorf("timeline decisions diverge from BalanceLog:\ntimeline: %v\nlog:      %v", tagged, res.BalanceLog)
	}
	// Decisions are global: every rank carries the same tag per step.
	for _, st := range res.Timeline.StepStats() {
		for _, s := range res.Timeline.Samples {
			if s.Step == st.Step && s.Decision != st.Decision {
				t.Fatalf("step %d: rank %d tag %q differs from %q", s.Step, s.Rank, s.Decision, st.Decision)
			}
		}
	}
}

// TestTelemetryPreservesResults is the acceptance criterion: sampling must
// not change a single particle bit or a single decision.
func TestTelemetryPreservesResults(t *testing.T) {
	cfg := testConfig(t, 32, 4000, 40)
	cfg.Dist = dist.Geometric{R: 0.88}
	params := diffusion.Params{Every: 4, Threshold: 0.05, Width: 1, MinWidth: 2}
	plain, err := must(NewDiffusionEngine(cfg, params)).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = true
	cfg.Live = telemetry.NewLive(4)
	sampled, err := must(NewDiffusionEngine(cfg, params)).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, plain.Particles, sampled.Particles, "telemetry on vs off")
	if fmt.Sprint(plain.BalanceLog) != fmt.Sprint(sampled.BalanceLog) {
		t.Errorf("balance logs diverge:\noff: %v\non:  %v", plain.BalanceLog, sampled.BalanceLog)
	}
	if plain.Timeline != nil {
		t.Error("unsampled run grew a timeline")
	}

	// The live aggregate saw the run through to the last step.
	var sb strings.Builder
	cfg.Live.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), fmt.Sprintf("picprk_step %d", cfg.Steps)) {
		t.Errorf("live aggregate did not reach step %d:\n%s", cfg.Steps, sb.String())
	}
}

// TestTimelinePhaseAccounting sanity-checks the sample deltas: summing
// every sample's timed rows reproduces the run's cumulative per-rank stats.
func TestTimelinePhaseAccounting(t *testing.T) {
	cfg := testConfig(t, 16, 2000, 25)
	cfg.Telemetry = true
	res, err := must(NewAMPIEngine(2, cfg, AMPIParams{Overdecompose: 4, Every: 5})).Run(2)
	if err != nil {
		t.Fatal(err)
	}
	var totals, want [telemetry.NumCounters]time.Duration
	for _, s := range res.Timeline.Samples {
		for c := range telemetry.NumCounters {
			if c.Kind() == telemetry.KindSpan {
				totals[c] += time.Duration(s.Counters[c])
			}
		}
	}
	for _, rs := range res.PerRank {
		want[telemetry.Compute] += rs.Compute
		want[telemetry.Exchange] += rs.Exchange
		want[telemetry.Balance] += rs.Balance
		want[telemetry.Migrate] += rs.Migrate
	}
	if totals != want {
		t.Errorf("timeline timed-row totals %v, per-rank stats %v", totals, want)
	}
}

// FuzzDecodeRankReport fuzzes the kindRankReport codec — a rank's
// end-of-run report on its way to rank 0, which over the wire transport is
// whatever a socket delivers — from a report carrying every part: counters,
// verifier tally, samples, its exchange-matrix row and particle columns.
func FuzzDecodeRankReport(f *testing.F) {
	rep := rankReport{Samples: fuzzSamples(), MaxParticles: 900, Count: 2, IDSum: 7,
		PeerBytes: []int64{0, 4096, 1 << 40, 12, 0, 96, 8}, PeerMsgs: []int64{0, 3, 1, 2, 0, 1, 1},
		State: *core.NewSoA([]particle.Particle{
			{ID: 3, X: 0.5, Y: 1.5, VY: 1, Q: -0.35, X0: 0.5, Y0: 0.5, K: 0, M: 1, Dir: 1},
			{ID: 4, X: 7.5, Y: 2.5, VX: -6, VY: -1, Q: 1.05, X0: 6.5, Y0: 3.5, K: 1, M: -1, Dir: -1, Born: 3},
		})}
	for c := range rep.Counters {
		rep.Counters[c] = int64(c) * 1000
	}
	fuzzRankReport(f, rep)
}

// FuzzDecodeTimeline is FuzzDecodeRankReport from the part of the report
// a telemetry run adds: samples and the rank's exchange-matrix row, the
// rest zero.
func FuzzDecodeTimeline(f *testing.F) {
	fuzzRankReport(f, rankReport{Samples: fuzzSamples(), PeerBytes: []int64{0, 4096, 0, 80, 160}, PeerMsgs: []int64{0, 3, 0, 1, 2}})
}

// fuzzSamples is three steps of one rank's samples, one with a decision.
func fuzzSamples() []telemetry.Sample {
	var samples []telemetry.Sample
	for step := 1; step <= 3; step++ {
		s := telemetry.Sample{Step: step, Rank: 1, WallStartNS: int64(step) * 1e6, ClockOffsetNS: -250}
		s.Counters[telemetry.Compute] = int64(step) * time.Millisecond.Nanoseconds()
		for c := telemetry.Particles; c < telemetry.NumCounters; c++ {
			s.Counters[c] = int64(step*10) + int64(c-telemetry.Particles)
		}
		if step == 2 {
			s.Decision = "step=2 x=[0 5 8]"
		}
		samples = append(samples, s)
	}
	return samples
}

// fuzzRankReport seeds f with rep's encoding and every seventh prefix of
// it. Whatever the bytes, decoding (from a buffer or off a stream) must not
// panic, must not allocate more than a small multiple of the input, and
// what it accepts must re-pack to the bytes it came from.
func fuzzRankReport(f *testing.F, rep rankReport) {
	good, kind, err := pup.EncodePayload(nil, rep)
	if err != nil || kind != kindRankReport {
		f.Fatalf("encode fixture: kind %d, err %v", kind, err)
	}
	for n := 0; n <= len(good); n += 7 {
		f.Add(good[:n])
	}
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(2*len(data) + 64<<10)
		var v any
		var err error
		if got := memtest.Least(limit, nil, func() { v, err = pup.DecodePayload(kindRankReport, data) }); got > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		var d pup.Decoder
		var r *bytes.Reader
		var sv any
		var serr error
		arm := func() { d, r = pup.Decoder{}, bytes.NewReader(data) }
		if got := memtest.Least(limit, arm, func() { sv, serr = d.Decode(kindRankReport, r, len(data)) }); got > limit {
			t.Fatalf("stream-decoding %d bytes allocated %d", len(data), got)
		}
		if (serr == nil) != (err == nil) {
			t.Fatalf("the stream decoder says %v where the buffer decoder says %v", serr, err)
		}
		if err != nil {
			return
		}
		for _, got := range []any{v, sv} {
			again, _, err := pup.EncodePayload(nil, got)
			if err != nil {
				t.Fatalf("accepted report failed to re-encode: %v", err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("re-encoding changed the bytes:\n in % x\nout % x", data, again)
			}
		}
	})
}
