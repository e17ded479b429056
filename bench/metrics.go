package main

import (
	"github.com/parres/picprk/internal/driver"
)

// metricDef declares one metric of the benchmark: BENCHMARK.json is
// generated from these tables, and every run prints exactly these names.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none, and the manifest omits it for them.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the kernel sees, per workload. failed_share
// is not among them because a metric here may never read 0: failures are
// reported as failed ÷ attempted beside the metrics.
//
// The bounds are sized from the spread (Q3−Q1 over the median) of ten
// invocations on ten seeds on the reference box, a 2-core KVM guest where
// ranks = cores, so any other activity lands on a rank: 2.5–10% on the
// timings, 3–8% on set-up, 5–11% on finalize, ≤ 3.5% on allocation (seeds
// change which VPs skew_ampi migrates). A bound is about three times the
// spread it has to clear, capped at the contract's 0.25.
var endToEnd = []metricDef{
	{"particle_steps_per_s", "1/s", "higher", 0.25},
	{"step_s_p50", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"finalize_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"alloc_mb_per_run", "MB", "lower", 0.10},
}

// perLayer lists the single-layer metrics of a --trace 1 run. The source of
// each is in bench/README.md: (T) the traced run's spans, (R) the program's
// own counts in driver.Result, (M) a microbenchmark, (S) the stamps.
var perLayer = []metricDef{
	{"core.move_ns_per_particle", "ns", "lower", 0},
	{"core.move_classify_ns_per_particle", "ns", "lower", 0},
	{"core.sort_by_tile_ns_per_particle", "ns", "lower", 0},
	{"core.scatter_remove_ns_per_leaver", "ns", "lower", 0},
	{"core.append_columns_ns_per_arrival", "ns", "lower", 0},
	{"core.topology_rebuild_s", "s", "lower", 0},
	{"core.verify_positions_ns_per_particle", "ns", "lower", 0},
	{"core.sim_serial_ns_per_particle_step", "ns", "lower", 0},
	{"core.kernel_bytes_per_particle_computed", "B", "lower", 0},
	{"dist.initialize_ns_per_particle", "ns", "lower", 0},
	{"comm.exchange_roundtrip_s", "s", "lower", 0},
	{"comm.allreduce_s", "s", "lower", 0},
	{"wire.exchange_roundtrip_small_s", "s", "lower", 0},
	{"wire.exchange_mb_per_s", "MB/s", "higher", 0},
	{"wire.allreduce_s", "s", "lower", 0},
	{"wire.alloc_bytes_per_payload_byte", "B/B", "lower", 0},
	{"wire.frames_sent", "count", "lower", 0},
	{"wire.writes", "count", "lower", 0},
	{"wire.coalescing_factor", "ratio", "higher", 0},
	{"wire.oneway_latency_p50_s", "s", "lower", 0},
	{"wire.oneway_latency_p99_s", "s", "lower", 0},
	{"pup.pack_columns_mb_per_s", "MB/s", "higher", 0},
	{"pup.unpack_columns_mb_per_s", "MB/s", "higher", 0},
	{"balance.diffusion_decide_s", "s", "lower", 0},
	{"balance.ampi_decide_s", "s", "lower", 0},
	{"balance.worksteal_decide_s", "s", "lower", 0},
	{"balance.decide_s_per_step", "s", "lower", 0},
	{"balance.plans_executed", "count", "lower", 0},
	{"balance.migrations", "count", "lower", 0},
	{"balance.migrated_bytes", "B", "lower", 0},
	{"driver.new_substrate_s", "s", "lower", 0},
	{"driver.move_exchange_s_per_step", "s", "lower", 0},
	{"driver.check_ownership_s_per_step", "s", "lower", 0},
	{"driver.measure_s_per_step", "s", "lower", 0},
	{"driver.execute_s_per_step", "s", "lower", 0},
	{"driver.rehome_exchange_s_per_step", "s", "lower", 0},
	{"driver.checkpoint_s_per_commit", "s", "lower", 0},
	{"driver.checkpoint_bytes_per_commit", "B", "lower", 0},
	{"driver.particles_s", "s", "lower", 0},
	{"driver.engine_other_s_per_step", "s", "lower", 0},
	{"driver.step_s_p95", "s", "lower", 0},
	{"driver.step_s_max", "s", "lower", 0},
	{"driver.imbalance_max_over_mean", "ratio", "lower", 0},
	{"driver.particles_max_rank_highwater", "count", "lower", 0},
	{"driver.parallel_efficiency", "ratio", "higher", 0},
	{"driver.trace_overhead_share", "ratio", "lower", 0},
	{"trace.compute_s_per_step", "s", "lower", 0},
	{"trace.exchange_exposed_s_per_step", "s", "lower", 0},
	{"trace.overlap_s_per_step", "s", "higher", 0},
	{"comm.exchange_bytes_per_step", "B", "lower", 0},
	{"comm.exchange_msgs_per_step", "count", "lower", 0},
	{"comm.exchange_msgs_elided_share", "ratio", "higher", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_s", "s", "lower", 0},
}

// exactCounts are the program's own counts that must repeat exactly for a
// fixed seed; -aa compares them between its two sets of runs.
var exactCounts = []string{
	"comm.exchange_bytes_per_step",
	"comm.exchange_msgs_per_step",
	"balance.plans_executed",
	"balance.migrations",
	"balance.migrated_bytes",
}

// stat summarises the samples of one metric. Value is what the benchmark
// reports for it: the median, or the lower quartile for a phase metric.
type stat struct {
	Value   float64 `json:"value"`
	Q1      float64 `json:"q1"`
	Median  float64 `json:"median"`
	Q3      float64 `json:"q3"`
	Samples int     `json:"samples"`
}

func summarize(v []float64) stat {
	s := sortedCopy(v)
	st := stat{Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75), Samples: len(s)}
	st.Value = st.Median
	return st
}

// summarizePhase is summarize for setup_s and finalize_s, which report the
// lower quartile of an invocation's runs. Both phases last ~0.1 s and
// allocate; a collection landing inside one doubles it (with GOGC=off
// finalize is unimodal), so the median of ten runs flips between two modes
// from one invocation to the next. The lower quartile stays in the mode
// without a collection; the collector's cost is still in run_s,
// particle_steps_per_s and runtime.gc_*.
func summarizePhase(v []float64) stat {
	st := summarize(v)
	st.Value = st.Q1
	return st
}

// endToEndStats computes every end-to-end metric from a workload's
// successful timed runs: medians over the runs, except step_s_p50, which
// pools the step makespans of all of them, and the two phase metrics (see
// summarizePhase).
func endToEndStats(runs []runResult) map[string]stat {
	var rate, setup, finalize, run, alloc, pooled []float64
	for i := range runs {
		r := &runs[i]
		rate = append(rate, float64(r.particleSteps)/r.loopS)
		setup = append(setup, r.setupS)
		finalize = append(finalize, r.finalizeS)
		run = append(run, r.runS)
		alloc = append(alloc, r.allocMB)
		pooled = append(pooled, r.makespans...)
	}
	return map[string]stat{
		"particle_steps_per_s": summarize(rate),
		"step_s_p50":           summarize(pooled),
		"setup_s":              summarizePhase(setup),
		"finalize_s":           summarizePhase(finalize),
		"run_s":                summarize(run),
		"alloc_mb_per_run":     summarize(alloc),
	}
}

// resultCounts reads the (R) metrics: the program's own accounting in
// driver.Result, normalised per rank-step where the name says per step.
func resultCounts(res *driver.Result) map[string]float64 {
	rankSteps := float64(res.P * res.Steps)
	var compute, exchange, overlap, xbytes, sent, elided, migrations, migrated float64
	for _, s := range res.PerRank {
		compute += s.Compute.Seconds()
		exchange += s.Exchange.Seconds()
		overlap += s.Overlap.Seconds()
		xbytes += float64(s.BytesExchanged)
		sent += float64(s.MsgsSent)
		elided += float64(s.MsgsElided)
		migrations += float64(s.Migrations)
		migrated += float64(s.BytesMigrated)
	}
	m := map[string]float64{
		"trace.compute_s_per_step":            compute / rankSteps,
		"trace.exchange_exposed_s_per_step":   exchange / rankSteps,
		"trace.overlap_s_per_step":            overlap / rankSteps,
		"comm.exchange_bytes_per_step":        xbytes / rankSteps,
		"comm.exchange_msgs_per_step":         sent / rankSteps,
		"balance.plans_executed":              float64(len(res.BalanceLog)),
		"balance.migrations":                  migrations,
		"balance.migrated_bytes":              migrated,
		"driver.particles_max_rank_highwater": float64(res.MaxParticlesHighWater()),
	}
	if sent+elided > 0 {
		m["comm.exchange_msgs_elided_share"] = elided / (sent + elided)
	}
	if w := res.Wire; w != nil {
		var frames, writes float64
		for _, p := range w.Peers {
			frames += float64(p.FramesSent)
			writes += float64(p.Writes)
		}
		m["wire.frames_sent"], m["wire.writes"] = frames, writes
		if writes > 0 {
			m["wire.coalescing_factor"] = frames / writes
		}
		lat := w.MergedLatency()
		m["wire.oneway_latency_p50_s"] = seconds(lat.Quantile(0.50))
		m["wire.oneway_latency_p99_s"] = seconds(lat.Quantile(0.99))
	}
	return m
}

// spanMetrics reads the (T) metrics off one traced run, normalised per
// rank-step (sum over ranks ÷ (P·steps)) unless the name says otherwise.
func spanMetrics(traced *runResult) map[string]float64 {
	tr, steps := traced.tracer, len(traced.makespans)
	rankSteps := float64(ranks * steps)
	perStep := func(names ...string) float64 {
		var sum float64
		for _, name := range names {
			s, _ := tr.total(name)
			sum += s
		}
		return sum / rankSteps
	}
	m := map[string]float64{
		"driver.move_exchange_s_per_step":   perStep(spanMoveExchange),
		"driver.check_ownership_s_per_step": perStep(spanCheckOwnership),
		"driver.measure_s_per_step":         perStep(spanMeasure),
		"balance.decide_s_per_step":         perStep(spanObserve, spanPlan, spanApply),
		"driver.execute_s_per_step":         perStep(spanExecute),
		"driver.rehome_exchange_s_per_step": perStep(spanRehomeExchange),
	}
	setup, _ := tr.total(spanNewSubstrate)
	m["driver.new_substrate_s"] = setup / ranks
	final, _ := tr.total(spanParticles)
	m["driver.particles_s"] = final / ranks
	ckpt, commits := tr.total(spanCheckpoint)
	if commits > 0 {
		var bytes int64
		for _, ln := range tr.lanes {
			for i := range ln.spans {
				bytes += ln.spans[i].bytes
			}
		}
		m["driver.checkpoint_s_per_commit"] = ckpt / float64(commits)
		m["driver.checkpoint_bytes_per_commit"] = float64(bytes) / float64(commits)
	}
	// What each rank's loop spent outside every wrapped call: events, the
	// commit gather, the engine's own bookkeeping.
	var loop float64
	for r := range tr.lanes {
		loop += seconds(tr.st.end[r][steps] - tr.st.start[r][1])
	}
	m["driver.engine_other_s_per_step"] = loop/rankSteps - perStep(spanMoveExchange, spanCheckOwnership,
		spanMeasure, spanObserve, spanPlan, spanApply, spanExecute, spanRehomeExchange, spanCheckpoint)
	return m
}

// stampMetrics reads the (S) diagnostics off the untimed-wrapper runs: the
// step-time tail (withheld until enough samples lie beyond it), imbalance
// and the GC activity of a run.
func stampMetrics(runs []runResult) map[string]float64 {
	var pooled, imbalance, gcCycles, gcPause []float64
	for i := range runs {
		r := &runs[i]
		pooled = append(pooled, r.makespans...)
		imbalance = append(imbalance, r.imbalance)
		gcCycles = append(gcCycles, float64(r.gcCycles))
		gcPause = append(gcPause, r.gcPauseS)
	}
	sorted := sortedCopy(pooled)
	m := map[string]float64{
		"driver.step_s_max":              sorted[len(sorted)-1],
		"driver.imbalance_max_over_mean": median(imbalance),
		"runtime.gc_cycles":              median(gcCycles),
		"runtime.gc_pause_s":             median(gcPause),
	}
	if v, ok := tailPercentile(sorted, 95); ok {
		m["driver.step_s_p95"] = v
	}
	if v, ok := tailPercentile(sorted, 99); ok {
		m["driver.step_s_p99"] = v
	}
	return m
}
