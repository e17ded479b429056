package main

import (
	"fmt"
	"runtime"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/particle"
)

// runResult is one Engine.Run seen from outside.
type runResult struct {
	timing
	allocMB  float64
	gcCycles uint32
	gcPauseS float64
	res      *driver.Result
	// tracer holds the spans of a traced run.
	tracer *tracer
	// err is non-nil when the run failed: Run errored, verification did not
	// pass, or the final population is not the closed-form one. A failed
	// run contributes no timings.
	err error
}

// distConfig is the initialization part of cfg (driver.Config keeps its own
// conversion unexported).
func distConfig(cfg driver.Config) dist.Config {
	return dist.Config{Mesh: cfg.Mesh, N: cfg.N, K: cfg.K, M: cfg.M, Dir: cfg.Dir, Dist: cfg.Dist, Seed: cfg.Seed}
}

// expectedPopulation is the closed-form final particle count for cfg,
// computed without running the program.
func expectedPopulation(cfg driver.Config) (int, error) {
	pop, err := core.ExpectedPopulation(distConfig(cfg), cfg.Schedule, cfg.Steps)
	return pop.Count, err
}

// runOnce builds a fresh engine for cfg, installs the stamp wrapper (under
// it the span wrappers when traced, and the step-1 capture when capture is
// non-nil), runs it on P=2 ranks and checks the result against want, the
// closed-form population.
func runOnce(w *workload, cfg driver.Config, want int, traced bool, capture *[]particle.Particle) runResult {
	eng, err := w.engine(cfg)
	if err != nil {
		return runResult{err: err}
	}
	st := newStamps(ranks, cfg.Steps)
	var tr *tracer
	if traced {
		tr = newTracer(st, cfg.Steps)
		tr.install(eng)
	}
	if capture != nil {
		installCapture(eng, capture)
	}
	st.install(eng)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st.called = st.now()
	res, err := eng.Run(ranks)
	st.returned = st.now()
	runtime.ReadMemStats(&after)

	out := runResult{res: res, tracer: tr}
	switch {
	case err != nil:
		out.err = err
	case !res.Verified:
		out.err = fmt.Errorf("%s: distributed verification did not pass", w.name)
	case res.FinalParticles != want:
		out.err = fmt.Errorf("%s: %d final particles, closed form says %d", w.name, res.FinalParticles, want)
	}
	if out.err != nil {
		return out
	}
	out.timing = st.derive()
	out.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	out.gcCycles = after.NumGC - before.NumGC
	out.gcPauseS = seconds(int64(after.PauseTotalNs - before.PauseTotalNs))
	return out
}
