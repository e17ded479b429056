// Command picrun executes one PIC PRK simulation with any of the
// implementations — the sequential reference or the four parallel drivers
// of paper §IV running on goroutine ranks — and reports timing, per-rank
// statistics, and the self-verification verdict.
//
// Examples:
//
//	picrun -impl serial -L 64 -n 100000 -steps 500
//	picrun -impl diffusion -p 8 -L 128 -n 200000 -steps 1000 -r 0.95 -every 10
//	picrun -impl ampi -p 4 -d 8 -F 50 -L 64 -n 50000 -steps 500
//	picrun -impl worksteal -p 4 -d 8 -F 25 -steal-threshold 0.25
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/stats"
	"github.com/parres/picprk/internal/telemetry"
	"github.com/parres/picprk/internal/trace"
)

// obsOpts carries the observability flags to the run reporters.
type obsOpts struct {
	// timeline and chrome are output paths for the JSONL timeline and the
	// Chrome trace-event export ("" = off).
	timeline, chrome string
	// clock picks the Chrome-trace clock: telemetry.ClockBSP (synthetic
	// step-aligned, deterministic) or telemetry.ClockWall (recorded
	// offset-corrected wall-clock stamps).
	clock string
	// balanceLog dumps the executed balancing decisions after the run.
	balanceLog bool
	// dumpState writes the final particle state (float bits in hex) and the
	// balance log to this path, for bitwise run-to-run comparison.
	dumpState string
}

func (o obsOpts) sampling() bool { return o.timeline != "" || o.chrome != "" }

func main() {
	var (
		impl      = flag.String("impl", "serial", "implementation: serial | baseline | diffusion | ampi | worksteal")
		p         = flag.Int("p", 4, "number of ranks (parallel implementations)")
		L         = flag.Int("L", 64, "domain size in cells per dimension (must be even)")
		n         = flag.Int("n", 100000, "number of particles")
		steps     = flag.Int("steps", 500, "time steps")
		k         = flag.Int("k", 0, "horizontal speed parameter: (2k+1) cells/step")
		mVert     = flag.Int("m", 0, "vertical speed parameter: m cells/step")
		distName  = flag.String("dist", "geometric", "distribution: geometric | sinusoidal | linear | patch | uniform")
		r         = flag.Float64("r", 0.999, "geometric ratio (dist=geometric)")
		seed      = flag.Uint64("seed", 1, "placement seed")
		every     = flag.Int("every", 10, "diffusion: steps between LB actions")
		width     = flag.Int("width", 1, "diffusion: border columns moved per action")
		threshold = flag.Float64("threshold", 0.05, "diffusion: trigger threshold (fraction of mean load)")
		d         = flag.Int("d", 4, "ampi: over-decomposition degree")
		interval  = flag.Int("F", 50, "ampi: steps between load balancer invocations")
		strategy  = flag.String("strategy", "refine", "ampi: refine | greedy | hinted | steal | rotate | null")
		stealTh   = flag.Float64("steal-threshold", 0, "worksteal: hunger trigger fraction (0 = default 0.25)")
		verify    = flag.Bool("verify", true, "verify against the closed-form solution")
		workers   = flag.Int("workers", 0, "move-phase worker goroutines per rank (0 = GOMAXPROCS/p, min 1)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		timeline  = flag.String("timeline", "", "write the per-step telemetry timeline (JSONL) to this file")
		chrome    = flag.String("chrometrace", "", "write the timeline as Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
		clockName = flag.String("clock", telemetry.ClockBSP, "chrome trace clock: bsp (synthetic step-aligned) | wall (offset-corrected wall-clock stamps)")
		httpAddr  = flag.String("http", "", "serve /metrics, /debug/vars, and /debug/pprof on this address during the run (e.g. :6060)")
		balLog    = flag.Bool("balancelog", false, "print one line per executed load-balancing decision after the run")
		transport = flag.String("transport", driver.TransportInproc, "comm substrate: inproc (goroutine ranks) | tcp | unix (one process per rank)")
		join      = flag.String("join", "", "worker mode: join the rendezvous at this address instead of coordinating a run")
		listen    = flag.String("listen", "", "coordinator: rendezvous listen address (default: an ephemeral loopback address; set host:port to accept remote -join workers)")
		spawn     = flag.Int("spawn", -1, "coordinator: worker processes to fork locally (-1 = one per non-coordinator rank; fewer leaves slots for remote -join workers)")
		dumpState = flag.String("dumpstate", "", "write the verified final state (float bits in hex) and balance log to this file")
		ckptEvery = flag.Int("checkpoint-every", 0, "end an epoch every N steps with a distributed checkpoint (0 = off)")
		recovery  = flag.Bool("recover", false, "survive rank failures: roll back to the last checkpoint, re-admit a replacement -join worker, and resume (needs -checkpoint-every and a wire transport)")
	)
	flag.IntVar(p, "ranks", 4, "alias for -p")
	flag.Parse()

	opts := runOptions{
		impl: *impl, ranks: *p, steps: *steps, n: *n, workers: *workers,
		transport: *transport, join: *join, spawn: *spawn,
		ckptEvery: *ckptEvery, recover: *recovery,
	}
	if err := validateOptions(opts); err != nil {
		fatal(err)
	}

	mesh, err := grid.NewMesh(*L, grid.DefaultCharge)
	if err != nil {
		fatal(err)
	}
	var d0 dist.Distribution
	switch *distName {
	case "geometric":
		d0 = dist.Geometric{R: *r}
	case "sinusoidal":
		d0 = dist.Sinusoidal{}
	case "linear":
		d0 = dist.Linear{Alpha: 1, Beta: 2}
	case "patch":
		d0 = dist.Patch{X0: 0, X1: *L / 4, Y0: 0, Y1: *L / 4}
	case "uniform":
		d0 = dist.Uniform{}
	default:
		fatal(fmt.Errorf("unknown distribution %q", *distName))
	}

	implCfg := implOptions{
		every: *every, width: *width, threshold: *threshold,
		d: *d, interval: *interval, strategy: *strategy, stealTh: *stealTh,
	}

	// Worker mode: build the identical engine from the identical flags, join
	// the coordinator's rendezvous, run the assigned rank, and exit. All
	// reporting and observability stays with the coordinator (rank 0).
	if *join != "" {
		cfg := driver.Config{
			Mesh: mesh, N: *n, K: *k, M: *mVert,
			Dist: d0, Seed: *seed, Steps: *steps, Verify: *verify,
			Workers: *workers, Telemetry: *timeline != "" || *chrome != "",
			Transport:       *transport,
			CheckpointEvery: *ckptEvery, Recover: *recovery,
		}
		eng, err := makeEngine(*impl, *p, cfg, implCfg)
		if err != nil {
			fatal(err)
		}
		runWorker(eng, opts)
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	obs := obsOpts{timeline: *timeline, chrome: *chrome, clock: *clockName, balanceLog: *balLog, dumpState: *dumpState}
	if obs.clock != telemetry.ClockBSP && obs.clock != telemetry.ClockWall {
		fatal(fmt.Errorf("unknown -clock %q (want %s or %s)", obs.clock, telemetry.ClockBSP, telemetry.ClockWall))
	}
	var live *telemetry.Live
	if *httpAddr != "" {
		ranks := *p
		if *impl == "serial" {
			ranks = 1
		}
		local := ranks
		if *transport != driver.TransportInproc {
			local = 1 // this process hosts rank 0 only; workers have their own
		}
		live = telemetry.NewLive(ranks)
		live.SetRunInfo(telemetry.RunInfo{Impl: *impl, Transport: *transport, World: ranks, LocalRanks: local})
		addr, stop, err := telemetry.Serve(*httpAddr, live)
		if err != nil {
			fatal(err)
		}
		defer stop() //nolint:errcheck // best-effort teardown on exit
		fmt.Printf("observability: http://%s/metrics (also /healthz, /events, /debug/vars, /debug/pprof)\n", addr)
	}

	cfg := driver.Config{
		Mesh: mesh, N: *n, K: *k, M: *mVert,
		Dist: d0, Seed: *seed, Steps: *steps, Verify: *verify,
		Workers:   *workers,
		Telemetry: obs.sampling(), Live: live,
		Transport:       *transport,
		CheckpointEvery: *ckptEvery, Recover: *recovery,
	}

	if *impl == "serial" {
		runSerial(cfg, obs, live)
		return
	}
	eng, err := makeEngine(*impl, *p, cfg, implCfg)
	if err != nil {
		fatal(err)
	}
	report := func(res *driver.Result, err error) { reportParallel(res, err, obs) }
	if *transport != driver.TransportInproc {
		// Multi-process: rendezvous + forked single-rank workers, this
		// process hosting rank 0. With -recover, the coordinator becomes
		// the elastic supervisor: it re-runs the rendezvous after a rank
		// loss and re-forks replacements for dead local workers.
		if *recovery {
			runElasticCoordinator(eng, opts, *listen, report)
		} else {
			runCoordinator(eng, opts, *listen, live, report)
		}
		return
	}
	report(eng.Run(*p))
}

// implOptions carries the implementation-specific tuning flags.
type implOptions struct {
	every     int
	width     int
	threshold float64
	d         int
	interval  int
	strategy  string
	stealTh   float64
}

// makeEngine builds the named parallel engine. The same construction serves
// the in-process run, the multi-process coordinator, and -join workers, so
// every process derives the identical engine from the identical flags.
func makeEngine(impl string, p int, cfg driver.Config, o implOptions) (*driver.Engine, error) {
	switch impl {
	case "baseline":
		return driver.NewBaselineEngine(cfg), nil
	case "diffusion":
		params := diffusion.Params{Every: o.every, Threshold: o.threshold, Width: o.width, MinWidth: o.width + 1}
		return driver.NewDiffusionEngine(cfg, params)
	case "ampi":
		var s ampi.Strategy
		switch o.strategy {
		case "refine":
			s = ampi.RefineLB{}
		case "greedy":
			s = ampi.GreedyLB{}
		case "rotate":
			s = ampi.RotateLB{}
		case "hinted":
			s = &ampi.HintedGreedyLB{}
		case "steal":
			s = ampi.WorkStealLB{}
		case "null":
			s = ampi.NullLB{}
		default:
			return nil, fmt.Errorf("unknown strategy %q", o.strategy)
		}
		return driver.NewAMPIEngine(p, cfg, driver.AMPIParams{Overdecompose: o.d, Every: o.interval, Strategy: s})
	case "worksteal":
		return driver.NewWorkStealEngine(cfg, driver.WorkStealParams{Overdecompose: o.d, Every: o.interval, Threshold: o.stealTh})
	default:
		return nil, fmt.Errorf("unknown implementation %q", impl)
	}
}

// runSerial runs the sequential reference. When observability is on, each
// step is timed individually and emitted as a rank-0 sample, so the serial
// path produces the same timeline schema as the parallel drivers (one rank,
// compute phase only).
func runSerial(cfg driver.Config, obs obsOpts, live *telemetry.Live) {
	sim, err := core.NewSimulation(dist.Config{
		Mesh: cfg.Mesh, N: cfg.N, K: cfg.K, M: cfg.M, Dist: cfg.Dist, Seed: cfg.Seed,
	}, cfg.Schedule)
	if err != nil {
		fatal(err)
	}
	var ring *telemetry.Ring
	if obs.sampling() {
		ring = telemetry.NewRing(cfg.Steps)
	}
	start := time.Now()
	if ring != nil || live != nil {
		for step := 1; step <= cfg.Steps; step++ {
			stepStart := time.Now()
			sim.Step()
			var s telemetry.Sample
			s.Step = step
			s.Phases[trace.Compute] = time.Since(stepStart)
			s.Particles = len(sim.Particles)
			ring.Append(s)
			live.Observe(s)
		}
	} else {
		sim.Run(cfg.Steps)
	}
	elapsed := time.Since(start)
	rate := float64(len(sim.Particles)) * float64(cfg.Steps) / elapsed.Seconds()
	fmt.Printf("serial: %d particles, %d steps in %v (%.1fM particle-steps/s)\n",
		len(sim.Particles), cfg.Steps, elapsed.Round(time.Millisecond), rate/1e6)
	if ring != nil {
		writeObservability(telemetry.New("serial", 1, cfg.Steps, ring.Samples()), obs)
	}
	if cfg.Verify {
		if err := sim.Verify(0); err != nil {
			fatal(fmt.Errorf("VERIFICATION FAILED: %w", err))
		}
		fmt.Println("verification: PASSED (closed-form positions + ID checksum)")
	}
}

// writeObservability writes the requested timeline exports.
func writeObservability(tl *telemetry.Timeline, obs obsOpts) {
	if tl == nil {
		return
	}
	if obs.timeline != "" {
		if err := writeFileWith(obs.timeline, func(f *os.File) error { return telemetry.WriteJSONL(f, tl) }); err != nil {
			fatal(err)
		}
		fmt.Printf("timeline: wrote %d samples to %s (analyze with picstat)\n", len(tl.Samples), obs.timeline)
	}
	if obs.chrome != "" {
		clock := obs.clock
		if clock == "" {
			clock = telemetry.ClockBSP
		}
		if err := writeFileWith(obs.chrome, func(f *os.File) error { return telemetry.WriteChromeTraceClock(f, tl, clock) }); err != nil {
			fatal(err)
		}
		fmt.Printf("chrome trace: wrote %s on the %s clock (load in Perfetto or chrome://tracing)\n", obs.chrome, clock)
	}
}

func writeFileWith(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func reportParallel(res *driver.Result, err error, obs obsOpts) {
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: P=%d, %d particles, %d steps in %v\n",
		res.Name, res.P, res.FinalParticles, res.Steps, res.Elapsed.Round(time.Millisecond))
	loads := make([]float64, len(res.PerRank))
	for i, s := range res.PerRank {
		loads[i] = float64(s.FinalParticles)
	}
	fmt.Printf("final load: %v\n", stats.Summarize(loads))
	fmt.Printf("max particles/rank: %d final, %d high-water\n", res.MaxFinalParticles, res.MaxParticlesHighWater())
	var migrations int
	var bytes int64
	for _, s := range res.PerRank {
		migrations += s.Migrations
		bytes += s.BytesMigrated
	}
	fmt.Printf("LB activity: %d migrations, %d payload bytes\n", migrations, bytes)
	if rc := res.Recovery; rc != nil {
		fmt.Printf("epochs: %d commit(s)", rc.Commits)
		if rc.Rollbacks > 0 {
			fmt.Printf(", %d rollback(s), %d readmit(s) across %d world generation(s)", rc.Rollbacks, rc.Readmits, rc.Generations)
		}
		fmt.Println()
	}
	for _, s := range res.PerRank {
		fmt.Printf("  rank %2d: compute %-10v exchange %-10v overlap %-10v balance %-10v migrate %-10v particles %d\n",
			s.Rank, s.Compute.Round(time.Microsecond), s.Exchange.Round(time.Microsecond),
			s.Overlap.Round(time.Microsecond),
			s.Balance.Round(time.Microsecond), s.Migrate.Round(time.Microsecond), s.FinalParticles)
	}
	if res.Wire != nil {
		if h := res.Wire.MergedLatency(); h.Count() > 0 {
			fmt.Printf("wire: %d data frames, one-way latency p50 ≤ %s, p99 ≤ %s\n",
				h.Count(), telemetry.FmtNS(h.Quantile(0.5)), telemetry.FmtNS(h.Quantile(0.99)))
		}
		for _, node := range sortedOffsetNodes(res.Wire.Offsets) {
			if node != 0 {
				fmt.Printf("  clock offset node %d: %s (to node 0's clock)\n",
					node, telemetry.FmtNS(res.Wire.Offsets[node]))
			}
		}
	}
	if obs.balanceLog {
		fmt.Printf("balance log: %d executed decision(s)\n", len(res.BalanceLog))
		for _, line := range res.BalanceLog {
			fmt.Printf("  %s\n", line)
		}
	}
	writeObservability(res.Timeline, obs)
	if obs.dumpState != "" {
		if err := writeState(obs.dumpState, res); err != nil {
			fatal(err)
		}
		fmt.Printf("state dump: wrote %d particles to %s\n", len(res.Particles), obs.dumpState)
	}
	if res.Verified {
		fmt.Println("verification: PASSED (closed-form positions + ID checksum)")
	}
}

// sortedOffsetNodes yields the offset map's node indices in ascending order.
func sortedOffsetNodes(m map[int]int64) []int {
	nodes := make([]int, 0, len(m))
	for n := range m {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "picrun:", err)
	os.Exit(1)
}
