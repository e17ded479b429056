// Command bench is the repository's benchmark: six P=2 workloads driven
// through the four real drivers, measured from outside the program. See
// README.md in this directory for the workloads, the metrics and how they
// interact.
//
// Two ways to run it:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    one workload, measured for s seconds; the last line of output is one
//	    JSON object (the contract BENCHMARK.json describes).
//	bash bench/run.sh [-workload <name>] [-seed n] [-steps-scale f] [-aa]
//	    the full protocol: warm-up, 5 timed repeats round-robin across the
//	    workloads, one traced run each, the layer microbenchmarks; writes
//	    bench/out/report.json and bench/out/trace_<workload>.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/particle"
)

// defaultStepsScale is the common factor applied to every workload's
// nominal step count (38, 44, 13, 25, 38 and 38 steps), so that an
// invocation of --seconds 15 holds about twenty runs — the phase metrics
// need that many — and 4 + 22×6 such invocations fit the driver's time cap.
const defaultStepsScale = 0.125

// timedRepeats is the number of timed runs per workload in the full
// protocol; microBudget the timed duration of each microbenchmark there.
const (
	timedRepeats = 5
	microBudget  = 500 * time.Millisecond
)

// outDir receives the traces and the full protocol's report.
const outDir = "bench/out"

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	scale    float64
	aa       bool
	manifest bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (required with -seconds)")
	flag.Uint64Var(&o.seed, "seed", 5, "workload seed; feeds Config.Seed only")
	flag.IntVar(&o.seconds, "seconds", 0, "measure one workload for this many seconds and print one JSON line")
	flag.IntVar(&o.trace, "trace", 0, "with -seconds: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.Float64Var(&o.scale, "steps-scale", defaultStepsScale, "common factor on every workload's nominal step count")
	flag.BoolVar(&o.aa, "aa", false, "run the timed protocol twice and fail if the two sets disagree beyond the bounds")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.manifest {
		return writeManifest(os.Stdout)
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.scale <= 0 {
		return fmt.Errorf("-steps-scale must be positive, got %g", o.scale)
	}
	selected := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{*w}
	}
	if err := preflight(); err != nil {
		return err
	}
	runtime.GOMAXPROCS(ranks)
	if o.seconds > 0 {
		if o.workload == "" {
			return errors.New("-seconds needs -workload")
		}
		return runContract(&selected[0], o)
	}
	return runProtocol(selected, o)
}

// preflight refuses to measure on fewer cores than ranks and warns when the
// box is already busy.
func preflight() error {
	if n := runtime.NumCPU(); n < ranks {
		return fmt.Errorf("need at least %d CPUs for ranks = cores, have %d", ranks, n)
	}
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(buf)); len(f) > 0 {
			if load, err := strconv.ParseFloat(f[0], 64); err == nil && load > 0.5 {
				fmt.Fprintf(os.Stderr, "bench: warning: 1-min load average is %.2f; timings will be noisy\n", load)
			}
		}
	}
	return nil
}

// session is one workload's measuring state within an invocation.
type session struct {
	w    *workload
	cfg  driver.Config
	want int
	// attempted and failed count every run, warm-up and traced included.
	attempted, failed int
	// captured is rank 0's step-1 state from the warm-up (trace runs only).
	captured []particle.Particle
	// runs are the successful plain runs, traced the successful traced ones.
	runs, traced []runResult
}

func newSession(w *workload, o options) (*session, error) {
	s := &session{w: w, cfg: w.config(o.seed, scaledSteps(w.steps, o.scale))}
	var err error
	s.want, err = expectedPopulation(s.cfg)
	return s, err
}

// warmUp runs the workload for warmupSteps steps and discards the timings,
// so heap growth and lazy set-up are paid before anything is measured.
func (s *session) warmUp(capture bool) error {
	cfg := s.w.config(s.cfg.Seed, warmupSteps)
	want, err := expectedPopulation(cfg)
	if err != nil {
		return err
	}
	var out *[]particle.Particle
	if capture {
		out = &s.captured
	}
	s.attempted++
	if r := runOnce(s.w, cfg, want, false, out); r.err != nil {
		s.failed++
		return fmt.Errorf("warm-up: %w", r.err)
	}
	return nil
}

// run does one run of the workload — with only the stamp wrapper installed,
// or with the span wrappers under it when traced — and files the result.
func (s *session) run(traced bool) {
	s.attempted++
	r := runOnce(s.w, s.cfg, s.want, traced, nil)
	switch {
	case r.err != nil:
		s.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: run failed: %v\n", s.w.name, r.err)
	case traced:
		s.traced = append(s.traced, r)
	default:
		s.runs = append(s.runs, r)
	}
}

// layerMetrics assembles every per-layer metric from the session's runs,
// its last traced run and the microbenchmarks.
func (s *session) layerMetrics(budget time.Duration) (map[string]float64, error) {
	if len(s.runs) == 0 || len(s.traced) == 0 {
		return nil, fmt.Errorf("%s: no successful run to read layers from", s.w.name)
	}
	last := &s.traced[len(s.traced)-1]
	m := stampMetrics(s.runs)
	maps.Copy(m, spanMetrics(last))
	maps.Copy(m, resultCounts(s.runs[len(s.runs)-1].res))

	var loop, tracedLoop []float64
	for i := range s.runs {
		loop = append(loop, s.runs[i].loopS)
	}
	for i := range s.traced {
		tracedLoop = append(tracedLoop, s.traced[i].loopS)
	}
	m["driver.trace_overhead_share"] = median(tracedLoop)/median(loop) - 1

	ln := last.tracer.lanes[0]
	micro, err := microBench(s.w, s.cfg, s.captured, ln.firstLoads, ln.firstPlanStep, budget)
	if err != nil {
		return nil, err
	}
	maps.Copy(m, micro)
	serialRate := 1e9 / m["core.sim_serial_ns_per_particle_step"]
	m["driver.parallel_efficiency"] = endToEndStats(s.runs)["particle_steps_per_s"].Value / (ranks * serialRate)
	return m, nil
}

// runContract measures one workload for o.seconds seconds and prints the
// JSON line the driver reads.
func runContract(w *workload, o options) error {
	s, err := newSession(w, o)
	if err != nil {
		return err
	}
	if err := s.warmUp(o.trace == 1); err != nil {
		return err
	}
	budget := time.Duration(o.seconds) * time.Second
	metrics := map[string]float64{}
	defs := endToEnd
	start := time.Now()
	if o.trace == 0 {
		for len(s.runs) == 0 || time.Since(start) < budget {
			s.run(false)
			if s.failed > 0 {
				break
			}
		}
		if len(s.runs) > 0 {
			for name, st := range endToEndStats(s.runs) {
				metrics[name] = st.Value
			}
			printStats(w.name, s.cfg.Steps, s.runs)
		}
	} else {
		// Half the time goes to alternating plain and traced runs (their
		// difference is the tracing overhead), 40% to the timed sections of
		// the microbenchmarks; their untimed resets take the rest.
		defs = perLayer
		for len(s.traced) == 0 || time.Since(start) < budget/2 {
			s.run(false)
			s.run(true)
			if s.failed > 0 {
				break
			}
		}
		if s.failed == 0 {
			metrics, err = s.layerMetrics(budget * 2 / 5 / microCount)
			if err != nil {
				return err
			}
			printLayers(s.w.name, metrics)
			if err := s.writeTrace(); err != nil {
				return err
			}
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if s.failed > 0 {
		return fmt.Errorf("%s: %d of %d runs failed", w.name, s.failed, s.attempted)
	}
	return nil
}

// writeTrace writes the last traced run as bench/out/trace_<workload>.json.
func (s *session) writeTrace() error {
	return s.traced[len(s.traced)-1].tracer.writeChrome(filepath.Join(outDir, "trace_"+s.w.name+".json"))
}

// timedSet runs the timed part of the protocol: timedRepeats runs per
// workload, round-robin, so a noise burst on a shared box costs one repeat
// of each workload rather than five of one.
func timedSet(sessions []*session) {
	for rep := 0; rep < timedRepeats; rep++ {
		for _, s := range sessions {
			s.run(false)
		}
	}
}

// runProtocol is the full protocol over the selected workloads.
func runProtocol(selected []workload, o options) error {
	var sessions []*session
	for i := range selected {
		s, err := newSession(&selected[i], o)
		if err != nil {
			return err
		}
		if err := s.warmUp(true); err != nil {
			return err
		}
		sessions = append(sessions, s)
	}
	timedSet(sessions)
	// -aa: a second timed set of the same code, round-robin like the first.
	firstSets := make([][]runResult, len(sessions))
	if o.aa {
		for i, s := range sessions {
			firstSets[i], s.runs = s.runs, nil
		}
		timedSet(sessions)
	}

	rep := report{
		Seed: o.seed, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), StepsScale: o.scale, Commit: gitHead(),
		Workloads: map[string]*workloadReport{},
	}
	failed := 0
	var disagreements []string
	for i, s := range sessions {
		wr := &workloadReport{Steps: s.cfg.Steps}
		rep.Workloads[s.w.name] = wr
		switch {
		case s.failed > 0:
			// Failed runs contribute no timings; the count below says so.
		case o.aa:
			wr.EndToEnd, wr.EndToEndB = endToEndStats(firstSets[i]), endToEndStats(s.runs)
			printStats(s.w.name+" (first set)", s.cfg.Steps, firstSets[i])
			printStats(s.w.name+" (second set)", s.cfg.Steps, s.runs)
			disagreements = append(disagreements, compareSets(s.w.name, firstSets[i], s.runs)...)
		default:
			wr.EndToEnd = endToEndStats(s.runs)
			printStats(s.w.name, s.cfg.Steps, s.runs)
			s.run(true)
			if s.failed > 0 {
				break
			}
			layers, err := s.layerMetrics(microBudget)
			if err != nil {
				return err
			}
			wr.PerLayer = layers
			printLayers(s.w.name, layers)
			if err := s.writeTrace(); err != nil {
				return err
			}
		}
		wr.Attempted, wr.Failed = s.attempted, s.failed
		wr.FailedShare = float64(s.failed) / float64(s.attempted)
		fmt.Printf("   failed_share %g (%d of %d runs)\n", wr.FailedShare, s.failed, s.attempted)
		failed += s.failed
	}
	if err := rep.write(filepath.Join(outDir, "report.json")); err != nil {
		return err
	}
	for _, d := range disagreements {
		fmt.Println("DISAGREE", d)
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d runs failed", failed)
	case len(disagreements) > 0:
		return fmt.Errorf("-aa: %d metrics differ between two sets of runs of the same code", len(disagreements))
	}
	return nil
}

// compareSets checks two sets of timed runs of the same code: every
// end-to-end median must agree within its bound and every exact count must
// be identical.
func compareSets(name string, a, b []runResult) []string {
	var out []string
	sa, sb := endToEndStats(a), endToEndStats(b)
	for _, d := range endToEnd {
		if diff := math.Abs(sb[d.Name].Value-sa[d.Name].Value) / sa[d.Name].Value; diff > d.Bound {
			out = append(out, fmt.Sprintf("%s %s: %g and %g differ by %.1f%% (bound %.0f%%)",
				name, d.Name, sa[d.Name].Value, sb[d.Name].Value, 100*diff, 100*d.Bound))
		}
	}
	ca, cb := resultCounts(a[0].res), resultCounts(b[len(b)-1].res)
	for _, c := range exactCounts {
		if ca[c] != cb[c] {
			out = append(out, fmt.Sprintf("%s %s: counts %g and %g differ", name, c, ca[c], cb[c]))
		}
	}
	return out
}

func printStats(name string, steps int, runs []runResult) {
	stats := endToEndStats(runs)
	fmt.Printf("== %s: %d steps, %d timed runs\n", name, steps, len(runs))
	for _, d := range endToEnd {
		st := stats[d.Name]
		fmt.Printf("   %-22s %12.6g %-4s  q1 %.6g  median %.6g  q3 %.6g  n=%d  (%s is better, bound %.0f%%)\n",
			d.Name, st.Value, d.Unit, st.Q1, st.Median, st.Q3, st.Samples, d.Better, 100*d.Bound)
	}
}

func printLayers(name string, m map[string]float64) {
	fmt.Printf("== %s: per-layer\n", name)
	for _, d := range perLayer {
		fmt.Printf("   %-40s %12.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
	if v, ok := m["driver.step_s_p99"]; ok {
		fmt.Printf("   %-40s %12.6g s\n", "driver.step_s_p99", v)
	} else {
		fmt.Printf("   %-40s     withheld (fewer than %d samples beyond it)\n", "driver.step_s_p99", minTailSamples)
	}
}

// report is bench/out/report.json: what the full protocol measured, with
// what it takes to compare two reports.
type report struct {
	Seed       uint64                     `json:"seed"`
	GoVersion  string                     `json:"go_version"`
	NumCPU     int                        `json:"nproc"`
	GoMaxProcs int                        `json:"gomaxprocs"`
	StepsScale float64                    `json:"steps_scale"`
	Commit     string                     `json:"commit"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Steps       int                `json:"steps"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedShare float64            `json:"failed_share"`
	EndToEnd    map[string]stat    `json:"end_to_end,omitempty"`
	EndToEndB   map[string]stat    `json:"end_to_end_second_set,omitempty"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
}

func (r *report) write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// gitHead is the commit being measured, or "unknown" outside a git checkout.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeManifest writes BENCHMARK.json, generated from the workload and
// metric tables so the file cannot drift from what the harness prints.
func writeManifest(out io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 15,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	enc := json.NewEncoder(out)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
