// Command picbench regenerates the paper's evaluation figures (§V) using
// the performance model at the paper's scales (192–3,072 cores), applying
// the paper's methodology of tuning each implementation's parameters per
// concurrency level. Absolute seconds depend on the machine calibration in
// model.Edison(); the shapes — who wins, by what factor, where crossovers
// fall — are the reproduction target (see EXPERIMENTS.md).
//
// Usage:
//
//	picbench               # all figures, full scale
//	picbench -fig 6r       # one figure: 5 | 6l | 6r | 7 | ws
//	picbench -quick        # reduced problem sizes (minutes -> seconds)
//
// The real drivers are measured by bench/ (see bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/parres/picprk/internal/model"
	"github.com/parres/picprk/internal/sweep"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 5 | 6l | 6r | 7 | ws | all")
		quick   = flag.Bool("quick", false, "reduced problem sizes")
		plot    = flag.Bool("plot", false, "also draw ASCII log-scale charts")
		machine = flag.String("machine", "edison", "machine model: edison | fatnode")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

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

	scale := sweep.Full
	if *quick {
		scale = sweep.Quick
	}
	var mach model.Machine
	switch *machine {
	case "edison":
		mach = model.Edison()
	case "fatnode":
		mach = model.FatNode()
	default:
		fmt.Fprintf(os.Stderr, "picbench: unknown machine %q\n", *machine)
		os.Exit(2)
	}

	var figs []*sweep.Figure
	start := time.Now()
	switch *fig {
	case "5":
		figs = append(figs, sweep.Fig5(mach, scale))
	case "6l":
		figs = append(figs, sweep.Fig6Left(mach, scale))
	case "6r":
		figs = append(figs, sweep.Fig6Right(mach, scale))
	case "7":
		figs = append(figs, sweep.Fig7(mach, scale))
	case "ws":
		figs = append(figs, sweep.FigWorkSteal(mach, scale))
	case "all":
		figs = sweep.All(mach, scale)
	default:
		fmt.Fprintf(os.Stderr, "picbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	for _, f := range figs {
		f.Render(os.Stdout)
		if *plot {
			f.Plot(os.Stdout, 16)
		}
	}
	fmt.Printf("regenerated %d figure(s) in %v\n", len(figs), time.Since(start).Round(time.Second))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "picbench:", err)
	os.Exit(1)
}
