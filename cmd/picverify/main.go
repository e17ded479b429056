// Command picverify runs the PIC PRK verification battery: every parallel
// implementation, across rank counts, distributions, particle speeds and
// event schedules, is checked for (a) the closed-form solution of paper
// §III-D and (b) bitwise agreement with the sequential reference. A single
// force miscalculation or routing bug anywhere fails the battery.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/grid"
)

type scenario struct {
	name  string
	cfg   driver.Config
	sched dist.Schedule
}

func scenarios(L, n, steps int) []scenario {
	mesh := grid.MustMesh(L, grid.DefaultCharge)
	base := driver.Config{Mesh: mesh, N: n, Steps: steps, Seed: 7, Verify: true}
	mk := func(name string, mut func(*driver.Config)) scenario {
		c := base
		mut(&c)
		return scenario{name: name, cfg: c}
	}
	out := []scenario{
		mk("uniform", func(c *driver.Config) { c.Dist = dist.Uniform{} }),
		mk("geometric", func(c *driver.Config) { c.Dist = dist.Geometric{R: 0.9} }),
		mk("sinusoidal", func(c *driver.Config) { c.Dist = dist.Sinusoidal{} }),
		mk("linear", func(c *driver.Config) { c.Dist = dist.Linear{Alpha: 1, Beta: 2} }),
		mk("patch", func(c *driver.Config) { c.Dist = dist.Patch{X0: 2, X1: L / 2, Y0: 2, Y1: L / 2} }),
		mk("fast-k2", func(c *driver.Config) { c.Dist = dist.Geometric{R: 0.9}; c.K = 2 }),
		mk("vertical", func(c *driver.Config) { c.Dist = dist.Geometric{R: 0.9}; c.M = 3 }),
		mk("leftward", func(c *driver.Config) { c.Dist = dist.Geometric{R: 0.9}; c.Dir = -1 }),
	}
	ev := base
	ev.Dist = dist.Geometric{R: 0.9}
	out = append(out, scenario{
		name: "inject+remove",
		cfg:  ev,
		sched: dist.Schedule{
			{Step: steps / 3, Region: dist.Rect{X0: 1, X1: L / 2, Y0: 1, Y1: L / 2}, Inject: n / 4, M: 1},
			{Step: 2 * steps / 3, Region: dist.Rect{X0: 0, X1: L / 3, Y0: 0, Y1: L}, Remove: true},
		},
	})
	return out
}

func main() {
	var (
		L     = flag.Int("L", 24, "domain size")
		n     = flag.Int("n", 3000, "particles per scenario")
		steps = flag.Int("steps", 48, "steps per scenario")
		ranks = flag.String("p", "1,2,4,6", "comma-separated rank counts")
	)
	flag.Parse()

	var ps []int
	for _, tok := range strings.Split(*ranks, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		var v int
		if _, err := fmt.Sscanf(tok, "%d", &v); err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "picverify: bad rank count %q\n", tok)
			os.Exit(2)
		}
		ps = append(ps, v)
	}

	failures := 0
	start := time.Now()
	for _, sc := range scenarios(*L, *n, *steps) {
		sc.cfg.Schedule = sc.sched
		ref, err := reference(sc.cfg)
		if err != nil {
			fmt.Printf("FAIL %-14s sequential: %v\n", sc.name, err)
			failures++
			continue
		}
		for _, p := range ps {
			failures += check(fmt.Sprintf("%-14s baseline  P=%d", sc.name, p), ref, p, driver.NewBaselineEngine(sc.cfg), nil)
			eng, err := driver.NewDiffusionEngine(sc.cfg, diffusion.Params{Every: 7, Threshold: 0.05, Width: 1, MinWidth: 2})
			failures += check(fmt.Sprintf("%-14s diffusion P=%d", sc.name, p), ref, p, eng, err)
			eng, err = driver.NewAMPIEngine(p, sc.cfg, driver.AMPIParams{Overdecompose: 4, Every: 10})
			failures += check(fmt.Sprintf("%-14s ampi      P=%d", sc.name, p), ref, p, eng, err)
			eng, err = driver.NewWorkStealEngine(sc.cfg, driver.WorkStealParams{Overdecompose: 4, Every: 10})
			failures += check(fmt.Sprintf("%-14s worksteal P=%d", sc.name, p), ref, p, eng, err)
		}
	}
	fmt.Printf("\npicverify: %d failures in %v\n", failures, time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		os.Exit(1)
	}
}

// reference is the sequential simulation's final state, sorted by ID.
func reference(cfg driver.Config) (*core.SoA, error) {
	sim, err := core.NewSimulation(dist.Config{
		Mesh: cfg.Mesh, N: cfg.N, K: cfg.K, M: cfg.M, Dir: cfg.Dir, Dist: cfg.Dist, Seed: cfg.Seed,
	}, cfg.Schedule)
	if err != nil {
		return nil, err
	}
	sim.Run(cfg.Steps)
	if err := sim.Verify(0); err != nil {
		return nil, err
	}
	sim.Particles.SortByID()
	return sim.Particles, nil
}

// check runs eng on p ranks — or reports err, the error its constructor
// returned — and compares the result with the sequential reference.
func check(label string, ref *core.SoA, p int, eng *driver.Engine, err error) int {
	var res *driver.Result
	if err == nil {
		res, err = eng.Run(p)
	}
	if err != nil {
		fmt.Printf("FAIL %s: %v\n", label, err)
		return 1
	}
	if !res.Verified {
		fmt.Printf("FAIL %s: closed-form verification did not pass\n", label)
		return 1
	}
	if got := res.Particles.Len(); got != ref.Len() {
		fmt.Printf("FAIL %s: %d particles, sequential has %d\n", label, got, ref.Len())
		return 1
	}
	for i := range ref.Len() {
		if res.Particles.At(i) != ref.At(i) {
			fmt.Printf("FAIL %s: particle %d differs from sequential reference\n", label, ref.Meta[i].ID)
			return 1
		}
	}
	fmt.Printf("PASS %s\n", label)
	return 0
}
