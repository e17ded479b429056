package main

import (
	"math"

	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/grid"
)

// ranks is fixed for every workload: ranks = cores on the reference box.
// With more ranks than cores the Go scheduler hides exactly the imbalance
// the paper studies.
const ranks = 2

// warmupSteps is the length of the discarded warm-up run of each workload.
const warmupSteps = 20

// workload is one named input of the benchmark. The program under test
// receives only the driver.Config that config generates from the seed.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// steps is the nominal run length, before -steps-scale.
	steps int
	// policy names the balance.* microbenchmark this workload's balancer
	// feeds ("" for the baseline workloads, which never balance).
	policy string
	config func(seed uint64, steps int) driver.Config
	engine func(cfg driver.Config) (*driver.Engine, error)
}

// baseConfig holds what is fixed for every workload: one move worker per
// rank, the default tile pipeline, distributed verification on every run.
func baseConfig(L, n, k, m int, d dist.Distribution, seed uint64, steps int) driver.Config {
	return driver.Config{
		Mesh: grid.MustMesh(L, grid.DefaultCharge), N: n, K: k, M: m,
		Dist: d, Seed: seed, Steps: steps,
		Workers: 1, Tile: 0, DistributedVerify: true,
		Transport: driver.TransportInproc,
	}
}

func baselineEngine(cfg driver.Config) (*driver.Engine, error) {
	return driver.NewBaselineEngine(cfg), nil
}

func fastdriftConfig(seed uint64, steps int) driver.Config {
	return baseConfig(64, 200000, 15, 5, dist.Uniform{}, seed, steps)
}

func skewConfig(seed uint64, steps int) driver.Config {
	return baseConfig(256, 400000, 0, 0, dist.Geometric{R: 0.98}, seed, steps)
}

// churnSchedule grows and shrinks the population: for s = 10, 50, 90, ...
// step s injects 50 000 particles into the left half's lower quarter and
// step s+20 removes everything in a full-height band right of the middle.
func churnSchedule(steps int) dist.Schedule {
	var sched dist.Schedule
	for s := 10; s <= steps; s += 40 {
		sched = append(sched, dist.Event{Step: s, Region: dist.Rect{X0: 0, X1: 64, Y0: 0, Y1: 128}, Inject: 50000, K: 1, M: 1})
		if s+20 <= steps {
			sched = append(sched, dist.Event{Step: s + 20, Region: dist.Rect{X0: 128, X1: 192, Y0: 0, Y1: 256}, Remove: true})
		}
	}
	return sched
}

// workloads lists the six workloads in round-robin order. Names are
// normative: BENCHMARK.json and bench/README.md refer to them.
var workloads = []workload{
	{
		name:  "uniform_block",
		why:   "compute-bound floor: uniform, k=0, <1% of particles cross a rank per step; core sort+move+classify and CheckOwnership do nearly all the work",
		steps: 300,
		config: func(seed uint64, steps int) driver.Config {
			return baseConfig(512, 400000, 0, 0, dist.Uniform{}, seed, steps)
		},
		engine: baselineEngine,
	},
	{
		name:   "fastdrift_block",
		why:    "exchange-bound: k=15 on L=64, so ~97% of particles change rank every step; core scatter/append and the comm exchange dominate",
		steps:  350,
		config: fastdriftConfig,
		engine: baselineEngine,
	},
	{
		name:  "fastdrift_tcp",
		why:   "fastdrift_block's input over loopback tcp: the same bytes through pup codecs and comm/wire frames, so the difference is the wire cost",
		steps: 100,
		config: func(seed uint64, steps int) driver.Config {
			cfg := fastdriftConfig(seed, steps)
			cfg.Transport = driver.TransportTCP
			return cfg
		},
		engine: baselineEngine,
	},
	{
		name:   "skew_diffusion",
		why:    "the paper's mpi-2d-LB case: geometric skew, step time follows the heavier rank; Measure, diffusion decide, cut migration and rehome run every 5th step",
		steps:  200,
		policy: "diffusion",
		config: skewConfig,
		engine: func(cfg driver.Config) (*driver.Engine, error) {
			return driver.NewDiffusionEngine(cfg, diffusion.Params{Every: 5, Threshold: 0.05, Width: 8, MinWidth: 3})
		},
	},
	{
		name:   "skew_ampi",
		why:    "skew_diffusion's input on the other substrate: 8 VPs on 2 ranks, per-VP move, RefineLB decide, PUP migration every 10th step",
		steps:  300,
		policy: "ampi",
		config: skewConfig,
		engine: func(cfg driver.Config) (*driver.Engine, error) {
			return driver.NewAMPIEngine(ranks, cfg, driver.AMPIParams{Overdecompose: 4, Every: 10})
		},
	},
	{
		name:   "churn_ckpt_worksteal",
		why:    "writes beside reads: injections and removals every 20 steps, work stealing migrates VPs, and every 20th step checkpoints each rank's full state through pup",
		steps:  300,
		policy: "worksteal",
		config: func(seed uint64, steps int) driver.Config {
			cfg := baseConfig(256, 300000, 0, 0, dist.Geometric{R: 0.98}, seed, steps)
			cfg.Schedule = churnSchedule(steps)
			cfg.CheckpointEvery = 20
			return cfg
		},
		engine: func(cfg driver.Config) (*driver.Engine, error) {
			return driver.NewWorkStealEngine(cfg, driver.WorkStealParams{Overdecompose: 4, Every: 10})
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaledSteps applies the common -steps-scale factor to a nominal step count.
func scaledSteps(nominal int, scale float64) int {
	return max(1, int(math.Round(float64(nominal)*scale)))
}
