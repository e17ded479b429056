package main

import (
	"math"
	"sort"
	"time"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/driver"
)

// stamps is what the stamp wrapper records on a timed run: per rank-step
// the time the step began (Engine.StepHook), the time it ended (the return
// of CheckOwnership, the last substrate call of a step) and the local
// particle count then. Every slot is written by exactly one rank goroutine
// and read only after Run returns, so no lock is needed. Times are
// nanoseconds since t0 on the monotonic clock.
type stamps struct {
	t0 time.Time
	// start, end and count are indexed [rank][step], step 1..steps.
	start, end [][]int64
	count      [][]int64
	// called and returned bracket Engine.Run.
	called, returned int64
}

func newStamps(p, steps int) *stamps {
	st := &stamps{t0: time.Now()}
	for r := 0; r < p; r++ {
		st.start = append(st.start, make([]int64, steps+1))
		st.end = append(st.end, make([]int64, steps+1))
		st.count = append(st.count, make([]int64, steps+1))
	}
	return st
}

func (st *stamps) now() int64 { return int64(time.Since(st.t0)) }

// stampSub overrides only CheckOwnership; every other Substrate method
// (ApplyEvents with its unexported parameter included) is promoted from the
// real substrate untouched.
type stampSub struct {
	driver.Substrate
	st   *stamps
	rank int
}

func (s *stampSub) CheckOwnership(step int) error {
	err := s.Substrate.CheckOwnership(step)
	s.st.end[s.rank][step] = s.st.now()
	s.st.count[s.rank][step] = int64(s.Count())
	return err
}

// install points the engine's two seams at the stamp wrapper: two clock
// reads per rank-step, no locks. A StepHook already installed (the
// tracer's) keeps running after the stamp.
func (st *stamps) install(eng *driver.Engine) {
	real, hook := eng.Substrate, eng.StepHook
	eng.Substrate = func(c *comm.Comm, cfg driver.Config) (driver.Substrate, error) {
		sub, err := real(c, cfg)
		if err != nil {
			return nil, err
		}
		return &stampSub{Substrate: sub, st: st, rank: c.Rank()}, nil
	}
	eng.StepHook = func(c *comm.Comm, step int) {
		st.start[c.Rank()][step] = st.now()
		if hook != nil {
			hook(c, step)
		}
	}
}

// timing is the arithmetic on one run's stamps. All durations in seconds.
type timing struct {
	setupS, loopS, finalizeS, runS float64
	// makespans holds m[s] for s = 1..steps: the time between consecutive
	// "every rank has finished step s" instants, so commits and events
	// between steps are inside the loop and the sum is exactly loopS.
	makespans []float64
	// particleSteps is the sum over steps of the global particle count.
	particleSteps int64
	// imbalance is the mean over steps of max_r count / mean_r count.
	imbalance float64
}

func maxAt(rows [][]int64, step int) int64 {
	m := rows[0][step]
	for _, row := range rows[1:] {
		m = max(m, row[step])
	}
	return m
}

// derive turns raw stamps into the run's timing:
//
//	setup_end = max_r start[r][1]
//	m[s]      = max_r end[r][s] − max_r end[r][s−1], with end[·][0] := setup_end
//	finalize  = returned − max_r end[r][S]
func (st *stamps) derive() timing {
	steps := len(st.start[0]) - 1
	setupEnd := maxAt(st.start, 1)
	t := timing{
		setupS:    seconds(setupEnd - st.called),
		runS:      seconds(st.returned - st.called),
		makespans: make([]float64, steps),
	}
	prev := setupEnd
	for s := 1; s <= steps; s++ {
		end := maxAt(st.end, s)
		t.makespans[s-1] = seconds(end - prev)
		prev = end
		var sum int64
		for _, row := range st.count {
			sum += row[s]
		}
		t.particleSteps += sum
		if sum > 0 {
			t.imbalance += float64(maxAt(st.count, s)) * float64(len(st.count)) / float64(sum)
		}
	}
	t.imbalance /= float64(steps)
	t.loopS = seconds(prev - setupEnd)
	t.finalizeS = seconds(st.returned - prev)
	return t
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks; sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// minTailSamples is how many samples must lie beyond a percentile before it
// is reported: p95 needs 200 pooled samples, p99 needs 1000.
const minTailSamples = 10

// tailPercentile returns the pct-th percentile of sorted, or ok=false when
// fewer than minTailSamples samples lie beyond it — a tail read off a
// handful of samples is the maximum under another name.
func tailPercentile(sorted []float64, pct int) (v float64, ok bool) {
	if len(sorted)*(100-pct) < minTailSamples*100 {
		return 0, false
	}
	return quantile(sorted, float64(pct)/100), true
}
