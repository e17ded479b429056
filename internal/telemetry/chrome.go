package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/parres/picprk/internal/trace"
)

// Chrome trace-event export: the timeline rendered in the JSON format that
// chrome://tracing and Perfetto load directly. Ranks map to threads of one
// process, phases to duration ("X") events, particle counts to counter
// ("C") tracks, and balancer decisions to instant ("i") events.
//
// Two clocks are available. The default synthetic bulk-synchronous clock
// lays steps out as if all ranks started each step together and the step
// ended when its slowest rank did — which is how the exchange collective
// actually synchronizes the ranks, makes per-step idle time (imbalance)
// visible as gaps, and is deterministic for golden tests. The wall clock
// (ClockWall) instead anchors every rank's step at its recorded
// WallStartNS — real, offset-corrected timestamps on rank 0's clock — which
// is the view that shows cross-rank skew, wire queueing, and rendezvous
// stalls in a genuine multi-process run.

// chromeEvent is one trace event. Fields follow the Trace Event Format;
// ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid,omitempty"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level object Perfetto accepts.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePID = 1

// Clock selectors for WriteChromeTraceClock.
const (
	ClockBSP  = "bsp"  // synthetic bulk-synchronous clock (default, deterministic)
	ClockWall = "wall" // recorded offset-corrected wall-clock timestamps
)

func usec(d int64) float64 { return float64(d) / 1e3 }

// WriteChromeTraceClock writes the timeline as Chrome trace-event JSON on
// the chosen clock (ClockBSP or ClockWall).
func WriteChromeTraceClock(w io.Writer, tl *Timeline, clock string) error {
	switch clock {
	case "", ClockBSP:
		return writeChromeBSP(w, tl)
	case ClockWall:
		return writeChromeWall(w, tl)
	default:
		return fmt.Errorf("telemetry: unknown trace clock %q (want %q or %q)", clock, ClockBSP, ClockWall)
	}
}

// chromeHeader emits the process/thread metadata events shared by both
// clock modes.
func chromeHeader(tl *Timeline, label string) []chromeEvent {
	events := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: chromePID,
		Args: map[string]any{"name": label},
	}}
	seenRank := map[int]bool{}
	for i := range tl.Samples {
		r := tl.Samples[i].Rank
		if !seenRank[r] {
			seenRank[r] = true
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: chromePID, TID: r,
				Args: map[string]any{"name": fmt.Sprintf("rank %d", r)},
			})
		}
	}
	return events
}

func writeChromeBSP(w io.Writer, tl *Timeline) error {
	events := chromeHeader(tl, "picprk "+tl.Name)

	// clock is the synthetic BSP step-start time in nanoseconds; samples are
	// sorted by (step, rank), so each group of equal-step samples is
	// contiguous.
	var clock int64
	for lo := 0; lo < len(tl.Samples); {
		hi := lo
		for hi < len(tl.Samples) && tl.Samples[hi].Step == tl.Samples[lo].Step {
			hi++
		}
		var slowest int64
		for _, s := range tl.Samples[lo:hi] {
			ts := clock
			for _, p := range trace.Phases() {
				d := s.Phases[p].Nanoseconds()
				if d <= 0 {
					continue
				}
				events = append(events, chromeEvent{
					Name: p.String(), Cat: "phase", Ph: "X",
					PID: chromePID, TID: s.Rank,
					TS: usec(ts), Dur: usec(d),
					Args: map[string]any{"step": s.Step},
				})
				ts += d
			}
			if ts-clock > slowest {
				slowest = ts - clock
			}
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("particles rank %d", s.Rank), Ph: "C",
				PID: chromePID, TS: usec(clock),
				Args: map[string]any{"particles": s.Particles},
			})
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("exchange bytes rank %d", s.Rank), Ph: "C",
				PID: chromePID, TS: usec(clock),
				Args: map[string]any{"bytes": s.ExchangeBytes},
			})
			if s.ExchangeOverlap > 0 {
				events = append(events, chromeEvent{
					Name: fmt.Sprintf("exchange overlap us rank %d", s.Rank), Ph: "C",
					PID: chromePID, TS: usec(clock),
					Args: map[string]any{"overlap_us": usec(s.ExchangeOverlap.Nanoseconds())},
				})
			}
			// Decisions are global (every rank computes the identical plan),
			// so one instant event per step suffices.
			if s.Decision != "" && s.Rank == tl.Samples[lo].Rank {
				events = append(events, chromeEvent{
					Name: s.Decision, Cat: "balance", Ph: "i",
					PID: chromePID, TID: s.Rank, TS: usec(ts), S: "g",
				})
			}
		}
		clock += slowest
		lo = hi
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// writeChromeWall renders the timeline on real wall-clock time: each
// sample's phase spans start at its recorded WallStartNS (offset-corrected
// onto rank 0's clock by the transport), shifted so the earliest sample
// sits at t=0. The engine records WallStartNS monotone per rank, so every
// rank's track is monotone and no span has negative duration — the property
// the CI round-trip job asserts on a 2-rank TCP run.
func writeChromeWall(w io.Writer, tl *Timeline) error {
	var base int64
	stamped := false
	for i := range tl.Samples {
		if ns := tl.Samples[i].WallStartNS; ns != 0 && (!stamped || ns < base) {
			base, stamped = ns, true
		}
	}
	if !stamped {
		return fmt.Errorf("telemetry: timeline has no wall-clock stamps (schema v3 or older, or recorded without sampling); use the bsp clock")
	}

	events := chromeHeader(tl, "picprk "+tl.Name+" (wall clock)")
	lastOffset := map[int]int64{}
	for i := range tl.Samples {
		s := &tl.Samples[i]
		if s.WallStartNS == 0 {
			continue
		}
		start := s.WallStartNS - base
		ts := start
		for _, p := range trace.Phases() {
			d := s.Phases[p].Nanoseconds()
			if d <= 0 {
				continue
			}
			events = append(events, chromeEvent{
				Name: p.String(), Cat: "phase", Ph: "X",
				PID: chromePID, TID: s.Rank,
				TS: usec(ts), Dur: usec(d),
				Args: map[string]any{"step": s.Step},
			})
			ts += d
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("particles rank %d", s.Rank), Ph: "C",
			PID: chromePID, TS: usec(start),
			Args: map[string]any{"particles": s.Particles},
		})
		if s.ExchangeBytes > 0 {
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("exchange bytes rank %d", s.Rank), Ph: "C",
				PID: chromePID, TS: usec(start),
				Args: map[string]any{"bytes": s.ExchangeBytes},
			})
		}
		if s.ClockOffsetNS != lastOffset[s.Rank] {
			lastOffset[s.Rank] = s.ClockOffsetNS
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("clock offset us rank %d", s.Rank), Ph: "C",
				PID: chromePID, TS: usec(start),
				Args: map[string]any{"offset_us": usec(s.ClockOffsetNS)},
			})
		}
		if s.Decision != "" {
			events = append(events, chromeEvent{
				Name: s.Decision, Cat: "balance", Ph: "i",
				PID: chromePID, TID: s.Rank, TS: usec(ts), S: "t",
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
