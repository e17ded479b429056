package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export: the timeline rendered in the JSON format that
// chrome://tracing and Perfetto load directly. Ranks map to threads of one
// process, the counter table's span rows to duration ("X") events, its
// other rows and the clock offset to counter ("C") tracks, and balancer
// decisions to instant ("i") events.
//
// Two clocks are available. The default synthetic bulk-synchronous clock
// lays steps out as if all ranks started each step together and the step
// ended when its slowest rank did — which is how the exchange collective
// actually synchronizes the ranks, makes per-step idle time (imbalance)
// visible as gaps, and is deterministic for golden tests. The wall clock
// (ClockWall) instead anchors every rank's step at its recorded
// WallStartNS — real, offset-corrected timestamps on rank 0's clock — which
// is the view that shows cross-rank skew, wire queueing, and rendezvous
// stalls in a genuine multi-process run. The clocks differ only in where
// each sample's spans start; both emit the same events.

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
	label := "picprk " + tl.Name
	var starts []int64
	switch clock {
	case "", ClockBSP:
		starts = bspStarts(tl)
	case ClockWall:
		var err error
		if starts, err = wallStarts(tl); err != nil {
			return err
		}
		label += " (wall clock)"
	default:
		return fmt.Errorf("telemetry: unknown trace clock %q (want %q or %q)", clock, ClockBSP, ClockWall)
	}

	events := chromeHeader(tl, label)
	// A counter track holds its value until its next event, so a rank's
	// track gets one only when the value changes (from an implicit zero).
	type tracks struct {
		counters [NumCounters]int64
		offset   int64
	}
	last := map[int]*tracks{}
	for i := range tl.Samples {
		s, start := &tl.Samples[i], starts[i]
		if start < 0 {
			continue
		}
		tr := last[s.Rank]
		if tr == nil {
			tr = new(tracks)
			last[s.Rank] = tr
		}
		// The span rows come first in the table, so a sample's spans are laid
		// end to end from its start before any track event.
		ts := start
		for c := range NumCounters {
			v := s.Counters[c]
			if c.Kind() == KindSpan {
				if v > 0 {
					events = append(events, chromeEvent{
						Name: c.String(), Cat: "phase", Ph: "X",
						PID: chromePID, TID: s.Rank,
						TS: usec(ts), Dur: usec(v),
						Args: map[string]any{"step": s.Step},
					})
					ts += v
				}
				continue
			}
			if v != tr.counters[c] {
				tr.counters[c] = v
				events = append(events, chromeEvent{
					Name: fmt.Sprintf("%s rank %d", c, s.Rank), Ph: "C",
					PID: chromePID, TS: usec(start),
					Args: map[string]any{c.String(): v},
				})
			}
		}
		if s.ClockOffsetNS != tr.offset {
			tr.offset = s.ClockOffsetNS
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("clock offset us rank %d", s.Rank), Ph: "C",
				PID: chromePID, TS: usec(start),
				Args: map[string]any{"offset_us": usec(s.ClockOffsetNS)},
			})
		}
		// Decisions are global (every rank computes the identical plan), so
		// the step's first sample carries its one instant event.
		if s.Decision != "" && (i == 0 || tl.Samples[i-1].Step != s.Step) {
			events = append(events, chromeEvent{
				Name: s.Decision, Cat: "balance", Ph: "i",
				PID: chromePID, TID: s.Rank, TS: usec(ts), S: "g",
			})
		}
	}
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// chromeHeader emits the process and per-rank thread metadata events.
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

// bspStarts lays the samples out on the synthetic bulk-synchronous clock:
// every rank starts a step when the previous step's slowest rank finished.
// Samples are sorted by (step, rank), so each step's samples are contiguous.
func bspStarts(tl *Timeline) []int64 {
	starts := make([]int64, len(tl.Samples))
	var clock int64
	for lo := 0; lo < len(tl.Samples); {
		hi, slowest := lo, int64(0)
		for ; hi < len(tl.Samples) && tl.Samples[hi].Step == tl.Samples[lo].Step; hi++ {
			starts[hi] = clock
			slowest = max(slowest, spanSum(&tl.Samples[hi]))
		}
		clock += slowest
		lo = hi
	}
	return starts
}

// wallStarts anchors each sample at its recorded WallStartNS (offset-
// corrected onto rank 0's clock by the transport), shifted so the earliest
// sample sits at t=0; an unstamped sample gets -1 and is left out. The
// engine records WallStartNS monotone per rank, so every rank's track is
// monotone and no span has negative duration — the property the CI
// round-trip job asserts on a 2-rank TCP run.
func wallStarts(tl *Timeline) ([]int64, error) {
	var base int64
	stamped := false
	for i := range tl.Samples {
		if ns := tl.Samples[i].WallStartNS; ns != 0 && (!stamped || ns < base) {
			base, stamped = ns, true
		}
	}
	if !stamped {
		return nil, fmt.Errorf("telemetry: timeline has no wall-clock stamps; use the bsp clock")
	}
	starts := make([]int64, len(tl.Samples))
	for i := range tl.Samples {
		starts[i] = -1
		if ns := tl.Samples[i].WallStartNS; ns != 0 {
			starts[i] = ns - base
		}
	}
	return starts, nil
}
