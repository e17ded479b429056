package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Schema identifies the timeline wire format. Readers reject any other
// value — the files of earlier versions included — so an incompatible change
// must bump the version, and the CI round-trip job fails on silent drift.
const Schema = "picprk/timeline/v9"

// metaJSON is the first line of a timeline file.
type metaJSON struct {
	Schema string `json:"schema"`
	Impl   string `json:"impl"`
	Ranks  int    `json:"ranks"`
	Steps  int    `json:"steps"`
}

// sampleJSON is one sample line. Every row of the counter table, the phase
// spans included, travels in one object keyed by the table's names, so the
// schema follows the table without either side hand-maintaining it.
type sampleJSON struct {
	Step     int              `json:"step"`
	Rank     int              `json:"rank"`
	Counters map[string]int64 `json:"counters"`
	WallNS   int64            `json:"wall_start_ns,omitempty"`
	OffsetNS int64            `json:"clock_offset_ns,omitempty"`
	Decision string           `json:"decision,omitempty"`
}

// peerXchgJSON is one per-peer exchange matrix line. The "xchg_rank" key
// doubles as the line discriminator: sample and event lines never carry it.
type peerXchgJSON struct {
	XchgRank *int    `json:"xchg_rank"`
	Bytes    []int64 `json:"xchg_bytes"`
	Msgs     []int64 `json:"xchg_msgs"`
}

// eventJSON is one epoch lifecycle event line. The "event" key doubles as
// the line discriminator: sample lines never carry it.
type eventJSON struct {
	Event  string `json:"event"`
	Step   int    `json:"step,omitempty"`
	Gen    int    `json:"gen,omitempty"`
	Rank   *int   `json:"rank,omitempty"`
	WallNS int64  `json:"wall_ns,omitempty"`
}

func eventLine(e *Event) eventJSON {
	ej := eventJSON{Event: e.Kind, Step: e.Step, Gen: e.Gen, WallNS: e.WallNS}
	if e.Rank >= 0 {
		r := e.Rank
		ej.Rank = &r
	}
	return ej
}

func lineEvent(ej *eventJSON) (Event, error) {
	switch ej.Event {
	case EventCommit, EventRollback, EventReadmit:
	default:
		return Event{}, fmt.Errorf("telemetry: unknown event kind %q", ej.Event)
	}
	e := Event{Kind: ej.Event, Step: ej.Step, Gen: ej.Gen, Rank: -1, WallNS: ej.WallNS}
	if ej.Rank != nil {
		// An absent key is the "no rank" -1; a present one names a rank.
		if *ej.Rank < 0 {
			return Event{}, fmt.Errorf("telemetry: event rank %d", *ej.Rank)
		}
		e.Rank = *ej.Rank
	}
	return e, nil
}

// sampleLine converts a Sample to its wire form.
func sampleLine(s *Sample) sampleJSON {
	line := sampleJSON{
		Step:     s.Step,
		Rank:     s.Rank,
		Counters: make(map[string]int64, NumCounters),
		WallNS:   s.WallStartNS,
		OffsetNS: s.ClockOffsetNS,
		Decision: s.Decision,
	}
	for c := range NumCounters {
		line.Counters[c.String()] = s.Counters[c]
	}
	return line
}

// lineSample converts a wire-form sample back, validating the row names.
func lineSample(sj *sampleJSON) (Sample, error) {
	s := Sample{
		Step:          sj.Step,
		Rank:          sj.Rank,
		WallStartNS:   sj.WallNS,
		ClockOffsetNS: sj.OffsetNS,
		Decision:      sj.Decision,
	}
	for name, v := range sj.Counters {
		c, ok := counterByName(name)
		if !ok {
			return Sample{}, fmt.Errorf("telemetry: unknown counter %q", name)
		}
		s.Counters[c] = v
	}
	return s, nil
}

// MarshalSample renders one sample as a single JSON line (no trailing
// newline), exactly as a timeline file of this Schema carries it — the
// payload of the live /events SSE stream.
func MarshalSample(s *Sample) ([]byte, error) {
	return json.Marshal(sampleLine(s))
}

// UnmarshalSample parses a single sample line produced by MarshalSample or
// found in a timeline file (meta lines are not samples).
func UnmarshalSample(b []byte) (Sample, error) {
	var sj sampleJSON
	if err := json.Unmarshal(b, &sj); err != nil {
		return Sample{}, err
	}
	return lineSample(&sj)
}

// WriteJSONL writes the timeline as JSON Lines: one meta object, the epoch
// lifecycle events (if any) in occurrence order, then one object per sample
// in (step, rank) order.
func WriteJSONL(w io.Writer, tl *Timeline) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	meta := metaJSON{Schema: Schema, Impl: tl.Name, Ranks: tl.P, Steps: tl.Steps}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for i := range tl.Events {
		if err := enc.Encode(eventLine(&tl.Events[i])); err != nil {
			return err
		}
	}
	for i := range tl.PeerXchg {
		px := &tl.PeerXchg[i]
		r := px.Rank
		if err := enc.Encode(peerXchgJSON{XchgRank: &r, Bytes: px.Bytes, Msgs: px.Msgs}); err != nil {
			return err
		}
	}
	for i := range tl.Samples {
		if err := enc.Encode(sampleLine(&tl.Samples[i])); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a timeline written by WriteJSONL, validating the schema
// version and every counter name.
func ReadJSONL(r io.Reader) (*Timeline, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("telemetry: empty timeline")
	}
	var meta metaJSON
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return nil, fmt.Errorf("telemetry: bad meta line: %w", err)
	}
	if meta.Schema != Schema {
		return nil, fmt.Errorf("telemetry: schema %q, this reader understands %q", meta.Schema, Schema)
	}
	tl := &Timeline{Name: meta.Impl, P: meta.Ranks, Steps: meta.Steps}
	for line := 2; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		// Event lines carry the "event" discriminator key, matrix lines
		// "xchg_rank"; everything else is a sample.
		var probe struct {
			Event    string `json:"event"`
			XchgRank *int   `json:"xchg_rank"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		if probe.Event != "" {
			var ej eventJSON
			if err := json.Unmarshal(sc.Bytes(), &ej); err != nil {
				return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
			}
			e, err := lineEvent(&ej)
			if err != nil {
				return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
			}
			tl.Events = append(tl.Events, e)
			continue
		}
		if probe.XchgRank != nil {
			var pj peerXchgJSON
			if err := json.Unmarshal(sc.Bytes(), &pj); err != nil {
				return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
			}
			tl.PeerXchg = append(tl.PeerXchg, PeerXchg{Rank: *pj.XchgRank, Bytes: pj.Bytes, Msgs: pj.Msgs})
			continue
		}
		var sj sampleJSON
		if err := json.Unmarshal(sc.Bytes(), &sj); err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		s, err := lineSample(&sj)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		tl.Samples = append(tl.Samples, s)
	}
	return tl, sc.Err()
}
