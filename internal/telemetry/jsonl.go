package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/parres/picprk/internal/trace"
)

// Schema identifies the timeline wire format. Readers reject any other
// value — the files of earlier versions included — so an incompatible change
// must bump the version, and the CI round-trip job fails on silent drift.
const Schema = "picprk/timeline/v6"

// metaJSON is the first line of a timeline file.
type metaJSON struct {
	Schema  string `json:"schema"`
	Impl    string `json:"impl"`
	Ranks   int    `json:"ranks"`
	Steps   int    `json:"steps"`
	Dropped int    `json:"dropped,omitempty"`
}

// sampleJSON is one sample line. Phase durations travel as a name→nanos
// object keyed by trace.Phase names, so the schema follows the phase list
// without either side hand-maintaining it.
type sampleJSON struct {
	Step       int              `json:"step"`
	Rank       int              `json:"rank"`
	PhaseNS    map[string]int64 `json:"phase_ns"`
	Particles  int              `json:"particles"`
	Migrations int              `json:"migrations,omitempty"`
	Bytes      int64            `json:"bytes,omitempty"`
	XBytes     int64            `json:"exchange_bytes,omitempty"`
	OverlapNS  int64            `json:"exchange_overlap_ns,omitempty"`
	MsgsSent   int              `json:"msgs_sent,omitempty"`
	MsgsElided int              `json:"msgs_elided,omitempty"`
	WallNS     int64            `json:"wall_start_ns,omitempty"`
	OffsetNS   int64            `json:"clock_offset_ns,omitempty"`
	Decision   string           `json:"decision,omitempty"`
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
		e.Rank = *ej.Rank
	}
	return e, nil
}

// sampleLine converts a Sample to its wire form.
func sampleLine(s *Sample) sampleJSON {
	line := sampleJSON{
		Step:       s.Step,
		Rank:       s.Rank,
		PhaseNS:    make(map[string]int64, trace.NumPhases),
		Particles:  s.Particles,
		Migrations: s.Migrations,
		Bytes:      s.Bytes,
		XBytes:     s.ExchangeBytes,
		OverlapNS:  s.ExchangeOverlap.Nanoseconds(),
		MsgsSent:   s.MsgsSent,
		MsgsElided: s.MsgsElided,
		WallNS:     s.WallStartNS,
		OffsetNS:   s.ClockOffsetNS,
		Decision:   s.Decision,
	}
	for _, p := range trace.Phases() {
		line.PhaseNS[p.String()] = s.Phases[p].Nanoseconds()
	}
	return line
}

// lineSample converts a wire-form sample back, validating phase names.
func lineSample(sj *sampleJSON) (Sample, error) {
	s := Sample{
		Step:            sj.Step,
		Rank:            sj.Rank,
		Particles:       sj.Particles,
		Migrations:      sj.Migrations,
		Bytes:           sj.Bytes,
		ExchangeBytes:   sj.XBytes,
		ExchangeOverlap: time.Duration(sj.OverlapNS),
		MsgsSent:        sj.MsgsSent,
		MsgsElided:      sj.MsgsElided,
		WallStartNS:     sj.WallNS,
		ClockOffsetNS:   sj.OffsetNS,
		Decision:        sj.Decision,
	}
	for name, ns := range sj.PhaseNS {
		p, ok := phaseByName(name)
		if !ok {
			return Sample{}, fmt.Errorf("telemetry: unknown phase %q", name)
		}
		s.Phases[p] = time.Duration(ns)
	}
	return s, nil
}

func phaseByName(name string) (trace.Phase, bool) {
	for _, p := range trace.Phases() {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

// MarshalSample renders one sample as a single JSON line (no trailing
// newline) in exactly the v4 per-sample schema — the payload of the live
// /events SSE stream.
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
	meta := metaJSON{Schema: Schema, Impl: tl.Name, Ranks: tl.P, Steps: tl.Steps, Dropped: tl.Dropped}
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
// version and every phase name.
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
	tl := &Timeline{Name: meta.Impl, P: meta.Ranks, Steps: meta.Steps, Dropped: meta.Dropped}
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
