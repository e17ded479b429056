package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/parres/picprk/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden export files")

// checkGolden compares got against testdata/<name>, rewriting it under
// -update. The goldens pin the wire formats: a diff here is schema drift
// and must come with a Schema version bump (JSONL) or a deliberate
// trace-format change (Chrome).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\ngot:\n%s\nwant:\n%s\n(if intentional, bump the schema/format and rerun with -update)", name, got, want)
	}
}

func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, fixtureTimeline()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "timeline.golden.jsonl", buf.Bytes())
}

func TestJSONLRoundTrip(t *testing.T) {
	tl := fixtureTimeline()
	tl.Dropped = 4
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl, got) {
		t.Errorf("round trip changed the timeline:\nwrote %+v\nread  %+v", tl, got)
	}
}

func TestReadJSONLRejectsDrift(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"schema":"picprk/timeline/v999","impl":"x","ranks":1,"steps":1}`)); err == nil {
		t.Error("unknown schema version accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	bad := `{"schema":"` + Schema + `","impl":"x","ranks":1,"steps":1}` + "\n" +
		`{"step":1,"rank":0,"phase_ns":{"warp":5},"particles":1}` + "\n"
	if _, err := ReadJSONL(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "warp") {
		t.Errorf("unknown phase name accepted (err=%v)", err)
	}
}

// TestReadJSONLAcceptsLegacy pins what the reader accepts of the legacy
// schemas: nothing. There is one timeline format; a v1–v5 meta line is
// turned away with the error that names the version this reader
// understands, however well-formed the rest of the file is.
func TestReadJSONLAcceptsLegacy(t *testing.T) {
	for v := 1; v <= 5; v++ {
		schema := fmt.Sprintf("picprk/timeline/v%d", v)
		in := `{"schema":"` + schema + `","impl":"x","ranks":1,"steps":1}` + "\n" +
			`{"step":1,"rank":0,"phase_ns":{"compute":5},"particles":1}` + "\n"
		_, err := ReadJSONL(strings.NewReader(in))
		if err == nil {
			t.Fatalf("%s timeline accepted", schema)
		}
		for _, want := range []string{schema, "this reader understands", Schema} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", schema, err, want)
			}
		}
	}
}

// TestMarshalSampleRoundTrip pins the per-sample JSON the /events SSE
// stream carries: identical to a v4 timeline line, and parseable back by
// UnmarshalSample (which is what picstat -follow does).
func TestMarshalSampleRoundTrip(t *testing.T) {
	tl := fixtureTimeline()
	for i := range tl.Samples {
		b, err := MarshalSample(&tl.Samples[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalSample(b)
		if err != nil {
			t.Fatalf("sample %d: %v\njson: %s", i, err, b)
		}
		if !reflect.DeepEqual(got, tl.Samples[i]) {
			t.Errorf("sample %d round trip drifted:\nwrote %+v\nread  %+v", i, tl.Samples[i], got)
		}
	}
	if _, err := UnmarshalSample([]byte(`{"phase_ns":{"warp":5}}`)); err == nil {
		t.Error("unknown phase name accepted")
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTraceClock(&buf, fixtureTimeline(), ClockBSP); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome.golden.json", buf.Bytes())
}

// TestChromeTraceValid asserts the export is valid trace-event JSON of the
// shape Perfetto and chrome://tracing accept: a traceEvents array whose
// events all carry name/ph/pid, duration events a non-negative ts/dur,
// and instant events a scope.
func TestChromeTraceValid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTraceClock(&buf, fixtureTimeline(), ClockBSP); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(top.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	counts := map[string]int{}
	for i, ev := range top.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ev["name"] == "" || ph == "" || ev["pid"] == nil {
			t.Fatalf("event %d missing required fields: %v", i, ev)
		}
		counts[ph]++
		switch ph {
		case "X":
			ts, tsOK := ev["ts"].(float64)
			dur, durOK := ev["dur"].(float64)
			if !tsOK || !durOK || ts < 0 || dur <= 0 {
				t.Fatalf("duration event %d has bad ts/dur: %v", i, ev)
			}
		case "i":
			if s, _ := ev["s"].(string); s == "" {
				t.Fatalf("instant event %d missing scope: %v", i, ev)
			}
		}
	}
	// One duration event per nonzero phase, one instant per decision step,
	// metadata for the process and both rank threads, two counters per
	// sample (particles and exchange bytes) plus one per sample with
	// nonzero exchange overlap (both step-1 samples in the fixture).
	if counts["X"] == 0 || counts["M"] != 3 || counts["i"] != 1 || counts["C"] != 14 {
		t.Errorf("event mix %v", counts)
	}
}

// TestChromeTraceBSPAlignment pins the synthetic clock: all ranks start a
// step at the same ts, and the next step starts after the slowest rank of
// the previous one.
func TestChromeTraceBSPAlignment(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTraceClock(&buf, fixtureTimeline(), ClockBSP); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	stepStart := map[int]float64{}
	for _, ev := range top.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		step := int(ev.Args["step"].(float64))
		first, seen := stepStart[step]
		// The first phase of each rank's step starts at the step boundary;
		// track the minimum ts per step and require both compute events
		// (phase index 0, always first per rank) to share it.
		if ev.Name != trace.Compute.String() {
			continue
		}
		if !seen {
			stepStart[step] = ev.TS
		} else if ev.TS != first {
			t.Errorf("step %d compute events start at %v and %v; ranks must align", step, first, ev.TS)
		}
	}
	// Step 1's slowest rank takes 7ms → step 2 starts at 7000µs.
	if got := stepStart[2]; got != 7000 {
		t.Errorf("step 2 starts at %vµs, want 7000 (slowest rank of step 1)", got)
	}
}

func TestChromeTraceWallGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTraceClock(&buf, fixtureTimeline(), ClockWall); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome_wall.golden.json", buf.Bytes())
}

// TestChromeTraceWallClock pins the wall-clock layout: spans anchor at each
// sample's recorded WallStartNS shifted to a zero base, per-rank timestamps
// are monotone with non-negative durations (the CI round-trip asserts the
// same on a real 2-rank TCP run), and the fixture's 200µs cross-rank skew
// survives into the trace instead of being synthesized away.
func TestChromeTraceWallClock(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTraceClock(&buf, fixtureTimeline(), ClockWall); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	last := map[int]float64{}
	computeStart := map[int]map[int]float64{} // step -> rank -> ts
	for _, ev := range top.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Dur < 0 {
			t.Fatalf("negative duration span: %+v", ev)
		}
		if ev.TS < last[ev.TID] {
			t.Fatalf("rank %d timestamps went backwards: %v after %v", ev.TID, ev.TS, last[ev.TID])
		}
		last[ev.TID] = ev.TS
		if ev.Name == trace.Compute.String() {
			step := int(ev.Args["step"].(float64))
			if computeStart[step] == nil {
				computeStart[step] = map[int]float64{}
			}
			computeStart[step][ev.TID] = ev.TS
		}
	}
	if len(last) != 2 {
		t.Fatalf("spans on %d ranks, want 2", len(last))
	}
	// Rank 0's first step anchors the base (ts 0); rank 1 starts 200µs later.
	if computeStart[1][0] != 0 || computeStart[1][1] != 200 {
		t.Errorf("step 1 starts at rank0=%vµs rank1=%vµs, want 0 and 200 (recorded skew)",
			computeStart[1][0], computeStart[1][1])
	}
	// Step 2 starts at the recorded 10ms boundary, not the BSP 7ms one.
	if computeStart[2][0] != 10000 {
		t.Errorf("step 2 rank 0 starts at %vµs, want 10000 (wall clock, not BSP)", computeStart[2][0])
	}

	// A timeline without wall stamps (pre-v4, or serial runs of older
	// builds) must be refused, pointing at the BSP clock.
	bare := New("x", 1, 1, []Sample{{Step: 1, Rank: 0, Particles: 1}})
	if err := WriteChromeTraceClock(&buf, bare, ClockWall); err == nil {
		t.Error("wall-clock export accepted a timeline with no wall stamps")
	}
	if err := WriteChromeTraceClock(&buf, fixtureTimeline(), "lunar"); err == nil {
		t.Error("unknown clock accepted")
	}
}
