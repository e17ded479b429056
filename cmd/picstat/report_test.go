package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/parres/picprk/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden")

// TestReportGolden renders the report for the telemetry package's timeline
// golden. The timeline fixture exercises every section — phase totals,
// a balancing decision and the balance log, the peer matrix and an
// epoch event — so a change to how the report reads the timeline shows here
// as a diff.
func TestReportGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "internal", "telemetry", "testdata", "timeline.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := telemetry.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printReport(&buf, tl, 5, 10)

	path := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/picstat -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report drifted from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
