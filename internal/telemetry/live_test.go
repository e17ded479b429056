package telemetry

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func observeFixture(l *Live) {
	for _, s := range fixtureTimeline().Samples {
		l.Observe(s)
	}
}

func TestLivePrometheus(t *testing.T) {
	l := NewLive(2)
	observeFixture(l)
	var sb strings.Builder
	l.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"picprk_step 3",
		// Rank 0 compute accumulates 2+2+3 ms.
		`picprk_phase_seconds_total{rank="0",phase="compute"} 0.007`,
		`picprk_phase_seconds_total{rank="1",phase="migrate"} 0.002`,
		// Particle gauges hold the latest step; loads ended balanced.
		`picprk_particles{rank="0"} 200`,
		`picprk_particles{rank="1"} 200`,
		`picprk_migrations_total{rank="0"} 1`,
		`picprk_migrated_bytes_total{rank="1"} 1024`,
		"picprk_imbalance_ratio 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}

func TestLiveIgnoresOutOfRangeRank(t *testing.T) {
	l := NewLive(1)
	l.Observe(Sample{Step: 1, Rank: 5, Counters: [NumCounters]int64{Particles: 10}}) // must not panic
	var sb strings.Builder
	l.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `picprk_particles{rank="0"} 0`) {
		t.Error("out-of-range rank leaked into metrics")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	l := NewLive(2)
	observeFixture(l)
	srv := httptest.NewServer(Handler(l))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "picprk_imbalance_ratio") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}
	code, body = get("/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars: code %d", code)
	}
	code, _ = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/: code %d", code)
	}
}

func TestServe(t *testing.T) {
	l := NewLive(1)
	l.Observe(Sample{Step: 7, Rank: 0, Counters: [NumCounters]int64{Compute: time.Millisecond.Nanoseconds(), Particles: 9}})
	addr, stop, err := Serve("127.0.0.1:0", l)
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "picprk_step 7") {
		t.Errorf("served metrics missing step gauge:\n%s", body)
	}
}

// TestLivePrometheusGolden pins the whole exposition for the fixture: metric
// names, HELP and TYPE lines, label sets, value formats and their order.
func TestLivePrometheusGolden(t *testing.T) {
	l := NewLive(2)
	observeFixture(l)
	var buf bytes.Buffer
	l.WritePrometheus(&buf)
	checkGolden(t, "metrics.golden.txt", buf.Bytes())
}

// wireFixture is a fixed two-node wire report: each node's row for the
// other, one latency histogram with observations in three buckets, and the
// two nodes' clock offsets.
func wireFixture() WireReport {
	var lat LatencyHist
	lat.Counts[0], lat.Counts[3], lat.Counts[LatencyBuckets-1] = 4, 2, 1
	lat.SumNS = 4*800 + 2*6000 + 9e9
	return WireReport{
		Peers: []PeerWire{
			{Node: 0, Peer: 1, FramesSent: 40, FramesRecv: 38, Writes: 12, QueueDepth: 0, QueuePeak: 5},
			{Node: 1, Peer: 0, FramesSent: 38, FramesRecv: 40, Writes: 19, QueueDepth: 2, QueuePeak: 3, OneWay: lat},
		},
		Offsets: map[int]int64{1: -1500, 0: 0},
	}
}

// TestLivePrometheusWireGolden pins the wire families of the exposition —
// names, HELP and TYPE lines, label sets, histogram buckets and offsets —
// for a fixed two-node wire source.
func TestLivePrometheusWireGolden(t *testing.T) {
	l := NewLive(2)
	l.SetWireSource(wireFixture)
	var buf bytes.Buffer
	l.WritePrometheus(&buf)
	checkGolden(t, "metrics_wire.golden.txt", buf.Bytes())
}
