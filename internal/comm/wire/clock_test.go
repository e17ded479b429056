package wire

import (
	"testing"
	"time"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/telemetry"
)

// TestObserveClockSample pins the NTP arithmetic: offset comes out as
// ((t2-t1)+(t3-t4))/2, the minimum-RTT sample wins, and corrupt samples
// (negative RTT) are discarded.
func TestObserveClockSample(t *testing.T) {
	n := &Node{}
	// Symmetric 1ms each way, remote clock 5ms ahead: t1=0, t2=6ms, t3=6ms,
	// t4=2ms → rtt 2ms, offset 5ms.
	ms := int64(time.Millisecond)
	n.observeClockSample(0, 6*ms, 6*ms, 2*ms)
	if got := n.ClockOffsetNS(); got != 5*ms {
		t.Fatalf("offset %d, want %d", got, 5*ms)
	}
	// A higher-RTT sample must not displace the estimate even with a wildly
	// different offset.
	n.observeClockSample(0, 106*ms, 106*ms, 12*ms)
	if got := n.ClockOffsetNS(); got != 5*ms {
		t.Fatalf("higher-RTT sample replaced the estimate: offset %d", got)
	}
	// A lower-RTT sample refines it.
	n.observeClockSample(0, 5*ms+ms/2, 5*ms+ms/2, ms)
	if got := n.ClockOffsetNS(); got != 5*ms {
		t.Fatalf("refined offset %d, want %d", got, 5*ms)
	}
	// Negative RTT (clock stepped mid-exchange) is discarded.
	n.observeClockSample(10*ms, 0, 0, 0)
	if got := n.ClockOffsetNS(); got != 5*ms {
		t.Fatalf("negative-RTT sample accepted: offset %d", got)
	}
	if n.WallClockNS() == 0 {
		t.Fatal("wall clock reads zero")
	}
}

// TestClusterClockSyncAndWireReport: after a real loopback bootstrap every
// non-zero node has taken clock samples (offset may legitimately be ~0 on
// one machine, but the RTT record proves the rounds ran), and after traffic
// the wire report carries frame counts and one-way latency observations.
func TestClusterClockSyncAndWireReport(t *testing.T) {
	const p = 3
	nodes, err := LoopbackCluster("tcp", p)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		n.clockMu.Lock()
		rtt := n.clockRTT
		n.clockMu.Unlock()
		if i == 0 {
			if off := n.ClockOffsetNS(); off != 0 {
				t.Errorf("node 0 offset %d, want 0 (it defines the reference clock)", off)
			}
		} else if rtt == 0 {
			t.Errorf("node %d has no clock sample after bootstrap", i)
		}
	}

	errs := make(chan error, p)
	for _, n := range nodes {
		w := comm.NewTransportWorld(n, comm.Options{})
		go func(w *comm.World) { errs <- w.Run(collectiveWorkout) }(w)
	}
	for i := 0; i < p; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	var merged telemetry.WireReport
	for _, n := range nodes {
		merged.Merge(n.WireReport())
	}
	if len(merged.Offsets) != p {
		t.Fatalf("merged offsets cover %d nodes, want %d", len(merged.Offsets), p)
	}
	lat := merged.MergedLatency()
	if lat.Count() == 0 {
		t.Fatal("no one-way latency observations after a collective workout")
	}
	if lat.Quantile(0.5) > lat.Quantile(0.99) {
		t.Fatalf("p50 %d > p99 %d", lat.Quantile(0.5), lat.Quantile(0.99))
	}
	var sent, recv int64
	for _, pw := range merged.Peers {
		sent += pw.FramesSent
		recv += pw.FramesRecv
		if pw.QueuePeak < 0 || pw.QueueDepth < 0 {
			t.Fatalf("negative queue gauge on %d->%d: %+v", pw.Node, pw.Peer, pw)
		}
	}
	if sent == 0 || recv == 0 {
		t.Fatalf("frame counters empty: sent %d recv %d", sent, recv)
	}
}

// FuzzDecodePong feeds arbitrary bytes to the clock-sync pong decoder, the
// payload a node reads off its connection to node 0 during the handshake and
// on every resync tick: it must never panic, must reject every length but
// 16, and must return what encodePong wrote.
func FuzzDecodePong(f *testing.F) {
	f.Add([]byte{}, int64(0), int64(0))
	f.Add(make([]byte, 15), int64(1), int64(-1))
	f.Add(encodePong(123456789, -987654321), int64(123456789), int64(-987654321))
	f.Add(make([]byte, 17), int64(-1)<<63, int64(1)<<62)
	f.Fuzz(func(t *testing.T, in []byte, a, b int64) {
		if t1, t2, ok := decodePong(encodePong(a, b)); !ok || t1 != a || t2 != b {
			t.Fatalf("encodePong(%d, %d) decodes to (%d, %d, %v)", a, b, t1, t2, ok)
		}
		if _, _, ok := decodePong(in); ok != (len(in) == 16) {
			t.Fatalf("%d-byte payload: ok %v", len(in), ok)
		}
	})
}
