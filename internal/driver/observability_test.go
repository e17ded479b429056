package driver

import (
	"bufio"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/telemetry"
)

// TestTracedStreamedBitwiseIdentity is the observability acceptance gate:
// switching on the full tracing stack — per-step sampling, the live
// aggregate, a subscribed /events drain, and the wire transport's clock
// sync and latency accounting — must not perturb the simulation. Every
// driver over both socket transports must produce the byte-for-byte final
// state and balance log of its untraced run.
func TestTracedStreamedBitwiseIdentity(t *testing.T) {
	const p = 4
	base := testConfig(t, 16, 800, 14)
	base.Schedule = dist.Schedule{
		{Step: 5, Region: dist.Rect{X0: 2, X1: 10, Y0: 2, Y1: 10}, Inject: 150, M: 1},
	}
	for _, network := range []string{TransportTCP, TransportUnix} {
		for di := range driverMatrix(p, base) {
			plain, traced := base, base
			plain.Transport = network
			traced.Transport = network
			traced.Telemetry = true
			live := telemetry.NewLive(p)
			traced.Live = live
			ch, cancel := live.Stream().Subscribe(64)
			drained := make(chan int)
			go func() {
				n := 0
				for range ch {
					n++
				}
				drained <- n
			}()

			name := fmt.Sprintf("%s over %s", driverMatrix(p, plain)[di].name, network)
			ref, err := driverMatrix(p, plain)[di].fn()
			if err != nil {
				t.Fatalf("%s untraced: %v", name, err)
			}
			got, err := driverMatrix(p, traced)[di].fn()
			cancel()
			streamed := <-drained
			if err != nil {
				t.Fatalf("%s traced: %v", name, err)
			}
			if !got.Verified {
				t.Fatalf("%s traced: not verified", name)
			}
			assertBitwiseEqual(t, ref.Particles, got.Particles, name+" traced")
			if !reflect.DeepEqual(ref.BalanceLog, got.BalanceLog) {
				t.Fatalf("%s: tracing changed the balance log:\nuntraced: %q\ntraced:   %q",
					name, ref.BalanceLog, got.BalanceLog)
			}
			if streamed == 0 {
				t.Fatalf("%s: the /events subscriber saw no samples", name)
			}
			if got.Timeline == nil || len(got.Timeline.Samples) != p*base.Steps {
				t.Fatalf("%s: timeline incomplete", name)
			}
			// Wall stamps must be monotone per rank and offset-aware.
			lastWall := map[int]int64{}
			for _, s := range got.Timeline.Samples {
				if s.WallStartNS == 0 {
					t.Fatalf("%s: sample step %d rank %d has no wall stamp", name, s.Step, s.Rank)
				}
				if s.WallStartNS <= lastWall[s.Rank] {
					t.Fatalf("%s: rank %d wall stamps not monotone at step %d", name, s.Rank, s.Step)
				}
				lastWall[s.Rank] = s.WallStartNS
			}
			if got.Wire == nil {
				t.Fatalf("%s: no wire report on the result", name)
			}
			if lat := got.Wire.MergedLatency(); lat.Count() == 0 {
				t.Fatalf("%s: no wire latency accounting on the result", name)
			}
		}
	}
}

// TestRunWithHTTPTelemetryNoGoroutineLeak pins shutdown hygiene: a full
// engine run over the wire transport with live telemetry, the HTTP
// observability server, and a connected /events client must release every
// goroutine it started — transport read/write loops, resync tickers, HTTP
// handlers, the SSE stream — once the run ends and the server stops.
func TestRunWithHTTPTelemetryNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	const p = 2
	cfg := testConfig(t, 16, 400, 8)
	cfg.Transport = TransportTCP
	cfg.Telemetry = true
	live := telemetry.NewLive(p)
	cfg.Live = live
	addr, stop, err := telemetry.Serve("127.0.0.1:0", live)
	if err != nil {
		t.Fatal(err)
	}

	// A real SSE client, reading the stream for the whole run.
	client := &http.Client{}
	resp, err := client.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan int)
	go func() {
		n := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				n++
			}
		}
		clientDone <- n
	}()

	res, err := NewBaselineEngine(cfg).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || !res.Verified {
		t.Fatal("run did not verify")
	}

	if err := stop(); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-clientDone:
		if n == 0 {
			t.Error("SSE client read no samples during the run")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE client still blocked after server stop")
	}
	resp.Body.Close()
	client.CloseIdleConnections()

	// Goroutines wind down asynchronously (connection teardown, ticker
	// stops); poll with a deadline instead of asserting instantly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
