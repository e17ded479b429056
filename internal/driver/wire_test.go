package driver

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/dist"
)

// driverMatrix returns the four drivers as closures over cfg, the set every
// transport test sweeps.
func driverMatrix(p int, cfg Config) []struct {
	name string
	fn   func() (*Result, error)
} {
	return []struct {
		name string
		fn   func() (*Result, error)
	}{
		{"baseline", func() (*Result, error) { return NewBaselineEngine(cfg).Run(p) }},
		{"diffusion", func() (*Result, error) {
			return must(NewDiffusionEngine(cfg, diffusion.Params{Every: 4, Threshold: 0.05, Width: 1, MinWidth: 2, TwoPhase: true})).Run(p)
		}},
		{"ampi", func() (*Result, error) {
			return must(NewAMPIEngine(p, cfg, AMPIParams{Overdecompose: 4, Every: 6})).Run(p)
		}},
		{"worksteal", func() (*Result, error) {
			return must(NewWorkStealEngine(cfg, WorkStealParams{Overdecompose: 4, Every: 6})).Run(p)
		}},
	}
}

// TestWireTransportBitwiseIdentity is the acceptance gate for the wire
// transport: every driver over loopback sockets — each rank its own wire
// node, every payload serialized, framed, and decoded — must produce the
// byte-for-byte final particle state and BalanceLog of the in-process run,
// and count the same: every non-duration RankStats field and the per-peer
// exchange rows.
func TestWireTransportBitwiseIdentity(t *testing.T) {
	const p = 4
	base := testConfig(t, 16, 900, 20)
	base.Telemetry = true
	base.Schedule = dist.Schedule{
		{Step: 6, Region: dist.Rect{X0: 2, X1: 10, Y0: 2, Y1: 10}, Inject: 200, M: 1},
		{Step: 14, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 16}, Remove: true},
	}
	networks := []string{TransportTCP, TransportUnix}
	for di := range driverMatrix(p, base) {
		for _, network := range networks {
			if network == TransportUnix && di != 0 {
				continue // unix: baseline only; the framing is network-agnostic
			}
			inCfg, wireCfg := base, base
			inCfg.Transport = TransportInproc
			wireCfg.Transport = network
			name := driverMatrix(p, inCfg)[di].name
			ref, err := driverMatrix(p, inCfg)[di].fn()
			if err != nil {
				t.Fatalf("%s in-process: %v", name, err)
			}
			got, err := driverMatrix(p, wireCfg)[di].fn()
			if err != nil {
				t.Fatalf("%s over %s: %v", name, network, err)
			}
			if !got.Verified {
				t.Fatalf("%s over %s: not verified", name, network)
			}
			assertBitwiseEqual(t, ref.Particles, got.Particles, fmt.Sprintf("%s over %s", name, network))
			if !reflect.DeepEqual(ref.BalanceLog, got.BalanceLog) {
				t.Fatalf("%s over %s: balance log diverged:\nin-process: %q\nwire:       %q",
					name, network, ref.BalanceLog, got.BalanceLog)
			}
			assertSameCounts(t, ref, got, name+" over "+network)
		}
	}
}

// TestAllPoliciesChaosWire layers chaos-mode delivery delays on top of the
// socket transport for all four policies: delayed serialization, reordered
// frames, and the chaos-drain shutdown must still yield the exact sequential
// state. This is the wire counterpart of TestAllPoliciesUnderChaos.
func TestAllPoliciesChaosWire(t *testing.T) {
	const p = 4
	cfg := testConfig(t, 16, 800, 16)
	cfg.Transport = TransportTCP
	cfg.Chaos = 300 * time.Microsecond
	cfg.Schedule = dist.Schedule{
		{Step: 5, Region: dist.Rect{X0: 2, X1: 10, Y0: 2, Y1: 10}, Inject: 200, M: 1},
		{Step: 11, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 16}, Remove: true},
	}
	ref := sequentialReference(t, cfg)
	for _, run := range driverMatrix(p, cfg) {
		res, err := run.fn()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if !res.Verified {
			t.Fatalf("%s: not verified", run.name)
		}
		assertBitwiseEqual(t, ref, res.Particles, run.name+"+chaos over tcp")
	}
}

// TestWireTransportTelemetry: the gathered timeline crosses the wire as a
// registered codec; sample content must survive the round trip.
func TestWireTransportTelemetry(t *testing.T) {
	cfg := testConfig(t, 16, 600, 10)
	cfg.Transport = TransportTCP
	cfg.Telemetry = true
	res, err := NewBaselineEngine(cfg).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline == nil {
		t.Fatal("no timeline over the wire")
	}
	if got := len(res.Timeline.Samples); got != 4*cfg.Steps {
		t.Fatalf("timeline has %d samples, want %d", got, 4*cfg.Steps)
	}
	for _, s := range res.Timeline.Samples {
		if s.Step < 1 || s.Step > cfg.Steps || s.Rank < 0 || s.Rank >= 4 {
			t.Fatalf("implausible sample %+v", s)
		}
	}
}

// TestRunWireReportCoversEveryNode: Engine.Run over tcp hosts every node in
// this process, so its Result.Wire merges all of them — every node reports
// a row for each other node of the world (none for itself: it holds no
// connection to itself) and has exchanged frames with both.
func TestRunWireReportCoversEveryNode(t *testing.T) {
	const p = 3
	cfg := testConfig(t, 16, 600, 6)
	cfg.Transport = TransportTCP
	res, err := NewBaselineEngine(cfg).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wire == nil {
		t.Fatal("no wire report")
	}
	var rows []string
	for _, pw := range res.Wire.Peers {
		if pw.FramesSent == 0 || pw.FramesRecv == 0 {
			t.Errorf("node %d sent %d and received %d frames from peer %d", pw.Node, pw.FramesSent, pw.FramesRecv, pw.Peer)
		}
		rows = append(rows, fmt.Sprintf("%d>%d", pw.Node, pw.Peer))
	}
	slices.Sort(rows)
	if got, want := fmt.Sprint(rows), "[0>1 0>2 1>0 1>2 2>0 2>1]"; got != want {
		t.Errorf("peer rows %s, want %s", got, want)
	}
}

// TestTransportValidation pins the config-level transport checks.
func TestTransportValidation(t *testing.T) {
	cfg := testConfig(t, 8, 100, 2)
	cfg.Transport = "carrier-pigeon"
	if _, err := NewBaselineEngine(cfg).Run(2); err == nil {
		t.Fatal("unknown transport accepted")
	}
	cfg.Transport = ""
	t.Setenv("PICPRK_TRANSPORT", "osmosis")
	if got := cfg.ResolveTransport(); got != "osmosis" {
		t.Fatalf("env transport not picked up: %q", got)
	}
	if _, err := NewBaselineEngine(cfg).Run(2); err == nil {
		t.Fatal("unknown env transport accepted")
	}
	cfg.Transport = TransportInproc
	if got := cfg.ResolveTransport(); got != TransportInproc {
		t.Fatalf("explicit transport should beat the environment, got %q", got)
	}
}

// TestDecodedShardsNeverAlias exercises the decoded-shard free list where an
// aliasing bug would show: an exchange-bound input (ring wider than the
// blocks, nearly every particle changes rank every step) over loopback tcp
// with chaos delays, so a peer's next frame is being decoded on the reader
// goroutine while this rank still delivers the last one, and a removal and
// an injection in between, so one connection carries large, then small, then
// large shards through the same recycled buffers. A shard handed back early,
// or decoded into while a cell still copies it, changes the final state or
// trips the race detector (CI runs this under -race); the state must equal
// the in-process run's bit for bit, on both substrates.
func TestDecodedShardsNeverAlias(t *testing.T) {
	const p = 3
	cfg := testConfig(t, 16, 4000, 18)
	cfg.K, cfg.M = 4, 1
	cfg.Chaos = 200 * time.Microsecond
	cfg.Schedule = dist.Schedule{
		{Step: 5, Region: dist.Rect{X0: 0, X1: 16, Y0: 1, Y1: 16}, Remove: true},
		{Step: 11, Region: dist.Rect{X0: 0, X1: 16, Y0: 0, Y1: 16}, Inject: 5000, K: 4, M: 1},
	}
	for _, di := range []int{0, 2} { // baseline (block), ampi (VP)
		inCfg, wireCfg := cfg, cfg
		inCfg.Transport, wireCfg.Transport = TransportInproc, TransportTCP
		name := driverMatrix(p, cfg)[di].name
		ref, err := driverMatrix(p, inCfg)[di].fn()
		if err != nil {
			t.Fatalf("%s in-process: %v", name, err)
		}
		got, err := driverMatrix(p, wireCfg)[di].fn()
		if err != nil {
			t.Fatalf("%s over tcp: %v", name, err)
		}
		if !got.Verified || got.FinalParticles != ref.FinalParticles {
			t.Fatalf("%s over tcp: verified %v, %d particles, in-process %d", name, got.Verified, got.FinalParticles, ref.FinalParticles)
		}
		assertBitwiseEqual(t, ref.Particles, got.Particles, name+" over tcp with recycled shards")
	}
}
