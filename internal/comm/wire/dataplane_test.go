package wire

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
)

// testShard builds an n-particle exchange shard whose every field is a
// function of (salt, i), so two shards with different salts differ in every
// byte position that matters and a damaged one is detectable.
func testShard(n int, salt float64) *core.Columns {
	c := &core.Columns{
		X: make([]float64, n), Y: make([]float64, n),
		VX: make([]float64, n), VY: make([]float64, n),
		Q: make([]float64, n), Meta: make([]core.SoAMeta, n),
	}
	for i := 0; i < n; i++ {
		f := salt + float64(i)
		c.X[i], c.Y[i], c.VX[i], c.VY[i], c.Q[i] = f, -f, f/3, f*7, 1/f
		c.Meta[i] = core.SoAMeta{ID: uint64(i) + uint64(salt), X0: f / 2, Y0: -f / 2,
			K: int32(i), M: -int32(i), Dir: int32(salt), Born: int32(i) % 7}
	}
	return c
}

func sameShard(a, b *core.Columns) bool {
	if a.Len() != b.Len() || len(a.Meta) != len(b.Meta) {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] || a.VX[i] != b.VX[i] ||
			a.VY[i] != b.VY[i] || a.Q[i] != b.Q[i] || a.Meta[i] != b.Meta[i] {
			return false
		}
	}
	return true
}

// TestWireReaderBufferNoAlias pins the decode half of the codec contract
// against the reader loop's buffer reuse: every payload of a connection is
// read into one buffer, so a decoded shard that aliased it would be
// overwritten by the next frame. A large shard, then a small one (which
// lands on the head of the same buffer), then a large one again travel back
// to back over one connection; each must be intact after all have arrived.
// It runs under -race in CI, where an aliasing decoder is also a data race
// between the reader goroutine and the receiving rank.
func TestWireReaderBufferNoAlias(t *testing.T) {
	shards := []*core.Columns{testShard(5000, 1e3), testShard(40, 2e6), testShard(3000, 3e9)}
	for i, err := range runCluster(t, "tcp", 2, comm.Options{}, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			for _, s := range shards {
				c.Send(1, 7, s)
			}
			return nil
		}
		got := make([]*core.Columns, len(shards))
		for i := range shards {
			v, _ := c.Recv(0, 7)
			got[i] = v.(*core.Columns)
		}
		for i := range shards {
			if !sameShard(got[i], shards[i]) {
				return fmt.Errorf("shard %d was damaged by a later frame", i)
			}
		}
		return nil
	}) {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

// TestShipColumnsAllocs pins the single-copy data plane: on a warmed
// loopback world, a message carrying a ~1 MB shard costs one payload-sized
// allocation — the decoded shard itself. The sender encodes into a pooled
// frame buffer and the reader into its own reused buffer, so a second
// payload-sized allocation anywhere (a pack buffer, a frame copy, a
// per-frame read buffer) would make every round trip allocate ≥ 2 bytes per
// payload byte; before the in-place encode this measured 3.1. The pin is on
// the cheapest of the round trips because sync.Pool keeps no promise: it
// loses a buffer put on one P and wanted on another, and under the race
// detector drops a quarter of all puts, and each loss re-grows one frame
// buffer. AllocsPerRun and MemStats are process-global, so the trip is a
// strict ping-pong: rank 1 only ever answers, and nothing of one trip can
// land in the next one's measurement.
func TestShipColumnsAllocs(t *testing.T) {
	const n, runs = 13000, 30
	shard := testShard(n, 5)
	for i, err := range runCluster(t, "tcp", 2, comm.Options{}, func(c *comm.Comm) error {
		if c.Rank() == 1 {
			for i := 0; i < 5+runs+1; i++ { // warm-up + AllocsPerRun's runs+1 calls
				c.Recv(0, 7)
				c.Send(0, 7, shard)
			}
			return nil
		}
		trip := func() {
			c.Send(1, 7, shard)
			if v, _ := c.Recv(1, 7); v.(*core.Columns).Len() != n {
				panic("round trip lost the shard")
			}
		}
		for i := 0; i < 5; i++ { // pooled frame buffers and reader buffers reach size
			trip()
		}
		var before, after runtime.MemStats
		cheapest := ^uint64(0)
		allocs := testing.AllocsPerRun(runs, func() {
			runtime.ReadMemStats(&before)
			trip()
			runtime.ReadMemStats(&after)
			cheapest = min(cheapest, after.TotalAlloc-before.TotalAlloc)
		})
		perByte := float64(cheapest) / float64(2*shard.FramedBytes())
		t.Logf("round trip of 2×%d B: %.0f allocations, cheapest %.2f bytes allocated per payload byte", shard.FramedBytes(), allocs, perByte)
		if perByte > 1.25 {
			return fmt.Errorf("%.2f bytes allocated per payload byte, want ≤ 1.25 (one payload-sized allocation per message)", perByte)
		}
		if allocs > 64 {
			return fmt.Errorf("%.0f allocations per round trip, want a few dozen small ones", allocs)
		}
		return nil
	}) {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

// BenchmarkShipColumns is the in-package form of the benchmark's
// wire.exchange_mb_per_s: one ExchangePtr round trip per iteration on a P=2
// loopback tcp world, each rank shipping a 100k-particle shard (8 MB framed)
// through encode, socket and decode.
func BenchmarkShipColumns(b *testing.B) {
	shard := testShard(100000, 5)
	nodes, err := LoopbackCluster("tcp", 2)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(shard.FramedBytes())
	b.ReportAllocs()
	errs := make(chan error, len(nodes))
	for _, nd := range nodes {
		go func(nd *Node) {
			errs <- comm.NewTransportWorld(nd).Run(func(c *comm.Comm) error {
				send, recv := make([]*core.Columns, 2), make([]*core.Columns, 2)
				send[1-c.Rank()] = shard
				comm.ExchangePtr(c, send, recv) // warm the buffers
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					comm.ExchangePtr(c, send, recv)
				}
				if c.Rank() == 0 {
					b.StopTimer()
				}
				return nil
			})
		}(nd)
	}
	for range nodes {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
}
