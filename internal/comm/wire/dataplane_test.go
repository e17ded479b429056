package wire

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/pup"
)

// testShard builds an n-particle exchange shard whose every field is a
// function of (salt, i), so two shards with different salts differ in every
// byte position that matters and a damaged one is detectable.
func testShard(n int, salt float64) *core.SoA {
	c := &core.SoA{
		X: make([]float64, n), Y: make([]float64, n),
		VX: make([]float64, n), VY: make([]float64, n),
		Q: make([]float64, n), Meta: make([]core.SoAMeta, n),
	}
	stamp(c, salt)
	return c
}

// stamp overwrites every field of c in place as testShard(c.Len(), salt)
// would have it.
func stamp(c *core.SoA, salt float64) {
	for i := range c.X {
		f := salt + float64(i)
		c.X[i], c.Y[i], c.VX[i], c.VY[i], c.Q[i] = f, -f, f/3, f*7, 1/f
		c.Meta[i] = core.SoAMeta{ID: uint64(i) + uint64(salt), X0: f / 2, Y0: -f / 2,
			K: int32(i), M: -int32(i), Dir: int32(salt), Born: int32(i) % 7}
	}
}

func sameShard(a, b *core.SoA) bool {
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
// against the reader loop's buffer reuse: every frame of a connection
// passes through one bufio buffer (a small shard whole, a large one's
// leading bytes) and small fields through the decoder's one scratch, so a
// decoded shard that aliased either would be overwritten by the next
// frame. A large shard, then a small one, then a large one again travel
// back to back over one connection; each must be intact after all have
// arrived. It runs under -race in CI, where an aliasing decoder is also a
// data race between the reader goroutine and the receiving rank.
func TestWireReaderBufferNoAlias(t *testing.T) {
	shards := []*core.SoA{testShard(5000, 1e3), testShard(40, 2e6), testShard(3000, 3e9)}
	for i, err := range runCluster(t, "tcp", 2, comm.Options{}, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			for _, s := range shards {
				c.Send(1, 7, s)
			}
			return nil
		}
		got := make([]*core.SoA, len(shards))
		for i := range shards {
			v, _ := c.Recv(0, 7)
			got[i] = v.(*core.SoA)
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

// TestShipColumnsAllocs pins the zero-copy data plane: on a warmed loopback
// world, a message carrying a ~1 MB shard costs one payload-sized
// allocation — the decoded shard itself. The sender's columns travel by
// reference (its pooled encoders hold headers and small fields only: they
// stay under 64 KB after shipping the shard) and the reader decodes
// straight from the socket into the new shard, so a payload-sized
// allocation anywhere else (a pack buffer, a frame copy, a read buffer)
// would make every round trip allocate ≥ 2 bytes per payload byte; before
// the in-place encode this measured 3.1. The pin is on the cheapest of the
// round trips because sync.Pool keeps no promise: it loses an encoder put
// on one P and wanted on another, and under the race detector drops a
// quarter of all puts, and each loss re-grows one encoder. AllocsPerRun and
// MemStats are process-global, so the trip is a strict ping-pong: rank 1
// only ever answers, and nothing of one trip can land in the next one's
// measurement. The allocation count may not exceed the 24 per round trip
// the copying data plane made, which recycling each encoder's segment list
// and PUPer with its buffer is what keeps.
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
			if v, _ := c.Recv(1, 7); v.(*core.SoA).Len() != n {
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
		if allocs > 24 {
			return fmt.Errorf("%.0f allocations per round trip, want ≤ 24", allocs)
		}
		for i := 0; i < 4; i++ {
			g := gatherPool.Get().(*pup.Gather)
			segs, _, _ := g.Encode(headerBytes, nil)
			if c := cap(segs[0]); c >= 64<<10 {
				return fmt.Errorf("a pooled encoder's buffer holds %d bytes after shipping the shard; the columns were copied", c)
			}
			gatherPool.Put(g)
		}
		return nil
	}) {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
}

// TestExchangeBorrowEndsAtFence pins the ownership argument the zero-copy
// send path rests on (DESIGN §9): a wire writer reads the sender's shard
// until writev has copied it into the kernel, long after Ship returned, and
// that is safe only because the exchange's two-generation rule already
// keeps a generation untouched until the next call completes — a receiver
// has decoded call k's frame whole before it sends call k+1, and the sender
// hears call k+1 from it before reusing call k's shards. Each rank
// alternates two generations of shards, stamped per call, source and
// destination, overwrites the older generation with garbage the moment the
// next call's Finish returns, and checks every shard it receives against
// its stamp. P=2 on the full ring; P=3 on a sparse schedule (0–1–2, ranks 0
// and 2 never talking) under chaos delays, where every Ship runs late on a
// goroutine of its own.
func TestExchangeBorrowEndsAtFence(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    int
		opts comm.Options
	}{
		{"p2", 2, comm.Options{}},
		{"p3-sparse-chaos", 3, comm.Options{ChaosDelay: 300 * time.Microsecond, ChaosSeed: 11}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, calls = 20000, 12
			for i, err := range runCluster(t, "tcp", tc.p, tc.opts, func(c *comm.Comm) error {
				me, p := c.Rank(), c.Size()
				var peers []int
				for r := max(me-1, 0); r <= min(me+1, p-1); r++ {
					if r != me {
						peers = append(peers, r)
					}
				}
				c.SetExchangeNeighbors(peers, 0)
				salt := func(call, src, dst int) float64 { return float64(1 + call*100 + src*10 + dst) }
				var gens [2][]*core.SoA
				for g := range gens {
					gens[g] = make([]*core.SoA, p)
					for _, d := range peers {
						gens[g][d] = testShard(n, 0)
					}
				}
				want := testShard(n, 0)
				send, recv := make([]*core.SoA, p), make([]*core.SoA, p)
				for k := 0; k < calls; k++ {
					for _, d := range peers {
						stamp(gens[k%2][d], salt(k, me, d))
						send[d] = gens[k%2][d]
					}
					comm.ExchangePtr(c, send, recv)
					if k > 0 {
						for _, d := range peers { // call k-1's generation is free again
							stamp(gens[(k-1)%2][d], -1e9)
						}
					}
					for _, src := range peers {
						if stamp(want, salt(k, src, me)); !sameShard(recv[src], want) {
							return fmt.Errorf("call %d: the shard from rank %d arrived damaged", k, src)
						}
					}
				}
				return nil
			}) {
				if err != nil {
					t.Errorf("node %d: %v", i, err)
				}
			}
		})
	}
}

// BenchmarkShipColumns is the in-package form of the benchmark's
// wire.exchange_mb_per_s: one ExchangePtr round trip per iteration on a P=2
// loopback world, each rank shipping a 100k-particle shard (8 MB framed)
// through encode, socket and decode — over tcp and over unix sockets.
// BenchmarkLoopbackCeiling moves the same bytes with nothing but the socket.
func BenchmarkShipColumns(b *testing.B) {
	for _, network := range []string{"tcp", "unix"} {
		b.Run(network, func(b *testing.B) {
			shard := testShard(100000, 5)
			nodes, err := LoopbackCluster(network, 2)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(shard.FramedBytes())
			b.ReportAllocs()
			errs := make(chan error, len(nodes))
			for _, nd := range nodes {
				go func(nd *Node) {
					errs <- comm.NewTransportWorld(nd).Run(func(c *comm.Comm) error {
						send, recv := make([]*core.SoA, 2), make([]*core.SoA, 2)
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
		})
	}
}

// BenchmarkLoopbackCeiling is the ceiling under BenchmarkShipColumns: per
// iteration the same framed bytes each way over one socket pair, full
// duplex, written from and read into ready buffers — no frames, codec or
// mailbox, only the kernel's copy in and copy out. What ShipColumns takes
// beyond it is the transport's own cost.
func BenchmarkLoopbackCeiling(b *testing.B) {
	for _, network := range []string{"tcp", "unix"} {
		b.Run(network, func(b *testing.B) {
			ln, err := net.Listen(network, DefaultAddr(network))
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			accepted := make(chan net.Conn, 1)
			go func() {
				c, _ := ln.Accept()
				accepted <- c
			}()
			dialed, err := net.Dial(network, ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			ends := [2]net.Conn{dialed, <-accepted}
			if ends[1] == nil {
				b.Fatal("accept failed")
			}
			defer ends[0].Close()
			defer ends[1].Close()
			n := testShard(100000, 5).FramedBytes()
			src := [2][]byte{make([]byte, n), make([]byte, n)}
			dst := [2][]byte{make([]byte, n), make([]byte, n)}
			b.SetBytes(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				wg.Add(4)
				for e := range ends {
					go func(e int) {
						defer wg.Done()
						if _, err := ends[e].Write(src[e]); err != nil {
							b.Error(err)
						}
					}(e)
					go func(e int) {
						defer wg.Done()
						if _, err := io.ReadFull(ends[e], dst[e]); err != nil {
							b.Error(err)
						}
					}(e)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkGatherCutover is the measurement behind pup's gatherMin: 64
// columns of each size, with a small header in front of each, written in
// one writev over loopback tcp either copied into one staging buffer or
// referenced as two segments per column. Referencing wins from the size
// where the per-segment cost falls below the copy it saves.
func BenchmarkGatherCutover(b *testing.B) {
	ln, err := net.Listen("tcp", DefaultAddr("tcp"))
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			_, _ = io.Copy(io.Discard, c)
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	hdr := make([]byte, 48)
	for _, size := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10} {
		cols := make([][]byte, 64)
		for i := range cols {
			cols[i] = make([]byte, size)
		}
		staging := make([]byte, 0, len(cols)*(len(hdr)+size))
		var bufs net.Buffers
		for _, ref := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/%dKB", map[bool]string{false: "copy", true: "ref"}[ref], size>>10), func(b *testing.B) {
				b.SetBytes(int64(len(cols) * (len(hdr) + size)))
				for i := 0; i < b.N; i++ {
					bufs, staging = bufs[:0], staging[:0]
					for _, col := range cols {
						if ref {
							bufs = append(bufs, hdr, col)
						} else {
							staging = append(append(staging, hdr...), col...)
						}
					}
					if !ref {
						bufs = append(bufs, staging)
					}
					w := bufs
					if _, err := w.WriteTo(conn); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
