package comm

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []int{1, 2, 3})
		} else {
			data, src := c.Recv(0, 7)
			got := data.([]int)
			if src != 0 || len(got) != 3 || got[2] != 3 {
				return fmt.Errorf("got %v from %d", got, src)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvOrderPerPair(t *testing.T) {
	w := NewWorld(2)
	const n = 100
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, i)
			}
			return nil
		}
		for i := 0; i < n; i++ {
			data, _ := c.Recv(0, 3)
			if data.(int) != i {
				return fmt.Errorf("out of order: got %v want %d", data, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTagSelectivity(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, "first-tag1")
			c.Send(1, 2, "tag2")
			c.Send(1, 1, "second-tag1")
			return nil
		}
		// Receive tag 2 first even though it arrived between tag-1 messages.
		d2, _ := c.Recv(0, 2)
		d1a, _ := c.Recv(0, 1)
		d1b, _ := c.Recv(0, 1)
		if d2 != "tag2" || d1a != "first-tag1" || d1b != "second-tag1" {
			return fmt.Errorf("got %v %v %v", d2, d1a, d1b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySource(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			c.Send(0, 5, c.Rank())
			return nil
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			data, src := c.Recv(AnySource, 5)
			if data.(int) != src {
				return fmt.Errorf("payload %v from src %d", data, src)
			}
			seen[src] = true
		}
		if len(seen) != 3 {
			return fmt.Errorf("expected 3 distinct sources, saw %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrorAbortsWorld(t *testing.T) {
	w := NewWorld(3, Options{RecvTimeout: 5 * time.Second})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return errors.New("boom")
		}
		// Other ranks block forever; abort must wake them.
		c.Recv(AnySource, 99)
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestPanicIsCaptured(t *testing.T) {
	w := NewWorld(2, Options{RecvTimeout: 5 * time.Second})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			panic("deliberate")
		}
		c.Recv(0, 1)
		return nil
	})
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestRecvTimeout(t *testing.T) {
	w := NewWorld(1, Options{RecvTimeout: 200 * time.Millisecond})
	start := time.Now()
	err := w.Run(func(c *Comm) error {
		c.Recv(0, 1)
		return nil
	})
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout took too long")
	}
}

func testSizes() []int { return []int{1, 2, 3, 4, 5, 7, 8, 16} }

func TestBarrier(t *testing.T) {
	for _, p := range testSizes() {
		var phase atomic.Int64
		w := NewWorld(p)
		err := w.Run(func(c *Comm) error {
			for round := 0; round < 5; round++ {
				phase.Add(1)
				c.Barrier()
				// After the barrier, every rank must have contributed to
				// this round.
				if got := phase.Load(); got < int64((round+1)*p) {
					return fmt.Errorf("p=%d round %d: phase %d < %d", p, round, got, (round+1)*p)
				}
				c.Barrier()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBcast(t *testing.T) {
	for _, p := range testSizes() {
		for root := 0; root < p; root += 3 {
			w := NewWorld(p)
			err := w.Run(func(c *Comm) error {
				var v string
				if c.Rank() == root {
					v = fmt.Sprintf("hello-%d", root)
				}
				got := Bcast(c, root, v)
				if got != fmt.Sprintf("hello-%d", root) {
					return fmt.Errorf("rank %d got %q", c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestAllreduceSumAndMax(t *testing.T) {
	for _, p := range testSizes() {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) error {
			sum := Allreduce(c, []int64{int64(c.Rank()), 1}, Sum[int64])
			wantSum := int64(p*(p-1)) / 2
			if sum[0] != wantSum || sum[1] != int64(p) {
				return fmt.Errorf("sum %v, want [%d %d]", sum, wantSum, p)
			}
			mx := AllreduceScalar(c, float64(c.Rank()), Max[float64])
			if mx != float64(p-1) {
				return fmt.Errorf("max %v, want %d", mx, p-1)
			}
			mn := AllreduceScalar(c, c.Rank()+10, Min[int])
			if mn != 10 {
				return fmt.Errorf("min %v, want 10", mn)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestGatherAllgather(t *testing.T) {
	for _, p := range testSizes() {
		w := NewWorld(p)
		err := w.Run(func(c *Comm) error {
			got := Allgather(c, c.Rank()*c.Rank())
			if len(got) != p {
				return fmt.Errorf("allgather length %d", len(got))
			}
			for i, v := range got {
				if v != i*i {
					return fmt.Errorf("allgather[%d]=%d", i, v)
				}
			}
			g := Gather(c, 0, c.Rank()+1)
			if c.Rank() == 0 {
				for i, v := range g {
					if v != i+1 {
						return fmt.Errorf("gather[%d]=%d", i, v)
					}
				}
			} else if g != nil {
				return fmt.Errorf("non-root gather returned %v", g)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestConsecutiveGathersDoNotMix(t *testing.T) {
	// A non-root rank races through two gathers of different types before
	// the root finishes the first; sequence-numbered tags must keep them
	// apart (regression: the drivers gather particles then stats).
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		for round := 0; round < 50; round++ {
			a := Gather(c, 0, fmt.Sprintf("s-%d-%d", round, c.Rank()))
			b := Gather(c, 0, round*100+c.Rank())
			if c.Rank() == 0 {
				for i := 0; i < 4; i++ {
					if a[i] != fmt.Sprintf("s-%d-%d", round, i) {
						return fmt.Errorf("round %d: string gather got %q", round, a[i])
					}
					if b[i] != round*100+i {
						return fmt.Errorf("round %d: int gather got %d", round, b[i])
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplit(t *testing.T) {
	w := NewWorld(8)
	err := w.Run(func(c *Comm) error {
		// Even/odd split, ordered by descending world rank via key.
		sub := c.Split(c.Rank()%2, -c.Rank())
		if sub.Size() != 4 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		// Highest world rank gets sub-rank 0.
		got := Allgather(sub, c.Rank())
		for i := 1; i < len(got); i++ {
			if got[i] > got[i-1] {
				return fmt.Errorf("expected descending ranks, got %v", got)
			}
		}
		// Collectives on the subcommunicator must not leak across colors.
		sum := AllreduceScalar(sub, c.Rank(), Sum[int])
		want := 0 + 2 + 4 + 6
		if c.Rank()%2 == 1 {
			want = 1 + 3 + 5 + 7
		}
		if sum != want {
			return fmt.Errorf("rank %d sub sum %d want %d", c.Rank(), sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNegativeColor(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		color := c.Rank() % 2
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.Split(color, c.Rank())
		if c.Rank() == 3 {
			if sub != nil {
				return errors.New("negative color should yield nil comm")
			}
			return nil
		}
		if sub == nil {
			return errors.New("unexpected nil comm")
		}
		sub.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCart2D(t *testing.T) {
	px, py := Dims2D(12)
	if px*py != 12 || px < py {
		t.Fatalf("Dims2D(12) = %d,%d", px, py)
	}
	w := NewWorld(12)
	err := w.Run(func(c *Comm) error {
		g := NewCart2D(c, px, py)
		if g.RankOf(g.CX, g.CY) != c.Rank() {
			return fmt.Errorf("roundtrip failed for rank %d", c.Rank())
		}
		cx, cy := g.Coords(c.Rank())
		if cx != g.CX || cy != g.CY {
			return fmt.Errorf("coords mismatch")
		}
		// Row communicator must contain PX ranks with my CY.
		if g.Row.Size() != g.PX || g.Col.Size() != g.PY {
			return fmt.Errorf("row/col sizes %d/%d", g.Row.Size(), g.Col.Size())
		}
		// Periodic wrap.
		if g.RankOf(-1, g.CY) != g.RankOf(g.PX-1, g.CY) {
			return fmt.Errorf("periodic wrap broken")
		}
		// Sum of CX along a row is 0+1+..+PX-1.
		s := AllreduceScalar(g.Row, g.CX, Sum[int])
		if s != g.PX*(g.PX-1)/2 {
			return fmt.Errorf("row sum %d", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDims2D(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {2, 1}, 4: {2, 2}, 6: {3, 2}, 12: {4, 3},
		24: {6, 4}, 36: {6, 6}, 48: {8, 6}, 7: {7, 1}, 384: {24, 16},
	}
	for p, want := range cases {
		px, py := Dims2D(p)
		if px != want[0] || py != want[1] {
			t.Errorf("Dims2D(%d) = %d,%d want %v", p, px, py, want)
		}
	}
}

func TestChaosDelayStillCorrect(t *testing.T) {
	w := NewWorld(4, Options{ChaosDelay: 2 * time.Millisecond, ChaosSeed: 42})
	err := w.Run(func(c *Comm) error {
		for round := 0; round < 10; round++ {
			v := Allreduce(c, []int{c.Rank(), round}, Sum[int])
			if v[0] != 6 || v[1] != 4*round {
				return fmt.Errorf("round %d: %v", round, v)
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosDeliveriesDrainedBeforeRunReturns pins the in-flight tracking of
// chaos-mode sends: rank 0 fires delayed sends at rank 1 and exits without
// rank 1 receiving them. Every delivery must nonetheless have landed in
// rank 1's inbox by the time Run returns — no delivery goroutine may outlive
// the world.
func TestChaosDeliveriesDrainedBeforeRunReturns(t *testing.T) {
	const n = 50
	w := NewWorld(2, Options{ChaosDelay: 5 * time.Millisecond, ChaosSeed: 7})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 0, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ib := w.inboxes[1]
	ib.mu.Lock()
	got := len(ib.pending)
	ib.mu.Unlock()
	if got != n {
		t.Fatalf("after Run: %d of %d chaos sends delivered to rank 1's inbox", got, n)
	}
}

func BenchmarkPingPong(b *testing.B) {
	w := NewWorld(2, Options{RecvTimeout: -1})
	b.ResetTimer()
	_ = w.Run(func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, i)
				c.Recv(1, 1)
			} else {
				c.Recv(0, 0)
				c.Send(0, 1, i)
			}
		}
		return nil
	})
}

func BenchmarkAllreduce16(b *testing.B) {
	w := NewWorld(16, Options{RecvTimeout: -1})
	b.ResetTimer()
	_ = w.Run(func(c *Comm) error {
		v := []int64{int64(c.Rank())}
		for i := 0; i < b.N; i++ {
			Allreduce(c, v, Sum[int64])
		}
		return nil
	})
}
