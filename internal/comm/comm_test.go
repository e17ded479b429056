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

// TestRecvTimeout: a receive nobody answers fails the run with a typed
// ErrRecvTimeout naming the rank, the source and tag it waited on, and how
// long it waited.
func TestRecvTimeout(t *testing.T) {
	const after = 200 * time.Millisecond
	w := NewWorld(2, Options{RecvTimeout: after})
	start := time.Now()
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			c.Recv(0, 3)
		}
		return nil
	})
	var rt ErrRecvTimeout
	if !errors.As(err, &rt) {
		t.Fatalf("run error %v (%T) does not wrap an ErrRecvTimeout", err, err)
	}
	if want := (ErrRecvTimeout{Rank: 1, Src: 0, Tag: 3, After: after}); rt != want {
		t.Fatalf("got %+v, want %+v", rt, want)
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
			mx := Allreduce(c, []float64{float64(c.Rank())}, func(a, b float64) float64 { return max(a, b) })[0]
			if mx != float64(p-1) {
				return fmt.Errorf("max %v, want %d", mx, p-1)
			}
			mn := Allreduce(c, []int{c.Rank() + 10}, func(a, b int) int { return min(a, b) })[0]
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
			got := Bcast(c, 0, Gather(c, 0, c.Rank()*c.Rank()))
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

// TestChaosKeepsSendOrder pins the non-overtaking guarantee under chaos
// delays: back-to-back broadcasts reach rank 1 in call order, and a burst of
// same-tag sends arrives in send order, over many chaos seeds.
func TestChaosKeepsSendOrder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		w := NewWorld(2, Options{ChaosDelay: 200 * time.Microsecond, ChaosSeed: seed})
		err := w.Run(func(c *Comm) error {
			if a, b := Bcast(c, 0, 1), Bcast(c, 0, 2); a != 1 || b != 2 {
				return fmt.Errorf("consecutive broadcasts of 1, 2 returned %d, %d", a, b)
			}
			const burst = 8
			for i := 0; i < burst; i++ {
				if c.Rank() == 0 {
					c.Send(1, 7, i)
				} else if v, _ := c.Recv(0, 7); v.(int) != i {
					return fmt.Errorf("send %d of a same-tag burst arrived at position %d", v, i)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
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
