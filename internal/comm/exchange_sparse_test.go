package comm

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// ringPeers returns the sorted ±1 ring neighbors of rank on a p-ring — the
// canonical narrow sparse schedule (symmetric by construction).
func ringPeers(rank, p int) []int {
	if p <= 1 {
		return []int{}
	}
	if p == 2 {
		return []int{1 - rank}
	}
	a, b := (rank-1+p)%p, (rank+1)%p
	if p == 3 {
		// ±1 covers both other ranks.
		if a > b {
			a, b = b, a
		}
		return []int{a, b}
	}
	if a > b {
		a, b = b, a
	}
	return []int{a, b}
}

// TestExchangePtrSparseSchedule pins the sparse path end to end: with a ±1
// ring schedule installed before any exchange (effective immediately),
// payloads flow only between neighbors, recv entries for non-neighbors are
// nil, and the message counters record |neighbors| sent and P-1-|neighbors|
// elided per call.
func TestExchangePtrSparseSchedule(t *testing.T) {
	const p, rounds = 8, 5
	w := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		peers := ringPeers(c.Rank(), p)
		c.SetExchangeNeighbors(peers, 0)
		var gens [2][]int
		for g := range gens {
			gens[g] = make([]int, p)
		}
		send := make([]*int, p)
		recv := make([]*int, p)
		sent := 0
		for round := 0; round < rounds; round++ {
			buf := gens[round%2]
			for i := range send {
				send[i] = nil
			}
			for _, dst := range peers {
				buf[dst] = round*100 + c.Rank()*10 + dst
				send[dst] = &buf[dst]
			}
			sent += ExchangePtr(c, send, recv)
			for src := 0; src < p; src++ {
				if src == c.Rank() {
					continue
				}
				isPeer := false
				for _, q := range peers {
					if q == src {
						isPeer = true
					}
				}
				if !isPeer {
					if recv[src] != nil {
						return fmt.Errorf("round %d rank %d: payload from non-neighbor %d", round, c.Rank(), src)
					}
					continue
				}
				want := round*100 + src*10 + c.Rank()
				if recv[src] == nil || *recv[src] != want {
					return fmt.Errorf("round %d rank %d: from %d got %v, want %d", round, c.Rank(), src, recv[src], want)
				}
			}
		}
		if want := rounds * len(peers); sent != want {
			return fmt.Errorf("rank %d: sent %d messages, want %d", c.Rank(), sent, want)
		}
		if want := rounds * (p - 1 - len(peers)); rounds*(p-1)-sent != want {
			return fmt.Errorf("rank %d: elided %d messages, want %d", c.Rank(), rounds*(p-1)-sent, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExchangePtrScheduleFence pins the fence semantics: installing a
// schedule after exchanges have completed runs exactly two further
// full-ring calls (counters show P-1 sends, 0 elided) before the sparse
// set takes effect, and during the fence non-neighbor payloads still
// deliver — the window the rehome exchange rides.
func TestExchangePtrScheduleFence(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		send := make([]*int, p)
		recv := make([]*int, p)
		var gens [2][]int
		for g := range gens {
			gens[g] = make([]int, p)
		}
		sent, calls := 0, 0
		full := func(round int) error {
			vals := gens[round%2]
			for dst := 0; dst < p; dst++ {
				vals[dst] = round*100 + c.Rank()*10 + dst
				send[dst] = &vals[dst]
			}
			sent += ExchangePtr(c, send, recv)
			calls++
			for src := 0; src < p; src++ {
				if src == c.Rank() {
					continue
				}
				want := round*100 + src*10 + c.Rank()
				if recv[src] == nil || *recv[src] != want {
					return fmt.Errorf("round %d rank %d: from %d got %v, want %d", round, c.Rank(), src, recv[src], want)
				}
			}
			return nil
		}
		if err := full(0); err != nil { // schedule-free warmup call
			return err
		}
		c.SetExchangeNeighbors(ringPeers(c.Rank(), p), 0)
		// Fence calls 1 and 2: all-to-all payloads must still deliver.
		for round := 1; round <= 2; round++ {
			if err := full(round); err != nil {
				return err
			}
		}
		if elided := calls*(p-1) - sent; sent != 3*(p-1) || elided != 0 {
			return fmt.Errorf("rank %d: during fence sent=%d elided=%d, want %d/0", c.Rank(), sent, elided, 3*(p-1))
		}
		// Call 3: the sparse schedule is active; a non-neighbor payload is
		// now a contract violation, so stage only neighbor payloads.
		peers := ringPeers(c.Rank(), p)
		vals := gens[3%2]
		for i := range send {
			send[i] = nil
		}
		for _, dst := range peers {
			vals[dst] = 300 + c.Rank()*10 + dst
			send[dst] = &vals[dst]
		}
		sent += ExchangePtr(c, send, recv)
		calls++
		for _, src := range peers {
			want := 300 + src*10 + c.Rank()
			if recv[src] == nil || *recv[src] != want {
				return fmt.Errorf("post-fence rank %d: from %d got %v, want %d", c.Rank(), src, recv[src], want)
			}
		}
		if want := 3*(p-1) + len(peers); sent != want {
			return fmt.Errorf("rank %d: sent=%d, want %d", c.Rank(), sent, want)
		}
		if want := p - 1 - len(peers); calls*(p-1)-sent != want {
			return fmt.Errorf("rank %d: elided=%d, want %d", c.Rank(), calls*(p-1)-sent, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExchangePtrRestoredFence pins the fence a fresh communicator is
// asked for — what a rank restored from a checkpoint passes: the first
// fence calls run the full ring, the next the sparse schedule, and the call
// returns the fence it armed. One the communicator could never owe panics.
func TestExchangePtrRestoredFence(t *testing.T) {
	const p = 4
	for fence := 0; fence <= 2; fence++ {
		err := NewWorld(p).Run(func(c *Comm) error {
			peers := ringPeers(c.Rank(), p)
			if got := c.SetExchangeNeighbors(peers, fence); got != fence {
				return fmt.Errorf("fresh communicator armed fence %d, asked for %d", got, fence)
			}
			send := make([]*int, p)
			recv := make([]*int, p)
			for call := 0; call < 3; call++ {
				want := len(peers)
				if call < fence {
					want = p - 1
				}
				if got := ExchangePtr(c, send, recv); got != want {
					return fmt.Errorf("fence %d call %d posted %d messages, want %d", fence, call, got, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	err := NewWorld(2).Run(func(c *Comm) error {
		c.SetExchangeNeighbors([]int{1 - c.Rank()}, 3)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "fence 3 out of range") {
		t.Fatalf("want a fence-range panic, got %v", err)
	}
}

// TestExchangePtrSparseNonNeighborPanics pins the loud-failure contract: a
// non-nil payload for a rank outside the active schedule panics instead of
// silently dropping or deadlocking.
func TestExchangePtrSparseNonNeighborPanics(t *testing.T) {
	const p = 4
	w := NewWorld(p)
	err := w.Run(func(c *Comm) error {
		c.SetExchangeNeighbors(ringPeers(c.Rank(), p), 0)
		send := make([]*int, p)
		recv := make([]*int, p)
		if c.Rank() == 0 {
			v := 7
			send[2] = &v // rank 2 is not a ±1 neighbor of 0 at p=4
		}
		ExchangePtr(c, send, recv)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "outside the neighbor schedule") {
		t.Fatalf("want neighbor-schedule panic, got %v", err)
	}
}

// TestExchangePtrSparseChaosBufferReuse replays the double-buffered
// generation stress under chaos-mode delivery delays with a sparse
// schedule active, including a mid-run schedule change (fence) — under
// -race this proves the restricted ownership-fence argument: no receiver
// reads a generation buffer while its owner refills it, even though
// non-neighbors never synchronize.
func TestExchangePtrSparseChaosBufferReuse(t *testing.T) {
	const rounds = 30
	const p = 6
	w := NewWorld(p, Options{ChaosDelay: 2 * time.Millisecond, ChaosSeed: 17})
	err := w.Run(func(c *Comm) error {
		peers := ringPeers(c.Rank(), p)
		c.SetExchangeNeighbors(peers, 0)
		var gens [2][]int
		for g := range gens {
			gens[g] = make([]int, p)
		}
		send := make([]*int, p)
		recv := make([]*int, p)
		sparse := true
		for round := 0; round < rounds; round++ {
			if round == 15 {
				// Rebalance mid-run: reinstall the same schedule, as a
				// substrate's topology rebuild does — the next two calls
				// fence as full rings.
				c.SetExchangeNeighbors(peers, 0)
			}
			sparse = round < 15 || round >= 17
			buf := gens[round%2]
			for i := range send {
				send[i] = nil
			}
			for dst := 0; dst < p; dst++ {
				if dst == c.Rank() || (round+dst)%3 == 0 {
					continue
				}
				if sparse {
					isPeer := false
					for _, q := range peers {
						if q == dst {
							isPeer = true
						}
					}
					if !isPeer {
						continue
					}
				}
				buf[dst] = round*1000 + c.Rank()*10 + dst
				send[dst] = &buf[dst]
			}
			ExchangePtr(c, send, recv)
			for src := 0; src < p; src++ {
				if src == c.Rank() {
					continue
				}
				expect := (round+c.Rank())%3 != 0
				if sparse {
					isPeer := false
					for _, q := range peers {
						if q == src {
							isPeer = true
						}
					}
					expect = expect && isPeer
				}
				if !expect {
					if recv[src] != nil {
						return fmt.Errorf("round %d rank %d: unexpected payload from %d", round, c.Rank(), src)
					}
					continue
				}
				want := round*1000 + src*10 + c.Rank()
				if recv[src] == nil || *recv[src] != want {
					return fmt.Errorf("round %d rank %d: from %d got %v, want %d", round, c.Rank(), src, recv[src], want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSetExchangeNeighborsValidation pins the misuse panics: unsorted,
// duplicate, out-of-range, and self entries are all rejected.
func TestSetExchangeNeighborsValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		peers []int
	}{
		{"unsorted", []int{2, 1}},
		{"duplicate", []int{1, 1}},
		{"out-of-range", []int{5}},
		{"self", []int{0}},
	} {
		w := NewWorld(3)
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				c.SetExchangeNeighbors(tc.peers, 0)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("%s: want panic, got nil", tc.name)
		}
	}
}
