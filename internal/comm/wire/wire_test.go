package wire

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/pup"
)

// runCluster builds a loopback wire world of p single-rank nodes, runs fn
// on every rank (one World per node, as separate processes would), and
// returns each node's Run error.
func runCluster(t *testing.T, network string, p int, opts comm.Options, fn func(c *comm.Comm) error) []error {
	t.Helper()
	nodes, err := LoopbackCluster(network, p)
	if err != nil {
		t.Fatalf("LoopbackCluster(%s, %d): %v", network, p, err)
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for i, n := range nodes {
		w := comm.NewTransportWorld(n, opts)
		go func(i int, w *comm.World) {
			defer wg.Done()
			errs[i] = w.Run(fn)
		}(i, w)
	}
	wg.Wait()
	return errs
}

// collectiveWorkout drives every collective through a communicator and
// checks the results — shared by the tcp, unix, and chaos tests.
func collectiveWorkout(c *comm.Comm) error {
	p := c.Size()
	r := c.Rank()
	if !c.OnWire() {
		return errors.New("wire world does not report OnWire")
	}
	c.Barrier()

	sum := comm.Allreduce(c, []int64{int64(r + 1)}, comm.Sum[int64])[0]
	if want := int64(p * (p + 1) / 2); sum != want {
		return fmt.Errorf("allreduce: got %d, want %d", sum, want)
	}

	got := comm.Bcast(c, 0, comm.Gather(c, 0, r*10))
	for i, v := range got {
		if v != i*10 {
			return fmt.Errorf("allgather[%d]: got %d, want %d", i, v, i*10)
		}
	}

	s := comm.Bcast(c, 0, map[bool]string{true: "from the root"}[r == 0])
	if s != "from the root" {
		return fmt.Errorf("bcast: got %q", s)
	}

	// Scatter: the root deals every rank its own slice.
	var deal [][]float64
	if r == 0 {
		for i := 0; i < p; i++ {
			deal = append(deal, []float64{float64(i * 100), float64(i*100 + 1)})
		}
	}
	mine := comm.Scatter(c, 0, deal)
	if len(mine) != 2 || mine[0] != float64(r*100) || mine[1] != float64(r*100+1) {
		return fmt.Errorf("scatter: got %v", mine)
	}

	// Gather of slices at the last rank: every rank ships a bucket.
	from := (r - 1 + p) % p
	in := comm.Gather(c, p-1, []int64{int64(r), int64(r) * 2})
	if r == p-1 {
		for src, b := range in {
			if len(b) != 2 || b[0] != int64(src) || b[1] != int64(src)*2 {
				return fmt.Errorf("gather from %d: got %v", src, b)
			}
		}
	}

	// Point-to-point FIFO: a burst to the right neighbor on one tag must
	// arrive in send order.
	const burst = 64
	for i := 0; i < burst; i++ {
		c.Send((r+1)%p, 7, r*burst+i)
	}
	for i := 0; i < burst; i++ {
		v, src := c.Recv(from, 7)
		if v.(int) != from*burst+i || src != from {
			return fmt.Errorf("fifo: got %v from %d at position %d", v, src, i)
		}
	}

	return nil
}

func TestWireCollectivesTCP(t *testing.T) {
	for _, err := range runCluster(t, "tcp", 4, comm.Options{}, collectiveWorkout) {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWireCollectivesUnix(t *testing.T) {
	for _, err := range runCluster(t, "unix", 3, comm.Options{}, collectiveWorkout) {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// chaosWorkout is the collective chain the chaos test runs: repeated
// allreduces and gathers, as the drivers issue them, under delivery delays.
func chaosWorkout(c *comm.Comm) error {
	p := c.Size()
	r := c.Rank()
	if !c.OnWire() {
		return errors.New("wire world does not report OnWire")
	}

	for round := 0; round < 10; round++ {
		v := comm.Allreduce(c, []int{r, round}, comm.Sum[int])
		if v[0] != p*(p-1)/2 || v[1] != p*round {
			return fmt.Errorf("allreduce round %d: %v", round, v)
		}
	}
	for round := 0; round < 5; round++ {
		g := comm.Gather(c, 0, r*100+round)
		if r == 0 {
			for i, v := range g {
				if v != i*100+round {
					return fmt.Errorf("gather round %d [%d]: got %d", round, i, v)
				}
			}
		}
	}
	for round := 0; round < 5; round++ {
		// Slice payloads, a different root each round.
		in := comm.Gather(c, round%p, []int64{int64(r), int64(round)})
		if r != round%p {
			continue
		}
		for src, b := range in {
			if len(b) != 2 || b[0] != int64(src) || b[1] != int64(round) {
				return fmt.Errorf("slice gather round %d from %d: got %v", round, src, b)
			}
		}
	}

	return nil
}

// TestWireChaosCollectives layers chaos-mode delayed deliveries above the
// wire transport; World.Run must drain in-flight chaos sends before the
// shutdown handshake so no frame is lost.
func TestWireChaosCollectives(t *testing.T) {
	opts := comm.Options{ChaosDelay: 300 * time.Microsecond, ChaosSeed: 42}
	for _, err := range runCluster(t, "tcp", 4, opts, chaosWorkout) {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireAbortPropagation: a failing rank must wake every other process's
// blocked receives and surface the abort from each World.Run.
func TestWireAbortPropagation(t *testing.T) {
	errs := runCluster(t, "tcp", 3, comm.Options{}, func(c *comm.Comm) error {
		if c.Rank() == 2 {
			return errors.New("rank 2 gives up")
		}
		c.Recv(comm.AnySource, 99) // never satisfied; must be woken by the abort
		return nil
	})
	for i, err := range errs {
		if err == nil {
			t.Fatalf("node %d did not observe the abort", i)
		}
	}
}

// TestWireForgedSource: a data frame whose source is not the rank at the
// sending end of its connection fails the world, with an error naming both
// ranks, instead of reaching the receiver as a message from the claimed
// rank. Node 1 forges a frame from rank 0 onto its connection to rank 2.
func TestWireForgedSource(t *testing.T) {
	nodes, err := LoopbackCluster("tcp", 3)
	if err != nil {
		t.Fatal(err)
	}
	forged := frame{typ: frameData, src: 0, tag: 5}
	if forged.payload, forged.kind, err = pup.EncodePayload(nil, []int64{7}); err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	for i, n := range nodes {
		w := comm.NewTransportWorld(n, comm.Options{RecvTimeout: 30 * time.Second})
		go func(i int, w *comm.World) {
			defer wg.Done()
			errs[i] = w.Run(func(c *comm.Comm) error {
				if c.Rank() == 1 {
					nodes[1].peers[2].enqueue(forged.encode(nil))
					return nil
				}
				_, src := c.Recv(comm.AnySource, 5)
				return fmt.Errorf("received a forged message as from rank %d", src)
			})
		}(i, w)
	}
	wg.Wait()
	if err := errs[2]; err == nil || !strings.Contains(err.Error(), "rank 0") || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("rank 2: %v, want an error naming the claimed rank 0 and the sending rank 1", err)
	}
}

func TestWireRejectsBadConfig(t *testing.T) {
	if _, err := StartRendezvous("udp", "127.0.0.1:0", 2); err == nil {
		t.Fatal("rendezvous accepted network udp")
	}
	if _, err := StartRendezvous("tcp", "127.0.0.1:0", 0); err == nil {
		t.Fatal("rendezvous accepted world size 0")
	}
	if _, err := Join("udp", "127.0.0.1:1", JoinOptions{}); err == nil {
		t.Fatal("join accepted network udp")
	}
	if _, err := LoopbackCluster("tcp", 0); err == nil {
		t.Fatal("loopback cluster accepted size 0")
	}
}
