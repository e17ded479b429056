package wire

import (
	"errors"
	"fmt"
	"net"
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
	return runNodes(nodes, opts, fn)
}

// runNodes runs fn on every node's rank, one World per node, and returns
// each node's Run error.
func runNodes(nodes []*Node, opts comm.Options, fn func(c *comm.Comm) error) []error {
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	wg.Add(len(nodes))
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

// The collective workouts also run a one-node world: a node with no peers
// must bootstrap, run every collective and shut down.
func TestWireCollectivesTCP(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, err := range runCluster(t, "tcp", p, comm.Options{}, collectiveWorkout) {
			if err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
		}
	}
}

func TestWireCollectivesUnix(t *testing.T) {
	for _, p := range []int{1, 3} {
		for _, err := range runCluster(t, "unix", p, comm.Options{}, collectiveWorkout) {
			if err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
		}
	}
}

// TestWireSelfSendStaysLocal: a wire world holds one connection per pair of
// ranks, P(P-1)/2 in all, and none from a node to itself. A message a rank
// sends itself never reaches the transport: it arrives as the sender's own
// slice, not a decoded copy, while the one to its peer crosses the socket.
// Each node's wire report has one row per other node.
func TestWireSelfSendStaysLocal(t *testing.T) {
	for _, network := range []string{"tcp", "unix"} {
		for _, p := range []int{2, 3} {
			nodes, err := LoopbackCluster(network, p)
			if err != nil {
				t.Fatal(err)
			}
			ends := 0
			for i, n := range nodes {
				for j, pe := range n.peers {
					if (pe == nil) != (i == j) {
						t.Errorf("%s P=%d: node %d's connection to node %d: %v", network, p, i, j, pe)
					}
					if pe != nil {
						ends++
					}
				}
			}
			if ends != p*(p-1) {
				t.Errorf("%s P=%d: %d connections, want %d", network, p, ends/2, p*(p-1)/2)
			}
			for i, err := range runNodes(nodes, comm.Options{}, func(c *comm.Comm) error {
				r, next := c.Rank(), (c.Rank()+1)%c.Size()
				mine, theirs := []int64{int64(r)}, []int64{int64(r), 1}
				c.Send(r, 3, mine)
				c.Send(next, 4, theirs)
				self, _ := c.Recv(r, 3)
				if got := self.([]int64); &got[0] != &mine[0] {
					return fmt.Errorf("rank %d received a copy of its own message, not the slice it sent", r)
				}
				prev := (r - 1 + c.Size()) % c.Size()
				peer, _ := c.Recv(prev, 4)
				if got := peer.([]int64); len(got) != 2 || got[0] != int64(prev) || &got[0] == &theirs[0] {
					return fmt.Errorf("rank %d received %v from rank %d", r, got, prev)
				}
				return nil
			}) {
				if err != nil {
					t.Fatalf("%s P=%d node %d: %v", network, p, i, err)
				}
			}
			for i, n := range nodes {
				var rows []string
				for _, pw := range n.WireReport().Peers {
					rows = append(rows, fmt.Sprintf("%d>%d", pw.Node, pw.Peer))
					if pw.Peer == i || pw.FramesSent == 0 {
						t.Errorf("%s P=%d: node %d row %+v", network, p, i, pw)
					}
				}
				if len(rows) != p-1 {
					t.Errorf("%s P=%d: node %d reports rows %v, want %d", network, p, i, rows, p-1)
				}
			}
		}
	}
}

// TestWireMeshDialRefusedNamesPeer: the rendezvous admits node 0, but its
// mesh listener is gone before node 1 dials it. Node 1's Join must return
// the typed loss of rank 0 and tear its half-built mesh down cleanly.
func TestWireMeshDialRefusedNamesPeer(t *testing.T) {
	rv, err := StartRendezvous("tcp", "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	go func() {
		_, _ = rendezvousHandshake("tcp", rv.Addr(), helloPayload{Want: 0, Addr: deadAddr}, 5*time.Second)
	}()
	_, err = Join("tcp", rv.Addr(), JoinOptions{Rank: 1, Timeout: 5 * time.Second})
	var pl comm.ErrPeerLost
	if !errors.As(err, &pl) || pl.Rank != 0 {
		t.Fatalf("join: %v, want a comm.ErrPeerLost naming rank 0", err)
	}
	if err := rv.Wait(); err != nil {
		t.Fatal(err)
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
	errs := runNodes(nodes, comm.Options{RecvTimeout: 30 * time.Second}, func(c *comm.Comm) error {
		if c.Rank() == 1 {
			nodes[1].peers[2].enqueue(forged.encode(nil))
			return nil
		}
		_, src := c.Recv(comm.AnySource, 5)
		return fmt.Errorf("received a forged message as from rank %d", src)
	})
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
