package wire

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/parres/picprk/internal/comm"
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

	sum := comm.AllreduceScalar(c, int64(r+1), comm.Sum[int64])
	if want := int64(p * (p + 1) / 2); sum != want {
		return fmt.Errorf("allreduce: got %d, want %d", sum, want)
	}

	got := comm.Allgather(c, r*10)
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

	// Split into even/odd ranks and reduce within the subcommunicator.
	sub := c.Split(r%2, r)
	subSum := comm.AllreduceScalar(sub, int64(r), comm.Sum[int64])
	want := int64(0)
	for i := r % 2; i < p; i += 2 {
		want += int64(i)
	}
	if subSum != want {
		return fmt.Errorf("split allreduce: got %d, want %d", subSum, want)
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

	if c.TransportBytes() == 0 {
		return errors.New("wire world shipped 0 transport bytes")
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

// chaosWorkout is the chaos-safe collective chain: under chaos-mode
// delivery delays, only causally self-synchronizing sequences are ordered
// (an Allreduce's reduce phase acks the previous round's bcast; Gather
// carries per-call sequence tags), so this mirrors what the
// drivers actually do — no back-to-back bare Bcasts, no raw send bursts.
func chaosWorkout(c *comm.Comm) error {
	p := c.Size()
	r := c.Rank()
	if !c.OnWire() {
		return errors.New("wire world does not report OnWire")
	}

	// Split first (as Cart2D does at startup), then reduce within.
	sub := c.Split(r%2, r)
	subSum := comm.AllreduceScalar(sub, int64(r), comm.Sum[int64])
	wantSub := int64(0)
	for i := r % 2; i < p; i += 2 {
		wantSub += int64(i)
	}
	if subSum != wantSub {
		return fmt.Errorf("split allreduce: got %d, want %d", subSum, wantSub)
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

	if c.TransportBytes() == 0 {
		return errors.New("wire world shipped 0 transport bytes")
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

// TestWireMultiRankNodes: nodes hosting more than one rank each (the
// picrun -ranks N -spawn M shape) mesh and communicate correctly.
func TestWireMultiRankNodes(t *testing.T) {
	const ranks = 4
	rv, err := StartRendezvous("tcp", DefaultAddr("tcp"), ranks)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, 2)
	joinErrs := make([]error, 2)
	var jwg sync.WaitGroup
	jwg.Add(2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer jwg.Done()
			want := -1
			if i == 0 {
				want = 0
			}
			nodes[i], joinErrs[i] = Join("tcp", rv.Addr(), JoinOptions{Count: 2, WantBase: want})
		}(i)
	}
	jwg.Wait()
	if err := rv.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, jerr := range joinErrs {
		if jerr != nil {
			t.Fatalf("join %d: %v", i, jerr)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	for i, n := range nodes {
		if got := len(n.LocalRanks()); got != 2 {
			t.Fatalf("node %d hosts %d ranks, want 2", i, got)
		}
		w := comm.NewTransportWorld(n)
		go func(i int, w *comm.World) {
			defer wg.Done()
			errs[i] = w.Run(collectiveWorkout)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
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
