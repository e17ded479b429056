package wire

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/parres/picprk/internal/comm"
)

// Peer-loss detection: the transport must distinguish an orderly shutdown
// (BYE handshake, then EOF) from a process vanishing mid-run (EOF with no
// BYE), and surface the latter as the typed comm.ErrPeerLost from every
// survivor's World.Run — the signal the driver's recovery supervisor keys
// on.

// killRank2 runs a 3-node loopback world in which node 2 severs all its
// connections with no handshake (the in-process analogue of SIGKILL) right
// after a barrier, while the survivors run blocked — something only the loss
// can wake. It returns every node's Run error.
func killRank2(t *testing.T, blocked func(c *comm.Comm)) []error {
	t.Helper()
	nodes, err := LoopbackCluster("tcp", 3)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	for i, n := range nodes {
		w := comm.NewTransportWorld(n, comm.Options{RecvTimeout: 30 * time.Second})
		go func(i int, n *Node, w *comm.World) {
			defer wg.Done()
			errs[i] = w.Run(func(c *comm.Comm) error {
				c.Barrier()
				if c.Rank() == 2 {
					n.Kill()
					return nil
				}
				blocked(c)
				return nil
			})
		}(i, n, w)
	}
	wg.Wait()
	return errs
}

// The two ways a survivor can be stuck when the peer dies: in a receive that
// is never satisfied, and inside a collective (an allreduce that can never
// complete without the dead rank) — which must be woken with the typed loss
// too, not hang until the receive watchdog fires.
func blockedRecv(c *comm.Comm) { c.Recv(comm.AnySource, 5) }
func blockedCollective(c *comm.Comm) {
	comm.AllreduceScalar(c, int64(c.Rank()), comm.Sum[int64])
}

// wantSurvivorsNameRank2 checks that both survivors' runs failed with
// comm.ErrPeerLost naming rank 2.
func wantSurvivorsNameRank2(t *testing.T, errs []error) {
	t.Helper()
	for _, i := range []int{0, 1} {
		var pl comm.ErrPeerLost
		if !errors.As(errs[i], &pl) {
			t.Fatalf("survivor %d: got %v, want a comm.ErrPeerLost", i, errs[i])
		}
		if pl.Rank != 2 {
			t.Errorf("survivor %d: lost rank %d, want 2 (%v)", i, pl.Rank, errs[i])
		}
	}
}

// TestWireKillSurfacesPeerLost: both survivors' runs must fail with
// comm.ErrPeerLost naming rank 2; the killed node's own run must fail too,
// but with a local abort — not a peer loss, since it was the one that died.
func TestWireKillSurfacesPeerLost(t *testing.T) {
	errs := killRank2(t, blockedRecv)
	wantSurvivorsNameRank2(t, errs)
	if errs[2] == nil {
		t.Fatal("killed node's own Run returned nil")
	}
	var pl comm.ErrPeerLost
	if errors.As(errs[2], &pl) {
		t.Errorf("killed node misreported its own death as a peer loss: %v", errs[2])
	}
}

// TestWireKillUnblocksCollective is the blocked-collective form.
func TestWireKillUnblocksCollective(t *testing.T) {
	wantSurvivorsNameRank2(t, killRank2(t, blockedCollective))
}

// TestWireKillNamesVictimEveryTime is the regression test for the missing
// abort frame: the survivor that saw rank 2's EOF used to abort locally and
// tear its sockets down without telling anyone, and the other survivor could
// read that teardown as an EOF-without-BYE and blame the survivor — about
// one run in seven. Each kill is a fresh world, so the loop makes that race
// a near-certain failure while a fixed tree passes every round. Under -race
// it also caught the frame being sent too late: queued after the local
// abort, it lost 4 of 5 000 kills to Finish closing the peer first.
func TestWireKillNamesVictimEveryTime(t *testing.T) {
	const rounds = 50
	for _, form := range []struct {
		name    string
		blocked func(c *comm.Comm)
	}{{"recv", blockedRecv}, {"collective", blockedCollective}} {
		t.Run(form.name, func(t *testing.T) {
			for r := 0; r < rounds; r++ {
				wantSurvivorsNameRank2(t, killRank2(t, form.blocked))
				if t.Failed() {
					t.Fatalf("round %d of %d", r, rounds)
				}
			}
		})
	}
}

// TestWireOrderlyShutdownNoPeerLost: ranks finishing at very different
// times produce BYE-then-EOF on every connection; no rank may mistake the
// expected EOFs for a lost peer. (This is the regression test for reading
// a premature EOF as orderly: the two paths share the readLoop exit and
// are told apart only by whether BYE arrived first.)
func TestWireOrderlyShutdownNoPeerLost(t *testing.T) {
	for _, err := range runCluster(t, "unix", 3, comm.Options{}, func(c *comm.Comm) error {
		c.Barrier()
		// Stagger the exits so fast nodes close their sockets long before
		// slow ones stop reading.
		time.Sleep(time.Duration(c.Rank()) * 30 * time.Millisecond)
		return nil
	}) {
		if err != nil {
			t.Fatalf("orderly shutdown surfaced an error: %v", err)
		}
	}
}
