package wire

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/parres/picprk/internal/comm"

	"github.com/parres/picprk/internal/pup"
	"github.com/parres/picprk/internal/telemetry"
)

// The rendezvous is a small listener that assembles a wire world: each
// joining node connects once, announces its mesh address (and, optionally,
// which rank it wants), and blocks until the whole world has arrived — one
// node per rank. The rendezvous assigns the ranks and broadcasts every
// rank's address; the nodes then mesh directly and the rendezvous goes
// away. It is bootstrap-only — no application traffic crosses it.

// ValidNetwork reports whether network names a supported socket transport.
func ValidNetwork(network string) bool {
	return network == "tcp" || network == "unix"
}

func checkNetwork(network string) error {
	if !ValidNetwork(network) {
		return fmt.Errorf("wire: unsupported network %q (want tcp or unix)", network)
	}
	return nil
}

var sockSeq int64

// DefaultAddr returns a loopback listen address for the given network: an
// ephemeral 127.0.0.1 port for tcp, a fresh temp-dir socket path for unix.
func DefaultAddr(network string) string {
	if network == "unix" {
		return filepath.Join(os.TempDir(),
			fmt.Sprintf("picprk-%d-%d.sock", os.Getpid(), atomic.AddInt64(&sockSeq, 1)))
	}
	return "127.0.0.1:0"
}

// helloPayload is what a joiner sends the rendezvous.
type helloPayload struct {
	Want int    // the wanted world rank, -1 for any
	Addr string // the joiner's mesh listener address
}

func (h *helloPayload) pup(p *pup.PUPer) {
	p.Int(&h.Want)
	p.String(&h.Addr)
}

// welcomePayload is the rendezvous's reply: the assigned rank and every
// rank's mesh address, indexed by rank, or an error.
type welcomePayload struct {
	Err   string
	Rank  int
	Addrs []string
}

func (w *welcomePayload) pup(p *pup.PUPer) {
	p.String(&w.Err)
	p.Int(&w.Rank)
	pup.Slice(p, &w.Addrs, 8, (*pup.PUPer).String)
}

// MaxWorldSize is the largest world, in ranks, a rendezvous assembles and a
// node accepts in a welcome. Join sizes its per-rank tables from the welcome,
// so the bound keeps a corrupt one from sizing an allocation.
const MaxWorldSize = 1 << 20

// WelcomeError reports a rendezvous welcome no world can be built from: an
// assigned rank outside the address table, or a table larger than
// MaxWorldSize.
type WelcomeError struct{ Reason string }

func (e *WelcomeError) Error() string { return "wire: malformed welcome: " + e.Reason }

// validate checks the welcome describes a world: 0 ≤ Rank < len(Addrs) ≤
// MaxWorldSize.
func (w *welcomePayload) validate() error {
	if w.Rank < 0 || w.Rank >= len(w.Addrs) || len(w.Addrs) > MaxWorldSize {
		return &WelcomeError{fmt.Sprintf("rank %d of a %d-rank world (at most %d ranks)", w.Rank, len(w.Addrs), MaxWorldSize)}
	}
	return nil
}

func packPayload(fn func(*pup.PUPer)) ([]byte, error) {
	sz := pup.NewSizer()
	fn(sz)
	if err := sz.Err(); err != nil {
		return nil, err
	}
	pk := pup.NewPacker(sz.Size())
	fn(pk)
	return pk.Bytes(), pk.Err()
}

func unpackPayload(b []byte, fn func(*pup.PUPer)) error {
	u := pup.NewUnpacker(b)
	fn(u)
	if err := u.Err(); err != nil {
		return err
	}
	if !u.Done() {
		return errors.New("wire: trailing bytes in handshake payload")
	}
	return nil
}

// Rendezvous is a running bootstrap listener. Start one with
// StartRendezvous, hand its Addr to the joining processes, and check Wait
// once the world is up (or failed to come up).
type Rendezvous struct {
	ln    net.Listener
	errCh chan error
}

// StartRendezvous listens on network/addr (pass DefaultAddr(network) for a
// loopback ephemeral address) and admits worldSize joiners in the
// background, one per rank.
func StartRendezvous(network, addr string, worldSize int) (*Rendezvous, error) {
	if err := checkNetwork(network); err != nil {
		return nil, err
	}
	if worldSize <= 0 || worldSize > MaxWorldSize {
		return nil, fmt.Errorf("wire: world size must be in [1, %d], got %d", MaxWorldSize, worldSize)
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("wire: rendezvous listen: %w", err)
	}
	r := &Rendezvous{ln: ln, errCh: make(chan error, 1)}
	go r.serve(worldSize)
	return r, nil
}

// Addr returns the rendezvous listen address to hand to joiners.
func (r *Rendezvous) Addr() string { return r.ln.Addr().String() }

// Close aborts the bootstrap: the listener stops accepting, and joiners
// already connected are sent an error welcome so their Join returns instead
// of hanging. Wait reports the resulting bootstrap error.
func (r *Rendezvous) Close() error { return r.ln.Close() }

// Wait blocks until every joiner has been welcomed (or the bootstrap
// failed) and returns the bootstrap error.
func (r *Rendezvous) Wait() error { return <-r.errCh }

type joiner struct {
	conn  net.Conn
	hello helloPayload
}

func (r *Rendezvous) serve(worldSize int) {
	var joined []joiner
	defer func() {
		_ = r.ln.Close()
		for _, j := range joined {
			_ = j.conn.Close()
		}
	}()
	fail := func(err error) {
		// Best effort: tell everyone who already joined why the world died.
		if body, perr := packPayload((&welcomePayload{Err: err.Error()}).pup); perr == nil {
			f := frame{typ: frameHello, payload: body}
			b := f.encode(nil)
			for _, j := range joined {
				_, _ = j.conn.Write(b)
			}
		}
		r.errCh <- err
	}

	taken := make([]bool, worldSize)
	for len(joined) < worldSize {
		conn, err := r.ln.Accept()
		if err != nil {
			fail(fmt.Errorf("wire: rendezvous accept: %w", err))
			return
		}
		_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
		f, err := readFrame(conn)
		if err != nil || f.typ != frameHello {
			_ = conn.Close()
			fail(fmt.Errorf("wire: rendezvous handshake: %v (frame type %d)", err, f.typ))
			return
		}
		var h helloPayload
		if err := unpackPayload(f.payload, h.pup); err != nil {
			_ = conn.Close()
			fail(fmt.Errorf("wire: rendezvous hello: %w", err))
			return
		}
		// Admitted first, so the error welcome reaches the joiner whose
		// wanted rank cannot be honoured too.
		joined = append(joined, joiner{conn: conn, hello: h})
		switch w := h.Want; {
		case w < -1 || w >= worldSize:
			fail(fmt.Errorf("wire: joiner wants rank %d, outside [-1, %d)", w, worldSize))
			return
		case w >= 0 && taken[w]:
			fail(fmt.Errorf("wire: wanted rank %d is already taken", w))
			return
		case w >= 0:
			taken[w] = true
		}
	}

	// Every wanted rank is claimed; the rest get the lowest free rank, in
	// arrival order.
	ranks := make([]int, worldSize)
	addrs := make([]string, worldSize)
	free := 0
	for ji, j := range joined {
		r := j.hello.Want
		if r < 0 {
			for taken[free] {
				free++
			}
			r, taken[free] = free, true
		}
		ranks[ji], addrs[r] = r, j.hello.Addr
	}
	for ji, j := range joined {
		body, perr := packPayload((&welcomePayload{Rank: ranks[ji], Addrs: addrs}).pup)
		if perr != nil {
			fail(perr)
			return
		}
		f := frame{typ: frameHello, payload: body}
		if _, werr := j.conn.Write(f.encode(nil)); werr != nil {
			fail(fmt.Errorf("wire: rendezvous welcome: %w", werr))
			return
		}
	}
	r.errCh <- nil
}

// JoinOptions configures one node's entry into a wire world.
type JoinOptions struct {
	// Rank requests a specific world rank; -1 means any (the zero value
	// asks for rank 0). The coordinator claims 0 so rank 0 — and with it
	// result collection — stays in its process.
	Rank int
	// Bind overrides the node's mesh listener address (default: an
	// ephemeral loopback address). Set it to a reachable host:port when
	// joining across machines.
	Bind string
	// Timeout bounds every bootstrap step (rendezvous dial/handshake, mesh
	// dials, mesh accepts); 0 means the default 60s. Tests use short
	// timeouts to turn would-be hangs into clear errors.
	Timeout time.Duration
}

// Join connects to a rendezvous at addr, receives this node's rank and every
// rank's address, meshes with every peer node, and returns the transport.
// It blocks until the whole world has joined and meshed.
func Join(network, addr string, o JoinOptions) (*Node, error) {
	if err := checkNetwork(network); err != nil {
		return nil, err
	}
	timeout := o.Timeout
	if timeout <= 0 {
		timeout = handshakeTimeout
	}
	bind := o.Bind
	if bind == "" {
		bind = DefaultAddr(network)
	}
	ln, err := net.Listen(network, bind)
	if err != nil {
		return nil, fmt.Errorf("wire: mesh listen: %w", err)
	}

	w, err := rendezvousHandshake(network, addr, helloPayload{Want: o.Rank, Addr: ln.Addr().String()}, timeout)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}

	size := len(w.Addrs)
	n := &Node{
		network:    network,
		index:      w.Rank,
		addrs:      w.Addrs,
		ln:         ln,
		peers:      make([]*peer, size),
		hsTimeout:  timeout,
		recvFrames: make([]int64, size),
		latCounts:  make([]int64, size*telemetry.LatencyBuckets),
		latSums:    make([]int64, size),
		resyncStop: make(chan struct{}),
		started:    make(chan struct{}),
		bye:        make(chan struct{}),
		abortedCh:  make(chan struct{}),
	}
	if n.index == 0 {
		n.doneFrom = make([]bool, size)
	}
	if err := n.mesh(); err != nil {
		n.closeAll()
		return nil, err
	}
	return n, nil
}

func rendezvousHandshake(network, addr string, h helloPayload, timeout time.Duration) (*welcomePayload, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial rendezvous %s: %w", addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))
	body, err := packPayload(h.pup)
	if err != nil {
		return nil, err
	}
	f := frame{typ: frameHello, payload: body}
	if _, err := conn.Write(f.encode(nil)); err != nil {
		return nil, fmt.Errorf("wire: send hello: %w", err)
	}
	rf, err := readFrame(conn)
	if err != nil || rf.typ != frameHello {
		return nil, fmt.Errorf("wire: read welcome: %v (frame type %d)", err, rf.typ)
	}
	var w welcomePayload
	if err := unpackPayload(rf.payload, w.pup); err != nil {
		return nil, fmt.Errorf("wire: welcome payload: %w", err)
	}
	if w.Err != "" {
		return nil, errors.New(w.Err)
	}
	if err := w.validate(); err != nil {
		return nil, err
	}
	return &w, nil
}

// mesh builds the full peer mesh, one connection per pair of nodes: dial
// every lower-indexed node, then accept the higher-indexed nodes' dials. A
// rank's messages to itself never reach the transport (comm delivers them
// to its inbox), so no node connects to itself. The dial to node 0
// additionally runs the synchronous clock-sync rounds (see clock.go) while
// the fresh connection still has no reader/writer goroutines, so every node
// leaves the mesh with a first offset estimate.
func (n *Node) mesh() error {
	for j := 0; j < n.index; j++ {
		conn, err := net.DialTimeout(n.network, n.addrs[j], n.hsTimeout)
		if err != nil {
			// The rendezvous admitted this peer but its listener is gone: the
			// process died between bootstrap and mesh. Surface the typed loss
			// so supervisors treat it like a mid-run crash.
			return fmt.Errorf("wire: node %d dial node %d (%s): %v: %w",
				n.index, j, n.addrs[j], err, comm.ErrPeerLost{Rank: j})
		}
		f := frame{typ: frameHello, src: uint32(n.index)}
		_ = conn.SetWriteDeadline(time.Now().Add(n.hsTimeout))
		if _, err := conn.Write(f.encode(nil)); err != nil {
			_ = conn.Close()
			return fmt.Errorf("wire: node %d mesh hello to node %d: %w", n.index, j, err)
		}
		_ = conn.SetWriteDeadline(time.Time{})
		if j == 0 {
			if err := n.syncClockDial(conn); err != nil {
				_ = conn.Close()
				return err
			}
		}
		n.peers[j] = newPeer(conn)
		go n.readLoop(conn, j)
	}
	// Accepts: one from every node above us.
	for k := 0; k < len(n.addrs)-n.index-1; k++ {
		conn, err := n.ln.Accept()
		if err != nil {
			return fmt.Errorf("wire: node %d mesh accept: %w", n.index, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(n.hsTimeout))
		f, err := readFrame(conn)
		if err != nil || f.typ != frameHello {
			_ = conn.Close()
			return fmt.Errorf("wire: node %d mesh accept handshake: %v (frame type %d)", n.index, err, f.typ)
		}
		_ = conn.SetReadDeadline(time.Time{})
		from := int(f.src)
		if from <= n.index || from >= len(n.addrs) || n.peers[from] != nil {
			_ = conn.Close()
			return fmt.Errorf("wire: node %d: unexpected mesh hello from node %d", n.index, from)
		}
		if n.index == 0 {
			if err := answerClockSync(conn, n.index, n.hsTimeout); err != nil {
				_ = conn.Close()
				return fmt.Errorf("wire: node 0 clock sync with node %d: %w", from, err)
			}
		}
		n.peers[from] = newPeer(conn)
		go n.readLoop(conn, from)
	}
	return nil
}
