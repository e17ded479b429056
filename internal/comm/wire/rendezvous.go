package wire

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"github.com/parres/picprk/internal/comm"

	"github.com/parres/picprk/internal/pup"
	"github.com/parres/picprk/internal/telemetry"
)

// The rendezvous is a small listener that assembles a wire world: each
// joining node connects once, announces how many ranks it hosts (and,
// optionally, which base rank it wants), and blocks until enough nodes have
// arrived to cover the world. The rendezvous assigns contiguous rank spans,
// orders the node table by base rank (so node 0 always hosts world rank 0),
// and broadcasts the table; the nodes then mesh directly and the rendezvous
// goes away. It is bootstrap-only — no application traffic crosses it.

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
	Want  int    // desired base rank, -1 for any
	Count int    // ranks hosted
	Addr  string // the joiner's mesh listener address
}

func (h *helloPayload) pup(p *pup.PUPer) {
	p.Int(&h.Want)
	p.Int(&h.Count)
	p.String(&h.Addr)
}

// welcomePayload is the rendezvous's reply: the assigned node index and the
// full node table, or an error.
type welcomePayload struct {
	Err   string
	Index int
	Nodes []NodeInfo
}

func (w *welcomePayload) pup(p *pup.PUPer) {
	p.String(&w.Err)
	p.Int(&w.Index)
	pup.Slice(p, &w.Nodes, func(p *pup.PUPer, e *NodeInfo) {
		p.Int(&e.Base)
		p.Int(&e.Count)
		p.String(&e.Addr)
	})
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
// loopback ephemeral address) and admits joiners in the background until
// their hosted rank counts sum to worldSize.
func StartRendezvous(network, addr string, worldSize int) (*Rendezvous, error) {
	if err := checkNetwork(network); err != nil {
		return nil, err
	}
	if worldSize <= 0 {
		return nil, fmt.Errorf("wire: world size must be positive, got %d", worldSize)
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

	total := 0
	for total < worldSize {
		conn, err := r.ln.Accept()
		if err != nil {
			fail(fmt.Errorf("wire: rendezvous accept: %w", err))
			return
		}
		_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
		f, err := readFrame(conn, nil)
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
		if h.Count <= 0 {
			_ = conn.Close()
			fail(fmt.Errorf("wire: joiner offered %d ranks", h.Count))
			return
		}
		joined = append(joined, joiner{conn: conn, hello: h})
		total += h.Count
	}
	if total != worldSize {
		fail(fmt.Errorf("wire: joined rank counts sum to %d, want exactly %d", total, worldSize))
		return
	}

	bases, err := assignBases(joined, worldSize)
	if err != nil {
		fail(err)
		return
	}
	// Node indices follow base-rank order, so node 0 hosts world rank 0.
	order := make([]int, len(joined))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return bases[order[a]] < bases[order[b]] })
	nodes := make([]NodeInfo, len(joined))
	index := make([]int, len(joined)) // joiner -> node index
	for ni, ji := range order {
		nodes[ni] = NodeInfo{Base: bases[ji], Count: joined[ji].hello.Count, Addr: joined[ji].hello.Addr}
		index[ji] = ni
	}
	for ji, j := range joined {
		body, perr := packPayload((&welcomePayload{Index: index[ji], Nodes: nodes}).pup)
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

// assignBases gives every joiner a contiguous base: explicit wants first,
// then first-fit in arrival order for the rest.
func assignBases(joined []joiner, worldSize int) ([]int, error) {
	used := make([]bool, worldSize)
	bases := make([]int, len(joined))
	claim := func(base, count int) bool {
		if base < 0 || base+count > worldSize {
			return false
		}
		for r := base; r < base+count; r++ {
			if used[r] {
				return false
			}
		}
		for r := base; r < base+count; r++ {
			used[r] = true
		}
		return true
	}
	for i, j := range joined {
		bases[i] = -1
		if j.hello.Want >= 0 {
			if !claim(j.hello.Want, j.hello.Count) {
				return nil, fmt.Errorf("wire: cannot honor requested base rank %d (%d ranks)", j.hello.Want, j.hello.Count)
			}
			bases[i] = j.hello.Want
		}
	}
	for i, j := range joined {
		if bases[i] >= 0 {
			continue
		}
		placed := false
		for base := 0; base+j.hello.Count <= worldSize && !placed; base++ {
			if claim(base, j.hello.Count) {
				bases[i] = base
				placed = true
			}
		}
		if !placed {
			return nil, fmt.Errorf("wire: no contiguous span of %d ranks left", j.hello.Count)
		}
	}
	return bases, nil
}

// JoinOptions configures one node's entry into a wire world.
type JoinOptions struct {
	// Count is the number of world ranks this node hosts (default 1).
	Count int
	// WantBase requests a specific base rank (-1, the default given a zero
	// value of 0 is meaningful, means "any"). The coordinator claims 0 so
	// rank 0 — and with it result collection — stays in its process.
	WantBase int
	// Bind overrides the node's mesh listener address (default: an
	// ephemeral loopback address). Set it to a reachable host:port when
	// joining across machines.
	Bind string
	// Timeout bounds every bootstrap step (rendezvous dial/handshake, mesh
	// dials, mesh accepts); 0 means the default 60s. Tests use short
	// timeouts to turn would-be hangs into clear errors.
	Timeout time.Duration
}

// Join connects to a rendezvous at addr, receives this node's rank span and
// the node table, meshes with every peer node, and returns the transport.
// It blocks until the whole world has joined and meshed.
func Join(network, addr string, o JoinOptions) (*Node, error) {
	if err := checkNetwork(network); err != nil {
		return nil, err
	}
	if o.Count == 0 {
		o.Count = 1
	}
	if o.Count < 0 {
		return nil, fmt.Errorf("wire: node rank count must be positive, got %d", o.Count)
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

	w, err := rendezvousHandshake(network, addr, helloPayload{Want: o.WantBase, Count: o.Count, Addr: ln.Addr().String()}, timeout)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}

	size := 0
	for _, nd := range w.Nodes {
		size += nd.Count
	}
	n := &Node{
		network:    network,
		index:      w.Index,
		size:       size,
		nodes:      w.Nodes,
		owner:      make([]int, size),
		ln:         ln,
		peers:      make([]*peer, len(w.Nodes)),
		sent:       make([]int64, size),
		hsTimeout:  timeout,
		recvFrames: make([]int64, len(w.Nodes)),
		latCounts:  make([]int64, len(w.Nodes)*telemetry.LatencyBuckets),
		latSums:    make([]int64, len(w.Nodes)),
		resyncStop: make(chan struct{}),
		started:    make(chan struct{}),
		bye:        make(chan struct{}),
		abortedCh:  make(chan struct{}),
	}
	for ni, nd := range w.Nodes {
		for r := nd.Base; r < nd.Base+nd.Count; r++ {
			n.owner[r] = ni
		}
	}
	me := w.Nodes[w.Index]
	for r := me.Base; r < me.Base+me.Count; r++ {
		n.local = append(n.local, r)
	}
	if n.index == 0 {
		n.doneFrom = make([]bool, len(w.Nodes))
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
	rf, err := readFrame(conn, nil)
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
	if w.Index < 0 || w.Index >= len(w.Nodes) || len(w.Nodes) == 0 {
		return nil, fmt.Errorf("wire: welcome assigned invalid node index %d of %d", w.Index, len(w.Nodes))
	}
	return &w, nil
}

// mesh builds the full peer mesh: dial every lower-indexed node plus
// ourselves (the self-dial carries co-hosted rank traffic over a real
// socket), then accept the higher-indexed nodes' dials and our own. The
// dial to node 0 additionally runs the synchronous clock-sync rounds (see
// clock.go) while the fresh connection still has no reader/writer
// goroutines, so every node leaves the mesh with a first offset estimate.
func (n *Node) mesh() error {
	for j := 0; j <= n.index; j++ {
		conn, err := net.DialTimeout(n.network, n.nodes[j].Addr, n.hsTimeout)
		if err != nil {
			// The rendezvous admitted this peer but its listener is gone: the
			// process died between bootstrap and mesh. Surface the typed loss
			// so supervisors treat it like a mid-run crash.
			if j != n.index {
				return fmt.Errorf("wire: node %d dial node %d (%s): %v: %w",
					n.index, j, n.nodes[j].Addr, err, comm.ErrPeerLost{Rank: n.nodes[j].Base})
			}
			return fmt.Errorf("wire: node %d dial node %d (%s): %w", n.index, j, n.nodes[j].Addr, err)
		}
		f := frame{typ: frameHello, src: uint32(n.index)}
		_ = conn.SetWriteDeadline(time.Now().Add(n.hsTimeout))
		if _, err := conn.Write(f.encode(nil)); err != nil {
			_ = conn.Close()
			return fmt.Errorf("wire: node %d mesh hello to node %d: %w", n.index, j, err)
		}
		_ = conn.SetWriteDeadline(time.Time{})
		if j == 0 && n.index != 0 {
			if err := n.syncClockDial(conn); err != nil {
				_ = conn.Close()
				return err
			}
		}
		n.peers[j] = newPeer(conn)
		n.conns = append(n.conns, conn)
		go n.readLoop(conn, j)
	}
	// Accepts: one from every node above us, plus our own self-dial.
	for k := 0; k < len(n.nodes)-n.index; k++ {
		conn, err := n.ln.Accept()
		if err != nil {
			return fmt.Errorf("wire: node %d mesh accept: %w", n.index, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(n.hsTimeout))
		f, err := readFrame(conn, nil)
		if err != nil || f.typ != frameHello {
			_ = conn.Close()
			return fmt.Errorf("wire: node %d mesh accept handshake: %v (frame type %d)", n.index, err, f.typ)
		}
		_ = conn.SetReadDeadline(time.Time{})
		from := int(f.src)
		if n.index == 0 && from != 0 {
			if err := answerClockSync(conn, n.index, n.hsTimeout); err != nil {
				_ = conn.Close()
				return fmt.Errorf("wire: node 0 clock sync with node %d: %w", from, err)
			}
		}
		switch {
		case from == n.index:
			// Read end of our own self-dial; the write end is peers[index].
		case from > n.index && from < len(n.nodes) && n.peers[from] == nil:
			n.peers[from] = newPeer(conn)
		default:
			_ = conn.Close()
			return fmt.Errorf("wire: node %d: unexpected mesh hello from node %d", n.index, from)
		}
		n.conns = append(n.conns, conn)
		go n.readLoop(conn, from)
	}
	for j, p := range n.peers {
		if p == nil {
			return fmt.Errorf("wire: node %d: mesh incomplete, no connection to node %d", n.index, j)
		}
	}
	return nil
}
