package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/pup"
)

const (
	handshakeTimeout  = 60 * time.Second
	finishTimeout     = 60 * time.Second
	abortFlushTimeout = 2 * time.Second
)

// NodeInfo describes one process of a wire world, as assigned by the
// rendezvous. Nodes are indexed in rank order, so node 0 hosts world rank 0.
type NodeInfo struct {
	Base  int    // first world rank hosted by the node
	Count int    // number of contiguous ranks hosted
	Addr  string // the node's mesh listener address
}

// Node is this process's end of a wire world: a comm.Transport that frames
// messages over one socket per peer node. Build one with Join (or
// LoopbackCluster for tests), then hand it to comm.NewTransportWorld.
//
// Shutdown handshake: when a node's local ranks have all returned, its
// Finish flushes outstanding frames and reports DONE to node 0; node 0
// broadcasts BYE once every node (itself included) is done, and only then do
// nodes close their sockets. Every data frame is therefore on the wire —
// and, because receives block until matched, consumed — before any socket
// closes, so the handshake cannot lose application traffic.
type Node struct {
	network string
	index   int
	size    int
	nodes   []NodeInfo
	owner   []int // world rank -> hosting node index
	local   []int

	ln    net.Listener
	peers []*peer // write side per node index; peers[index] is the self-dial
	conns []net.Conn
	sent  []int64 // framed bytes shipped per world rank (atomic; local only)

	hsTimeout time.Duration // handshake/mesh deadline (JoinOptions.Timeout)

	// Wire accounting (see clock.go): frames received and one-way latency
	// histograms per peer node, all atomic so WireReport can snapshot them
	// while the world runs — and after it shuts down.
	recvFrames []int64
	latCounts  []int64 // [peer node][telemetry.LatencyBuckets], flattened
	latSums    []int64

	// NTP-style clock state (see clock.go): clockOff is the atomic estimate
	// of node 0's clock minus ours; clockRTT (under clockMu) is the round
	// trip of the sample behind it, 0 when no sample has landed yet.
	clockMu    sync.Mutex
	clockRTT   int64
	clockOff   int64
	resyncStop chan struct{}
	resyncOnce sync.Once

	handler     comm.Handler
	started     chan struct{}
	startedOnce sync.Once

	mu        sync.Mutex
	closing   bool
	doneFrom  []bool // node 0 only: which nodes reported DONE
	doneCount int

	bye        chan struct{}
	byeOnce    sync.Once
	abortedCh  chan struct{}
	abortOnce  sync.Once // first local Abort broadcast
	markedOnce sync.Once // abortedCh close (local or remote)
}

// release unblocks readLoops waiting for Start; closeAll uses it so a node
// discarded before Start (mesh failure) does not leak reader goroutines.
func (n *Node) release() {
	n.startedOnce.Do(func() { close(n.started) })
}

// Size implements comm.Transport.
func (n *Node) Size() int { return n.size }

// LocalRanks implements comm.Transport.
func (n *Node) LocalRanks() []int { return append([]int(nil), n.local...) }

// Wired implements comm.Transport: payloads are serialized.
func (n *Node) Wired() bool { return true }

// SentBytes implements comm.Transport.
func (n *Node) SentBytes(src int) int64 {
	if src < 0 || src >= n.size || n.owner[src] != n.index {
		return 0
	}
	return atomic.LoadInt64(&n.sent[src])
}

// Start implements comm.Transport: readers hold delivery until the world's
// handler is registered. Nodes other than 0 also start the clock-resync
// loop here, once a handler exists to own the world's lifetime.
func (n *Node) Start(h comm.Handler) {
	n.handler = h
	if n.index != 0 && len(n.nodes) > 1 {
		go n.resyncLoop()
	}
	n.release()
}

// bufPool recycles data-frame buffers between Ship calls: a frame's bytes
// live from encode until the writer batch containing it is handed to the
// kernel, after which the writer returns the buffer here. Control and
// broadcast frames stay unpooled (one buffer may sit on several peers'
// queues, so no single write completion owns it).
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Ship implements comm.Transport: serialize the payload through the pup
// codec registry and enqueue the frame on the destination node's writer.
// The payload is encoded in place behind a reserved header in one pooled
// buffer and the header back-filled once the length and kind are known, so
// each payload byte is written exactly once on this side of the socket.
// Unlike the in-process substrate, even locally-hosted destinations cross
// the socket (via the self-dial), so a loopback world exercises the exact
// frames a distributed one would.
func (n *Node) Ship(dst int, m comm.Message) {
	fb := bufPool.Get().(*[]byte)
	b, kind, err := pup.EncodePayload((*fb)[:headerBytes], m.Data)
	if err != nil {
		bufPool.Put(fb)
		// Abort instead of panicking: Ship may run on a chaos-delay
		// goroutine, where a panic would crash the process rather than
		// surface through World.Run.
		n.fail(fmt.Errorf("wire: rank %d -> %d (tag %d): %w", m.Src, dst, m.Tag, err))
		return
	}
	f := frame{
		typ: frameData, kind: kind,
		dst: uint32(dst), src: uint32(m.Src),
		ctx: m.Ctx, tag: int64(m.Tag),
		sendNS: n.WallClockNS(),
	}
	f.putHeader(b, len(b)-headerBytes)
	*fb = b
	atomic.AddInt64(&n.sent[m.Src], int64(len(b)))
	n.peers[n.owner[dst]].enqueuePooled(b, fb)
}

// Abort implements comm.Transport: broadcast the failure to every peer so
// their blocked receives wake, and release local Finish waiters. When the
// failure is a peer loss, the lost rank travels in the abort payload so
// nodes not directly watching the dead connection still see the typed
// comm.ErrPeerLost.
func (n *Node) Abort(err error) {
	n.abortOnce.Do(func() {
		lost := -1
		var pl comm.ErrPeerLost
		if errors.As(err, &pl) {
			lost = pl.Rank
		}
		f := frame{typ: frameAbort, src: uint32(n.index), sendNS: n.WallClockNS(), payload: encodeAbort(lost, err.Error())}
		b := f.encode(nil)
		for i, p := range n.peers {
			if i != n.index {
				p.enqueue(b)
			}
		}
	})
	n.markAborted()
}

// fail aborts the world on a transport-level failure (encode/decode error,
// protocol violation, a lost peer): remotely via Abort, then locally through
// the handler. In that order, because fail runs on reader goroutines nobody
// waits for: the local abort wakes the ranks, World.Run returns and Finish
// closes the peers, and an abort frame enqueued after that is dropped — the
// other nodes would read a bare EOF and blame this one. Queued first, the
// frame is on each stream ahead of the EOF that Finish's flush-then-close
// puts behind it.
func (n *Node) fail(err error) {
	n.Abort(err)
	n.handler.RemoteAbort(err)
}

func (n *Node) markAborted() {
	n.markedOnce.Do(func() { close(n.abortedCh) })
}

// Kill abruptly severs every mesh connection with no shutdown handshake —
// no DONE, no BYE, and no abort frame reaches the peers. It is the
// in-process analogue of SIGKILLing the hosting process, used by the chaos
// and recovery tests: peers observe a raw EOF mid-stream and surface
// comm.ErrPeerLost, while the local world aborts so its rank goroutines
// unwind instead of hanging on receives that can never complete.
func (n *Node) Kill() {
	if n.handler != nil {
		n.handler.RemoteAbort(fmt.Errorf("wire: node %d killed", n.index))
	}
	n.markAborted()
	n.closeAll()
}

// remoteAbort is a peer-loss abort reconstructed from the wire: the sender's
// error text, unwrapping to the typed comm.ErrPeerLost it carried.
type remoteAbort struct {
	msg  string
	lost int
}

func (e remoteAbort) Error() string { return e.msg }
func (e remoteAbort) Unwrap() error { return comm.ErrPeerLost{Rank: e.lost} }

// peerLostError converts a broken mesh connection into the typed peer-loss
// error. peerIdx is the node on the far end; its lowest hosted rank names
// the loss. A broken self-dial stream (or an unidentified connection) stays
// a generic failure — it signals local teardown, not a vanished peer.
func (n *Node) peerLostError(peerIdx int, cause error) error {
	if peerIdx < 0 || peerIdx >= len(n.nodes) || peerIdx == n.index {
		return fmt.Errorf("wire: node %d lost a peer connection: %w", n.index, cause)
	}
	return fmt.Errorf("wire: node %d lost node %d (%v): %w",
		n.index, peerIdx, cause, comm.ErrPeerLost{Rank: n.nodes[peerIdx].Base})
}

// Finish implements comm.Transport: run the shutdown handshake (or, when
// aborted, a best-effort flush) and tear the mesh down.
func (n *Node) Finish(aborted bool) error {
	if aborted {
		// Give in-flight abort/data frames a moment to reach the kernel so
		// remote ranks wake promptly, then tear down; remote readers treat
		// the EOF as an abort too, so nothing hangs if the flush times out.
		for _, p := range n.peers {
			_ = p.flush(abortFlushTimeout)
		}
		n.closeAll()
		return nil
	}
	var ferr error
	for _, p := range n.peers {
		if err := p.flush(finishTimeout); err != nil && ferr == nil {
			ferr = err
		}
	}
	if n.index == 0 {
		n.noteDone(0)
	} else {
		f := frame{typ: frameDone, src: uint32(n.index), sendNS: n.WallClockNS()}
		n.peers[0].enqueue(f.encode(nil))
	}
	select {
	case <-n.bye:
		// Echo BYE to every peer before closing. Node 0's broadcast travels
		// on its own sockets only, so without the echo a fast node's close
		// could reach a slow peer before that peer's BYE does — and the slow
		// peer would read the EOF as a lost connection. With the echo, every
		// connection carries a BYE ahead of its EOF (same ordered stream),
		// so whichever frame a reader sees first marks the shutdown. The
		// flush puts the echoes on the wire before the sockets close.
		f := frame{typ: frameBye, src: uint32(n.index), sendNS: n.WallClockNS()}
		b := f.encode(nil)
		for i, p := range n.peers {
			if i != n.index {
				p.enqueue(b)
			}
		}
		for _, p := range n.peers {
			_ = p.flush(abortFlushTimeout)
		}
	case <-n.abortedCh:
	case <-time.After(finishTimeout):
		if ferr == nil {
			ferr = errors.New("wire: timed out waiting for world shutdown")
		}
	}
	n.closeAll()
	return ferr
}

func (n *Node) setClosing() {
	n.mu.Lock()
	n.closing = true
	n.mu.Unlock()
}

// isClosing reports whether socket EOFs are expected rather than failures:
// after the world's BYE, once this node sent or received an abort (the
// peers it told tear down and close in reply; their EOFs name nobody), or
// once closeAll ran.
func (n *Node) isClosing() bool {
	select {
	case <-n.bye:
		return true
	case <-n.abortedCh:
		return true
	default:
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closing
}

func (n *Node) closeAll() {
	n.setClosing()
	n.stopResync()
	n.release()
	if n.ln != nil {
		_ = n.ln.Close()
	}
	for _, p := range n.peers {
		p.close()
	}
	for _, c := range n.conns {
		_ = c.Close()
	}
}

// noteDone records a node's DONE at node 0 and broadcasts BYE once the
// whole world reported in.
func (n *Node) noteDone(nodeIdx int) {
	if n.index != 0 {
		n.fail(fmt.Errorf("wire: node %d received DONE meant for node 0", n.index))
		return
	}
	n.mu.Lock()
	if nodeIdx < 0 || nodeIdx >= len(n.doneFrom) || n.doneFrom[nodeIdx] {
		n.mu.Unlock()
		n.fail(fmt.Errorf("wire: duplicate or invalid DONE from node %d", nodeIdx))
		return
	}
	n.doneFrom[nodeIdx] = true
	n.doneCount++
	ready := n.doneCount == len(n.nodes)
	n.mu.Unlock()
	if ready {
		f := frame{typ: frameBye, src: uint32(n.index), sendNS: n.WallClockNS()}
		b := f.encode(nil)
		for i, p := range n.peers {
			if i != n.index {
				p.enqueue(b)
			}
		}
		n.noteBye()
	}
}

func (n *Node) noteBye() {
	n.byeOnce.Do(func() { close(n.bye) })
}

// readLoop consumes frames from one socket until it breaks or the world
// shuts down. Per-peer frame order is preserved because each peer pair
// shares one ordered stream with a single reader — the wire equivalent of
// the in-process non-overtaking guarantee. peerIdx is the node index on the
// far end of conn (known at both dial and accept time), so a premature EOF
// — the stream breaking without the orderly BYE — is attributed to that
// peer as a typed comm.ErrPeerLost rather than a generic read error.
func (n *Node) readLoop(conn net.Conn, peerIdx int) {
	<-n.started
	// Every payload of this connection lands in buf, which the next frame
	// overwrites: nothing below may retain f.payload past its case, which
	// holds because pup codecs copy out of the body they decode.
	var buf []byte
	for {
		f, err := readFrame(conn, &buf)
		if err != nil {
			if !n.isClosing() {
				// The node that sees a peer die names it to everyone else
				// before its own teardown closes any socket (see fail): the
				// abort frame precedes this node's EOF on each ordered
				// stream, so no survivor is left to infer the victim from
				// whichever connection happened to break first.
				n.fail(n.peerLostError(peerIdx, err))
			}
			return
		}
		switch f.typ {
		case frameData:
			v, derr := pup.DecodePayload(f.kind, f.payload)
			if derr != nil {
				n.fail(fmt.Errorf("wire: node %d: bad data frame: %w", n.index, derr))
				return
			}
			dst := int(f.dst)
			if dst < 0 || dst >= n.size || n.owner[dst] != n.index {
				n.fail(fmt.Errorf("wire: node %d received a frame for rank %d it does not host", n.index, dst))
				return
			}
			src := int(f.src)
			if src < 0 || src >= n.size {
				n.fail(fmt.Errorf("wire: node %d received a frame from invalid rank %d", n.index, src))
				return
			}
			n.recordData(src, f.sendNS)
			n.handler.Incoming(dst, comm.Message{Ctx: f.ctx, Src: src, Tag: int(f.tag), Data: v})
		case frameAbort:
			n.recordControl(int(f.src))
			var aerr error
			if lost, msg, derr := decodeAbort(f.payload); derr == nil && msg != "" {
				if lost >= 0 {
					aerr = remoteAbort{msg: msg, lost: lost}
				} else {
					aerr = errors.New(msg)
				}
			} else {
				aerr = errors.New("wire: remote abort")
			}
			n.handler.RemoteAbort(aerr)
			n.markAborted()
		case frameDone:
			n.recordControl(int(f.src))
			n.noteDone(int(f.src))
		case frameBye:
			n.recordControl(int(f.src))
			n.noteBye()
		case framePing:
			// Resync probe: answer through the writer toward the pinger so
			// the reply shares the mesh's ordered streams.
			from := int(f.src)
			n.recordControl(from)
			if from < 0 || from >= len(n.peers) || n.peers[from] == nil {
				n.fail(fmt.Errorf("wire: node %d: clock ping from unknown node %d", n.index, from))
				return
			}
			t2 := nowNS()
			pong := frame{typ: framePong, src: uint32(n.index), payload: encodePong(f.sendNS, t2), sendNS: nowNS()}
			n.peers[from].enqueue(pong.encode(nil))
		case framePong:
			t4 := nowNS()
			n.recordControl(int(f.src))
			if t1, t2, ok := decodePong(f.payload); ok {
				n.observeClockSample(t1, t2, f.sendNS, t4)
			}
		default:
			n.fail(fmt.Errorf("wire: node %d: unknown frame type %d", n.index, f.typ))
			return
		}
	}
}

// wbuf is one writer-queue entry: the encoded frame, plus the pool slot to
// return it to once the batch containing it has been written (nil for
// control/broadcast frames, whose buffers are shared or caller-owned).
type wbuf struct {
	b      []byte
	pooled *[]byte
}

// peer is the write side of one mesh connection: an unbounded queue drained
// by a dedicated writer goroutine, so Ship never blocks on TCP backpressure
// (comm.Send promises MPI_Isend-with-unbounded-buffer semantics, and a
// blocking Ship could deadlock two nodes sending large volumes head-on).
// Each writer wakeup swaps the whole queue out and hands it to the kernel
// as one vectored write (net.Buffers → writev), so a burst of frames —
// a rank's entire exchange fan-out — costs one syscall, not one per frame.
type peer struct {
	conn net.Conn

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []wbuf
	writing bool
	closed  bool
	err     error
	frames  int64 // frames ever enqueued
	peak    int64 // queue-depth high-water mark
	writes  int64 // vectored writes issued (frames/writes = coalescing factor)
}

func newPeer(conn net.Conn) *peer {
	p := &peer{conn: conn}
	p.cond = sync.NewCond(&p.mu)
	go p.writeLoop()
	return p
}

func (p *peer) enqueue(b []byte) { p.enqueuePooled(b, nil) }

func (p *peer) enqueuePooled(b []byte, pooled *[]byte) {
	p.mu.Lock()
	dropped := p.closed || p.err != nil
	if !dropped {
		p.queue = append(p.queue, wbuf{b: b, pooled: pooled})
		p.frames++
		if d := int64(len(p.queue)); d > p.peak {
			p.peak = d
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	if dropped && pooled != nil {
		bufPool.Put(pooled)
	}
}

// stats snapshots the writer's frame counter and queue gauges.
func (p *peer) stats() (frames, depth, peak, writes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frames, int64(len(p.queue)), p.peak, p.writes
}

// recycleLocked returns every pooled buffer in q to the pool and clears the
// entries. Caller holds p.mu (pool puts are safe under it).
func recycleLocked(q []wbuf) {
	for i := range q {
		if pb := q[i].pooled; pb != nil {
			bufPool.Put(pb)
		}
		q[i] = wbuf{}
	}
}

func (p *peer) writeLoop() {
	var batch []wbuf
	var bufs net.Buffers
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		// Swap the whole queue out: everything enqueued since the last
		// wakeup goes to the kernel as one vectored write. The two slices
		// ping-pong, so the steady state allocates nothing.
		batch, p.queue = p.queue, batch[:0]
		p.writing = true
		p.writes++
		p.mu.Unlock()
		// WriteTo reslices its receiver in place as segments drain, so it
		// gets a scratch copy of the refs; batch keeps the originals for
		// recycling afterwards.
		bufs = bufs[:0]
		for i := range batch {
			bufs = append(bufs, batch[i].b)
		}
		_, err := bufs.WriteTo(p.conn)
		for i := range bufs {
			bufs[i] = nil
		}
		p.mu.Lock()
		recycleLocked(batch)
		p.writing = false
		if err != nil && p.err == nil {
			p.err = err
			// The stream is broken; readers will notice. Drop what queued
			// during the failed write, returning its pooled buffers.
			recycleLocked(p.queue)
			p.queue = nil
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// flush blocks until every enqueued frame has been handed to the kernel, the
// connection breaks, or the timeout passes. The writer broadcasts after each
// batch, so the wait needs no polling — one timer broadcast at the deadline
// bounds it.
func (p *peer) flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for (len(p.queue) > 0 || p.writing) && p.err == nil && !p.closed {
		if !time.Now().Before(deadline) {
			return errors.New("wire: flush timed out")
		}
		p.cond.Wait()
	}
	return p.err
}

func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	_ = p.conn.Close()
}
