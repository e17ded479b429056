package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/pup"
)

const (
	handshakeTimeout  = 60 * time.Second
	finishTimeout     = 60 * time.Second
	abortFlushTimeout = 2 * time.Second
)

// Node is this process's end of a wire world: a comm.Transport that hosts
// one world rank — its index — and frames messages over one socket per
// other rank. Build one with Join (or LoopbackCluster for tests), then hand
// it to comm.NewTransportWorld.
//
// Shutdown handshake: when a node's rank has returned, its Finish flushes
// outstanding frames and reports DONE to node 0; node 0 broadcasts BYE once
// every node (itself included) is done, and only then do nodes close their
// sockets. Every data frame is therefore on the wire —
// and, because receives block until matched, consumed — before any socket
// closes, so the handshake cannot lose application traffic.
type Node struct {
	network string
	index   int      // this node's world rank
	addrs   []string // mesh listener address per rank

	ln    net.Listener
	peers []*peer // write side per rank; peers[index] is nil

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
func (n *Node) Size() int { return len(n.addrs) }

// LocalRanks implements comm.Transport.
func (n *Node) LocalRanks() []int { return []int{n.index} }

// Wired implements comm.Transport: payloads are serialized.
func (n *Node) Wired() bool { return true }

// Start implements comm.Transport: readers hold delivery until the world's
// handler is registered. Nodes other than 0 also start the clock-resync
// loop here, once a handler exists to own the world's lifetime.
func (n *Node) Start(h comm.Handler) {
	n.handler = h
	if n.index != 0 {
		go n.resyncLoop()
	}
	n.release()
}

// gatherPool recycles data-frame encoders between Ship calls: a frame's
// segments live from encode until the writer batch containing it is handed
// to the kernel, after which the writer releases the encoder back here. An
// encoder's buffer holds a frame's header and small fields only — the
// columns are referenced, not copied — so pooled buffers stay small.
// Control and broadcast frames stay unpooled (one buffer may sit on
// several peers' queues, so no single write completion owns it).
var gatherPool = sync.Pool{New: func() any { return new(pup.Gather) }}

// Ship implements comm.Transport: serialize the payload through the pup
// codec registry and enqueue the frame on the destination rank's writer.
// The frame is a pooled encoder's segments — header and small fields in
// its buffer, every large column referenced where the sender keeps it — so
// the only copy of a payload byte on this side of the socket is the
// kernel's. The writer reads the columns until its writev returns; the
// sender's promise not to mutate what it sent (comm.Send, and for the
// exchange the two-generation rule, DESIGN §9) is what makes that safe.
func (n *Node) Ship(dst int, m comm.Message) {
	g := gatherPool.Get().(*pup.Gather)
	segs, kind, err := g.Encode(headerBytes, m.Data)
	if err != nil {
		release(g)
		// Abort instead of panicking: Ship may run on a chaos-delay
		// goroutine, where a panic would crash the process rather than
		// surface through World.Run.
		n.fail(fmt.Errorf("wire: rank %d -> %d (tag %d): %w", m.Src, dst, m.Tag, err))
		return
	}
	size := 0
	for _, s := range segs {
		size += len(s)
	}
	f := frame{typ: frameData, kind: kind, src: uint32(m.Src), tag: int64(m.Tag), sendNS: n.WallClockNS()}
	f.putHeader(segs[0], size-headerBytes)
	n.peers[dst].enqueueFrame(segs, g)
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
		n.broadcast(frame{typ: frameAbort, src: uint32(n.index), sendNS: n.WallClockNS(), payload: encodeAbort(lost, err.Error())})
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

// abortError rebuilds a peer's abort from its frame payload. Only a lost
// rank inside the world, [0, size), becomes a typed peer loss; any other
// rank is a plain remote abort, so a bogus payload can never name a rank
// for the supervisor to readmit.
func abortError(payload []byte, size int) error {
	lost, msg, err := decodeAbort(payload)
	switch {
	case err != nil || msg == "":
		return errors.New("wire: remote abort")
	case lost >= 0 && lost < size:
		return remoteAbort{msg: msg, lost: lost}
	}
	return errors.New(msg)
}

// Finish implements comm.Transport: run the shutdown handshake (or, when
// aborted, a best-effort flush) and tear the mesh down.
func (n *Node) Finish(aborted bool) error {
	if aborted {
		// Give in-flight abort/data frames a moment to reach the kernel so
		// remote ranks wake promptly, then tear down; remote readers treat
		// the EOF as an abort too, so nothing hangs if the flush times out.
		n.eachPeer(func(p *peer) { _ = p.flush(abortFlushTimeout) })
		n.closeAll()
		return nil
	}
	var ferr error
	n.eachPeer(func(p *peer) {
		if err := p.flush(finishTimeout); err != nil && ferr == nil {
			ferr = err
		}
	})
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
		n.broadcast(frame{typ: frameBye, src: uint32(n.index), sendNS: n.WallClockNS()})
		n.eachPeer(func(p *peer) { _ = p.flush(abortFlushTimeout) })
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
	n.eachPeer((*peer).close)
}

// eachPeer calls fn on the write side of every mesh connection, one per
// other node (a node discarded mid-mesh skips the ones it never opened).
func (n *Node) eachPeer(fn func(*peer)) {
	for _, p := range n.peers {
		if p != nil {
			fn(p)
		}
	}
}

// broadcast queues one control frame to every other node.
func (n *Node) broadcast(f frame) {
	b := f.encode(nil)
	n.eachPeer(func(p *peer) { p.enqueue(b) })
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
	ready := n.doneCount == len(n.addrs)
	n.mu.Unlock()
	if ready {
		n.broadcast(frame{typ: frameBye, src: uint32(n.index), sendNS: n.WallClockNS()})
		n.noteBye()
	}
}

func (n *Node) noteBye() {
	n.byeOnce.Do(func() { close(n.bye) })
}

// readLoop consumes frames from one socket until it breaks or the world
// shuts down. Per-peer frame order is preserved because each peer pair
// shares one ordered stream with a single reader — the wire equivalent of
// the in-process non-overtaking guarantee. peerIdx is the rank on the far
// end of conn (known at both dial and accept time): every data frame on it
// must come from that rank, and a premature EOF — the stream breaking
// without the orderly BYE — is attributed to it as a typed
// comm.ErrPeerLost rather than a generic read error.
func (n *Node) readLoop(conn net.Conn, peerIdx int) {
	<-n.started
	// Headers and small fields come through br's buffer; a data payload is
	// decoded straight from br into the value the rank receives, and reads
	// of a column larger than the buffer bypass it, so no payload is ever
	// staged whole. bufio's default 4 KB is enough: 64 KB measured the same
	// on fastdrift_tcp (step time and set-up time both within the runs'
	// spread over 8 pairs). Control payloads land in ctl, which the next
	// frame overwrites: nothing below may retain f.payload past its case.
	in := &stickyReader{r: conn}
	br := bufio.NewReader(in)
	var (
		hdr [headerBytes]byte
		ctl []byte
		dec pup.Decoder
	)
	broken := func(err error) {
		if !n.isClosing() {
			// The node that sees a peer die names it to everyone else
			// before its own teardown closes any socket (see fail): the
			// abort frame precedes this node's EOF on each ordered stream,
			// so no survivor is left to infer the victim from whichever
			// connection happened to break first.
			n.fail(fmt.Errorf("wire: node %d lost node %d (%v): %w",
				n.index, peerIdx, err, comm.ErrPeerLost{Rank: peerIdx}))
		}
	}
	for {
		f, size, err := readHeader(br, hdr[:])
		if err == nil && f.typ != frameData {
			f.payload, err = readPayload(br, size, &ctl)
		}
		if err != nil {
			broken(err)
			return
		}
		switch f.typ {
		case frameData:
			if int(f.src) != peerIdx {
				n.fail(fmt.Errorf("wire: node %d received a data frame claiming rank %d on its connection to rank %d",
					n.index, f.src, peerIdx))
				return
			}
			v, derr := dec.Decode(f.kind, br, size)
			if derr != nil {
				if in.err != nil {
					// The stream broke off mid-payload: a lost peer, not
					// bad bytes.
					broken(in.err)
				} else {
					n.fail(fmt.Errorf("wire: node %d: bad data frame: %w", n.index, derr))
				}
				return
			}
			n.recordData(peerIdx, f.sendNS)
			n.handler.Incoming(n.index, comm.Message{Src: peerIdx, Tag: int(f.tag), Data: v})
		case frameAbort:
			n.recordControl(int(f.src))
			n.handler.RemoteAbort(abortError(f.payload, len(n.addrs)))
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

// stickyReader is a connection as readLoop reads it: it remembers the first
// read error, so a data frame whose decode failed because the stream broke
// off mid-payload is told apart from one that arrived whole and was bad.
type stickyReader struct {
	r   io.Reader
	err error
}

func (s *stickyReader) Read(b []byte) (int, error) {
	n, err := s.r.Read(b)
	if err != nil && s.err == nil {
		s.err = err
	}
	return n, err
}

// wbuf is one writer-queue entry: a frame's segments, written as one run,
// plus the encoder to release them to once the batch containing them has
// been written (nil for control/broadcast frames, whose buffers are shared
// or caller-owned).
type wbuf struct {
	segs [][]byte
	enc  *pup.Gather
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

func (p *peer) enqueue(b []byte) { p.enqueueFrame([][]byte{b}, nil) }

// enqueueFrame queues one frame's segments as a unit, so no other frame's
// bytes can land between them.
func (p *peer) enqueueFrame(segs [][]byte, enc *pup.Gather) {
	p.mu.Lock()
	dropped := p.closed || p.err != nil
	if !dropped {
		p.queue = append(p.queue, wbuf{segs: segs, enc: enc})
		p.frames++
		if d := int64(len(p.queue)); d > p.peak {
			p.peak = d
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	if dropped && enc != nil {
		release(enc)
	}
}

// stats snapshots the writer's frame counter and queue gauges.
func (p *peer) stats() (frames, depth, peak, writes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frames, int64(len(p.queue)), p.peak, p.writes
}

// release drops an encoder's references to the payload it framed and
// returns it to the pool.
func release(g *pup.Gather) {
	g.Release()
	gatherPool.Put(g)
}

// recycleLocked releases every pooled encoder in q and clears the entries.
// Caller holds p.mu (pool puts are safe under it).
func recycleLocked(q []wbuf) {
	for i := range q {
		if g := q[i].enc; g != nil {
			release(g)
		}
		q[i] = wbuf{}
	}
}

func (p *peer) writeLoop() {
	var batch []wbuf
	var bufs, w net.Buffers
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
		// gets a scratch copy of the refs — and a copy of that slice, so
		// bufs keeps its start and capacity for the next batch; batch keeps
		// the originals for recycling afterwards.
		bufs = bufs[:0]
		for i := range batch {
			bufs = append(bufs, batch[i].segs...)
		}
		w = bufs
		_, err := w.WriteTo(p.conn)
		clear(bufs)
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
