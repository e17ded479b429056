// Package comm is a message-passing runtime in the spirit of MPI. Each rank
// runs as a goroutine; ranks exchange two-sided messages matched on
// (communicator, source, tag) with wildcard-source receives, and the package
// layers collectives (barrier, broadcast, reduce, allreduce, gather,
// allgather, sparse all-to-all), communicator splitting, and Cartesian
// topologies on top.
//
// Message movement is delegated to a Transport (see transport.go). The
// default is the in-process substrate — every rank a goroutine in one
// address space, payloads passed by reference through mailboxes — while
// internal/comm/wire provides a framed TCP/unix-socket substrate for worlds
// spanning OS processes. The matching layer here is shared by both.
//
// The paper's three reference implementations are written in MPI; this
// package reproduces the programming model so the drivers in
// internal/driver read like their MPI counterparts.
//
// Error handling follows MPI's abort semantics: protocol misuse (bad rank,
// type mismatch, receive after abort) panics inside the rank goroutine;
// World.Run recovers panics, aborts every other rank (across processes on a
// wire transport), and returns the first failure as an error.
package comm

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// AnySource is the wildcard source rank for Recv.
const AnySource = -1

// inbox is a rank's mailbox: a mutex-guarded pending list with condition
// variable wakeups. Matching preserves MPI's non-overtaking guarantee:
// between one (src, tag, ctx) pair, messages are received in send order.
// (A wire transport preserves the same guarantee because each peer's frames
// arrive over one ordered stream and are delivered by one reader.)
type inbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []Message
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

// World owns the locally-hosted ranks and shared state of one SPMD
// execution. With the in-process transport the world is the whole
// execution; with a wire transport it is this process's slice of it.
type World struct {
	size  int
	tr    Transport
	local []int
	// inboxes is indexed by world rank; nil for ranks hosted elsewhere.
	inboxes []*inbox
	opts    Options

	mu       sync.Mutex
	aborted  bool
	abortErr error

	// chaosInflight tracks delayed chaos-mode deliveries so Run can drain
	// them before returning: without it every chaos Send leaks a detached
	// goroutine that may fire after Run has returned — into a world the
	// caller believes is finished. Chaos lives above the transport, so the
	// same drain covers both substrates.
	chaosInflight sync.WaitGroup
}

// Options configures a World.
type Options struct {
	// RecvTimeout bounds how long a Recv may block; on expiry the rank
	// panics with a diagnostic, which surfaces as an error from Run. Zero
	// means a generous default (60s) to turn deadlocks into diagnosable
	// failures; negative disables the timeout.
	RecvTimeout time.Duration
	// ChaosDelay, when positive, sleeps each message delivery by a random
	// duration in [0, ChaosDelay). Used by tests to shake out ordering
	// assumptions in drivers.
	ChaosDelay time.Duration
	// ChaosSeed seeds the chaos delay generator.
	ChaosSeed int64
}

// NewWorld creates a world with the given number of ranks on the in-process
// transport: all ranks are goroutines of this process and payloads move by
// reference, never serialized.
func NewWorld(size int, opts ...Options) *World {
	if size <= 0 {
		panic(fmt.Sprintf("comm: world size must be positive, got %d", size))
	}
	return NewTransportWorld(newInproc(size), opts...)
}

// NewTransportWorld creates a world over an arbitrary transport. The world
// hosts the transport's LocalRanks; Run executes the rank function once per
// local rank. On a wire transport every participating process builds its
// own World over its end of the same transport.
func NewTransportWorld(tr Transport, opts ...Options) *World {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.RecvTimeout == 0 {
		o.RecvTimeout = 60 * time.Second
	}
	w := &World{size: tr.Size(), tr: tr, local: tr.LocalRanks(), opts: o}
	w.inboxes = make([]*inbox, w.size)
	for _, r := range w.local {
		if r < 0 || r >= w.size {
			panic(fmt.Sprintf("comm: transport local rank %d out of range [0,%d)", r, w.size))
		}
		w.inboxes[r] = newInbox()
	}
	tr.Start(w)
	return w
}

// Size returns the number of ranks in the world (across all processes).
func (w *World) Size() int { return w.size }

// LocalRanks returns the world ranks hosted by this process.
func (w *World) LocalRanks() []int { return w.local }

// Wired reports whether the world's transport serializes payloads.
func (w *World) Wired() bool { return w.tr.Wired() }

// Incoming implements Handler: the transport delivers a matched message to
// a locally-hosted rank's mailbox.
func (w *World) Incoming(dst int, m Message) {
	ib := w.inboxes[dst]
	if ib == nil {
		panic(fmt.Sprintf("comm: transport delivered to non-local rank %d", dst))
	}
	ib.mu.Lock()
	ib.pending = append(ib.pending, m)
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// RemoteAbort implements Handler: another process aborted the world.
func (w *World) RemoteAbort(err error) {
	w.abort(err, false)
}

// Run executes fn once per locally-hosted rank, each in its own goroutine,
// and waits for all of them (plus, on a wire transport, for the world's
// shutdown handshake). The first panic or returned error aborts the world —
// waking any blocked receives, locally and remotely — and is returned.
func (w *World) Run(fn func(c *Comm) error) error {
	// A single watchdog periodically wakes every blocked receiver so it can
	// check its deadline and the abort flag; this keeps the Recv hot path
	// free of timers.
	stopWatchdog := make(chan struct{})
	if w.opts.RecvTimeout > 0 {
		go func() {
			t := time.NewTicker(100 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopWatchdog:
					return
				case <-t.C:
					w.wakeAll()
				}
			}
		}()
	}
	defer close(stopWatchdog)

	var wg sync.WaitGroup
	wg.Add(len(w.local))
	for _, r := range w.local {
		c := w.comm(r)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					w.abort(fmt.Errorf("comm: rank %d panicked: %v", c.rank, p), true)
				}
			}()
			if err := fn(c); err != nil {
				w.abort(fmt.Errorf("comm: rank %d: %w", c.rank, err), true)
			}
		}()
	}
	wg.Wait()
	// Drain delayed chaos deliveries: every Send a rank issued before
	// exiting must land before Run returns, so no goroutine outlives the
	// world (and no test sees a delivery after Run).
	w.chaosInflight.Wait()
	// Let the transport flush and tear down (a no-op in-process; a wire
	// transport runs the shutdown handshake with the rest of the world).
	finErr := w.tr.Finish(w.isAborted())
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.abortErr != nil {
		return w.abortErr
	}
	return finErr
}

// comm builds the world communicator view for one rank.
func (w *World) comm(rank int) *Comm {
	group := make([]int, w.size)
	for i := range group {
		group[i] = i
	}
	var chaos *rand.Rand
	if w.opts.ChaosDelay > 0 {
		chaos = rand.New(rand.NewSource(w.opts.ChaosSeed + int64(rank)))
	}
	return &Comm{world: w, rank: rank, group: group, ctx: 0, chaos: chaos}
}

// abort records the first error and wakes all blocked receivers. When the
// abort originated locally (notifyTransport), it is also propagated to the
// rest of the world through the transport.
func (w *World) abort(err error, notifyTransport bool) {
	w.mu.Lock()
	first := !w.aborted
	if first {
		w.aborted = true
		w.abortErr = err
	}
	w.mu.Unlock()
	w.wakeAll()
	if first && notifyTransport {
		w.tr.Abort(err)
	}
}

// wakeAll broadcasts on every local mailbox so blocked receivers re-check
// the abort flag and their deadlines.
func (w *World) wakeAll() {
	for _, ib := range w.inboxes {
		if ib == nil {
			continue
		}
		ib.mu.Lock()
		ib.cond.Broadcast()
		ib.mu.Unlock()
	}
}

func (w *World) isAborted() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.aborted
}

// Comm is one rank's handle on a communicator: the world communicator from
// Run, or a subcommunicator from Split. Methods are safe to call only from
// the owning rank's goroutine (as in MPI).
type Comm struct {
	world      *World
	rank       int   // rank within this communicator
	group      []int // world ranks of the members, indexed by comm rank
	ctx        uint64
	splits     uint64
	gatherSeq  uint64
	scatterSeq uint64
	xchgSeq    uint64
	// xchgOpen is set between ExchangePtrStart and ExchangePtrFinish;
	// xchgTag is the open exchange's tag, so Finish matches the Start it
	// pairs with even if other traffic interleaves.
	xchgOpen bool
	xchgTag  int
	// Exchange neighbor schedule (see exchange.go for the contract).
	// xchgNbrs gates the sparse path; xchgPeers/xchgMask are the active
	// peer set (sorted comm ranks / dense membership); xchgFence counts
	// full-ring exchanges still owed after a schedule change; xchgSparse
	// records whether the currently open exchange ran the sparse schedule
	// so Finish receives from exactly the set Start sent to.
	xchgNbrs   bool
	xchgPeers  []int
	xchgMask   []bool
	xchgFence  int
	xchgSparse bool
	// xchgSent counts messages actually posted by ExchangePtrStart on this
	// communicator; xchgElided counts the nil sends the sparse schedule
	// skipped (full ring would have sent P-1 per call).
	xchgSent   int64
	xchgElided int64
	chaos      *rand.Rand
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// OnWire reports whether this communicator's messages are serialized onto a
// byte stream. Substrates use it to decide between measured and estimated
// exchange byte accounting, and tests use it to skip in-process-only
// invariants (zero-alloc pins, pointer-identity checks).
func (c *Comm) OnWire() bool { return c.world.tr.Wired() }

// TransportBytes returns the cumulative framed bytes the transport shipped
// on behalf of this rank (0 in-process, where nothing is serialized).
func (c *Comm) TransportBytes() int64 { return c.world.tr.SentBytes(c.group[c.rank]) }

// WallClockNS returns the current wall-clock time in nanoseconds on the
// world's common timeline: rank 0's clock. On a transport that estimates
// clock offsets (the wire mesh) the local clock is offset-corrected; in
// process every rank shares one clock and this is simply time.Now.
func (c *Comm) WallClockNS() int64 {
	if wc, ok := c.world.tr.(WallClocker); ok {
		return wc.WallClockNS()
	}
	return time.Now().UnixNano()
}

// ClockOffsetNS returns the transport's estimate of rank 0's clock minus
// this process's clock, in nanoseconds (0 in-process and on rank 0's node).
func (c *Comm) ClockOffsetNS() int64 {
	if wc, ok := c.world.tr.(WallClocker); ok {
		return wc.ClockOffsetNS()
	}
	return 0
}

// Send delivers data to rank dst of this communicator with the given tag.
// Send is asynchronous and never blocks (buffered, like MPI_Isend with an
// unbounded buffer). Ownership of reference-typed data transfers to the
// receiver: the sender must not mutate it afterwards. On a wire transport
// the payload must have a codec registered with internal/pup.
func (c *Comm) Send(dst, tag int, data any) {
	if dst < 0 || dst >= len(c.group) {
		panic(fmt.Sprintf("comm: send to invalid rank %d (size %d)", dst, len(c.group)))
	}
	if c.chaos != nil {
		d := time.Duration(c.chaos.Int63n(int64(c.world.opts.ChaosDelay)))
		c.world.chaosInflight.Add(1)
		go func() {
			defer c.world.chaosInflight.Done()
			time.Sleep(d)
			c.deliver(dst, tag, data)
		}()
		return
	}
	c.deliver(dst, tag, data)
}

func (c *Comm) deliver(dst, tag int, data any) {
	c.world.tr.Ship(c.group[dst], Message{Ctx: c.ctx, Src: c.group[c.rank], Tag: tag, Data: data})
}

// Recv blocks until a message with a matching source and tag arrives on
// this communicator and returns its payload and actual source rank. Pass
// AnySource to match any sender. Within one (source, tag) pair, messages
// arrive in send order.
func (c *Comm) Recv(src, tag int) (any, int) {
	if src != AnySource && (src < 0 || src >= len(c.group)) {
		panic(fmt.Sprintf("comm: recv from invalid rank %d (size %d)", src, len(c.group)))
	}
	ib := c.world.inboxes[c.group[c.rank]]
	deadline := time.Time{}
	if c.world.opts.RecvTimeout > 0 {
		deadline = time.Now().Add(c.world.opts.RecvTimeout)
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		if c.world.isAborted() {
			panic("comm: world aborted while receiving")
		}
		for i := range ib.pending {
			m := &ib.pending[i]
			if m.Ctx != c.ctx || m.Tag != tag {
				continue
			}
			srcRank := c.rankOfWorld(m.Src)
			if srcRank < 0 {
				continue // message from outside this communicator's group
			}
			if src != AnySource && srcRank != src {
				continue
			}
			data := m.Data
			ib.pending = append(ib.pending[:i], ib.pending[i+1:]...)
			return data, srcRank
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			panic(fmt.Sprintf("comm: rank %d recv(src=%d, tag=%d, ctx=%d) timed out after %v",
				c.rank, src, tag, c.ctx, c.world.opts.RecvTimeout))
		}
		ib.cond.Wait()
	}
}

// rankOfWorld translates a world rank to this communicator's rank, or -1.
func (c *Comm) rankOfWorld(wr int) int {
	// group is small and this is on the receive path; for the world
	// communicator group[i] == i so the common case is O(1).
	if wr < len(c.group) && c.group[wr] == wr {
		return wr
	}
	for i, g := range c.group {
		if g == wr {
			return i
		}
	}
	return -1
}
