package comm

// The Transport interface is the seam between the message-passing runtime's
// matching semantics (tags, wildcard receives, collectives) and the physical substrate that moves payloads between
// ranks. Two implementations exist:
//
//   - the in-process substrate below: every rank is a goroutine in this
//     process and payloads move by reference through the destination
//     rank's mailbox — zero-copy, allocation-free, and the chaos/test
//     vehicle, exactly as before the interface was extracted;
//   - the framed socket substrate in internal/comm/wire: ranks span OS
//     processes (and machines), payloads are serialized through the
//     internal/pup codec registry and framed over TCP or unix sockets.
//
// The matching layer (inboxes, Recv, collectives) lives entirely above the
// interface and is shared by both substrates, which is what makes the
// bitwise-identity guarantee across transports testable: the only thing a
// transport may do is move a Message to its destination rank intact.

// Message is one in-flight point-to-point payload together with the
// envelope the receive side matches on.
type Message struct {
	// Src is the world rank of the sender.
	Src int
	// Tag is the application or collective tag.
	Tag int
	// Data is the payload. The in-process substrate passes it by
	// reference (ownership transfers to the receiver); a wire transport
	// serializes it through the pup codec registry, so every type that
	// can cross a wire world must have a registered codec.
	Data any
}

// Handler is the upcall surface a World registers with its Transport:
// frame delivery and remote abort notification. Incoming may be called
// from any goroutine; it must not block indefinitely.
type Handler interface {
	// Incoming delivers a message to the locally-hosted world rank dst.
	Incoming(dst int, m Message)
	// RemoteAbort reports that another process aborted the world.
	RemoteAbort(err error)
}

// Transport moves messages between the world's ranks. A transport is bound
// to exactly one World: Start is called once, before any Ship.
type Transport interface {
	// Size returns the world size.
	Size() int
	// LocalRanks returns the world ranks hosted in this process, in
	// ascending order. The in-process substrate hosts all of them.
	LocalRanks() []int
	// Start registers the world's upcall handler. Messages arriving
	// before Start must be held, not dropped.
	Start(h Handler)
	// Ship delivers m to world rank dst, never m's own sender: comm puts a
	// message to the sending rank straight into its inbox. It must not
	// block indefinitely: sends are buffered, as MPI_Isend with an
	// unbounded buffer.
	Ship(dst int, m Message)
	// Wired reports whether payloads are serialized onto a byte stream
	// (true for socket transports, false in-process): a payload that
	// crossed one is the receiver's own decoded copy, not the sender's.
	// A message to the sending rank itself is never serialized.
	Wired() bool
	// Abort asks the transport to propagate an abort to every other
	// process of the world (a no-op in-process, where all ranks share
	// the World's abort flag).
	Abort(err error)
	// Finish is called once, after every locally-hosted rank returned
	// and chaos-delayed deliveries drained. A distributed transport
	// flushes outstanding frames, waits for the rest of the world (or
	// tears down immediately when aborted is true), and releases its
	// resources.
	Finish(aborted bool) error
}

// WallClocker is an optional Transport extension: a distributed transport
// that estimates per-process clock offsets (the wire mesh piggybacks
// NTP-style exchanges on its handshake) exposes the world's common wall
// clock — rank 0's — through it. Comm.WallClockNS falls back to the local
// clock when the transport does not implement it, which is exact for the
// in-process substrate where all ranks share one clock.
type WallClocker interface {
	// WallClockNS is the local clock corrected onto rank 0's clock, ns.
	WallClockNS() int64
	// ClockOffsetNS is the estimate of rank 0's clock minus the local
	// clock, ns (zero where they are the same clock).
	ClockOffsetNS() int64
}

// inproc is the in-process transport: a trivial loop-back into the World's
// own mailboxes. Ship is a direct method call, so the steady-state send
// path stays allocation-free.
type inproc struct {
	size  int
	local []int
	h     Handler
}

func newInproc(size int) *inproc {
	t := &inproc{size: size, local: make([]int, size)}
	for i := range t.local {
		t.local[i] = i
	}
	return t
}

func (t *inproc) Size() int                 { return t.size }
func (t *inproc) LocalRanks() []int         { return t.local }
func (t *inproc) Start(h Handler)           { t.h = h }
func (t *inproc) Ship(dst int, m Message)   { t.h.Incoming(dst, m) }
func (t *inproc) Wired() bool               { return false }
func (t *inproc) Abort(err error)           {}
func (t *inproc) Finish(aborted bool) error { return nil }
