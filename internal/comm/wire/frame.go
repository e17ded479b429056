// Package wire is the framed socket transport for internal/comm: a world
// whose ranks span OS processes (and machines), meshed over TCP or unix
// sockets. Payloads are serialized through the internal/pup codec registry;
// the matching semantics (tags, contexts, wildcard receives, collectives)
// stay in internal/comm and are identical to the in-process substrate, which
// is what the cross-transport bitwise-identity tests pin.
//
// Topology: a world of R ranks is hosted by N nodes (one process each), each
// owning a contiguous span of ranks. A rendezvous listener admits joining
// nodes, assigns rank bases, and broadcasts the node table; the nodes then
// build a full mesh — node i dials every node j < i plus itself (the
// self-dial means co-hosted rank traffic crosses a real socket too, so a
// loopback world exercises exactly the frames a distributed one would).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"github.com/parres/picprk/internal/pup"
)

// Every frame starts with a fixed 40-byte little-endian header:
//
//	offset  size  field
//	     0     4  length of the rest of the frame (36 header bytes + payload)
//	     4     1  protocol version (currently 2)
//	     5     1  frame type (data / abort / done / bye / hello / ping / pong)
//	     6     2  payload kind (pup codec id for data frames; 0 on control)
//	     8     4  destination world rank
//	    12     4  source world rank (node index on control frames)
//	    16     8  communicator context id
//	    24     8  tag (two's complement)
//	    32     8  send timestamp, nanoseconds (two's complement)
//	    40     …  payload (pup-encoded body)
//
// The send timestamp is stamped when the frame is built: on data and
// control frames it is the sender's offset-corrected wall clock (node 0's
// epoch), so the receiver can derive a one-way latency estimate that
// includes the sender's writer-queue wait; on ping/pong frames it is the
// sender's raw local clock (t1/t3 of the NTP-style exchange that produces
// those offsets in the first place).
//
// The layout is pinned by TestFrameGolden in golden_test.go; change it only
// with a version bump there and in DESIGN.md.
const (
	headerBytes  = 40
	frameVersion = 2
	maxFrameBody = 1 << 30 // sanity bound on the length field
)

type frameType uint8

const (
	frameData  frameType = 1 // application payload; kind identifies the codec
	frameAbort frameType = 2 // world abort; payload is the error string
	frameDone  frameType = 3 // node finished its local ranks (sent to node 0)
	frameBye   frameType = 4 // node 0's shutdown go-ahead
	frameHello frameType = 5 // rendezvous and mesh handshake
	framePing  frameType = 6 // clock-sync probe; sendNS carries t1 (local clock)
	framePong  frameType = 7 // clock-sync reply; payload echoes t1,t2; sendNS is t3
)

type frame struct {
	typ     frameType
	kind    pup.Kind
	dst     uint32
	src     uint32
	ctx     uint64
	tag     int64
	sendNS  int64
	payload []byte
}

// putHeader writes the frame's header, announcing payloadLen payload bytes
// behind it, into hdr[:headerBytes]. Ship uses it to back-fill the header in
// front of a payload it encoded in place; f.payload is not consulted.
func (f *frame) putHeader(hdr []byte, payloadLen int) {
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], uint32(headerBytes-4+payloadLen))
	hdr[4] = frameVersion
	hdr[5] = byte(f.typ)
	le.PutUint16(hdr[6:], uint16(f.kind))
	le.PutUint32(hdr[8:], f.dst)
	le.PutUint32(hdr[12:], f.src)
	le.PutUint64(hdr[16:], f.ctx)
	le.PutUint64(hdr[24:], uint64(f.tag))
	le.PutUint64(hdr[32:], uint64(f.sendNS))
}

// encode appends the framed bytes to dst and returns the extended slice.
func (f *frame) encode(dst []byte) []byte {
	var hdr [headerBytes]byte
	f.putHeader(hdr[:], len(f.payload))
	return append(append(dst, hdr[:]...), f.payload...)
}

// readFrame reads and validates one frame from r. With a non-nil buf the
// payload is read into *buf (grown when too small) and is valid only until
// the next call with the same buf — how a reader loop moves every payload
// through one buffer; with nil the payload is freshly allocated.
func readFrame(r io.Reader, buf *[]byte) (frame, error) {
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return frame{}, err
	}
	le := binary.LittleEndian
	n := int(le.Uint32(hdr[0:]))
	if n < headerBytes-4 || n > maxFrameBody {
		return frame{}, fmt.Errorf("wire: implausible frame length %d", n)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return frame{}, fmt.Errorf("wire: short frame header: %w", err)
	}
	if hdr[4] != frameVersion {
		return frame{}, fmt.Errorf("wire: protocol version %d, want %d", hdr[4], frameVersion)
	}
	f := frame{
		typ:    frameType(hdr[5]),
		kind:   pup.Kind(le.Uint16(hdr[6:])),
		dst:    le.Uint32(hdr[8:]),
		src:    le.Uint32(hdr[12:]),
		ctx:    le.Uint64(hdr[16:]),
		tag:    int64(le.Uint64(hdr[24:])),
		sendNS: int64(le.Uint64(hdr[32:])),
	}
	if pl := n - (headerBytes - 4); pl > 0 {
		if buf == nil {
			buf = new([]byte)
		}
		if cap(*buf) < pl {
			*buf = make([]byte, pl)
		}
		f.payload = (*buf)[:pl]
		if _, err := io.ReadFull(r, f.payload); err != nil {
			return frame{}, fmt.Errorf("wire: short frame payload: %w", err)
		}
	}
	return f, nil
}

// Abort frames carry a structured payload so typed failures survive the
// trip: the error text plus, when the abort was caused by a vanished peer,
// the lowest world rank that peer hosted (-1 otherwise). The receiving node
// rebuilds a comm.ErrPeerLost from it, which is how every rank of a world
// — not just the ones directly wired to the dead process — observes the
// same typed error.
func encodeAbort(lostRank int, msg string) []byte {
	sz := pup.NewSizer()
	sz.Int(&lostRank)
	sz.String(&msg)
	pk := pup.NewPacker(sz.Size())
	pk.Int(&lostRank)
	pk.String(&msg)
	return pk.Bytes()
}

// decodeAbort reverses encodeAbort.
func decodeAbort(b []byte) (lostRank int, msg string, err error) {
	u := pup.NewUnpacker(b)
	u.Int(&lostRank)
	var s string
	u.String(&s)
	if u.Err() != nil {
		return -1, "", u.Err()
	}
	return lostRank, s, nil
}
