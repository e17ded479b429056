// Package wire is the framed socket transport for internal/comm: a world
// whose ranks span OS processes (and machines), meshed over TCP or unix
// sockets. Payloads are serialized through the internal/pup codec registry;
// the matching semantics (tags, wildcard receives, collectives) stay in
// internal/comm and are identical to the in-process substrate, which is what
// the cross-transport bitwise-identity tests pin.
//
// Topology: a world of R ranks is R nodes (one process each, one rank per
// node), and a node's index is its world rank. A rendezvous listener admits
// R joining nodes, assigns their ranks, and broadcasts every rank's mesh
// address; the nodes then build a full mesh — node i dials every node j < i,
// one connection per pair of ranks, carrying that pair's traffic. A rank's
// messages to itself never reach the wire: comm delivers them to its inbox.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"github.com/parres/picprk/internal/pup"
)

// Every frame starts with a fixed 28-byte little-endian header:
//
//	offset  size  field
//	     0     4  length of the rest of the frame (24 header bytes + payload)
//	     4     1  protocol version (currently 3)
//	     5     1  frame type (data / abort / done / bye / hello / ping / pong)
//	     6     2  payload kind (pup codec id for data frames; 0 on control)
//	     8     4  source world rank
//	    12     8  tag (two's complement)
//	    20     8  send timestamp, nanoseconds (two's complement)
//	    28     …  payload (pup-encoded body)
//
// There is no destination field: a connection carries traffic for the one
// rank at its far end, and a data frame's source must be the rank at the
// sending end (readLoop checks it).
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
	headerBytes  = 28
	frameVersion = 3
	maxFrameBody = 1 << 30 // sanity bound on the length field
)

type frameType uint8

const (
	frameData  frameType = 1 // application payload; kind identifies the codec
	frameAbort frameType = 2 // world abort; payload is the error string
	frameDone  frameType = 3 // node's rank finished (sent to node 0)
	frameBye   frameType = 4 // node 0's shutdown go-ahead
	frameHello frameType = 5 // rendezvous and mesh handshake
	framePing  frameType = 6 // clock-sync probe; sendNS carries t1 (local clock)
	framePong  frameType = 7 // clock-sync reply; payload echoes t1,t2; sendNS is t3
)

type frame struct {
	typ     frameType
	kind    pup.Kind
	src     uint32
	tag     int64
	sendNS  int64
	payload []byte
}

// putHeader writes the frame's header, announcing payloadLen payload bytes
// behind it, into hdr[:headerBytes]. Ship uses it to fill the header in
// front of a payload it encoded as segments; f.payload is not consulted.
func (f *frame) putHeader(hdr []byte, payloadLen int) {
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], uint32(headerBytes-4+payloadLen))
	hdr[4] = frameVersion
	hdr[5] = byte(f.typ)
	le.PutUint16(hdr[6:], uint16(f.kind))
	le.PutUint32(hdr[8:], f.src)
	le.PutUint64(hdr[12:], uint64(f.tag))
	le.PutUint64(hdr[20:], uint64(f.sendNS))
}

// encode appends the framed bytes to dst and returns the extended slice.
func (f *frame) encode(dst []byte) []byte {
	var hdr [headerBytes]byte
	f.putHeader(hdr[:], len(f.payload))
	return append(append(dst, hdr[:]...), f.payload...)
}

// readFrame reads and validates one frame from r into a fresh payload,
// never reading past the frame — what the handshakes use on a connection
// readLoop does not own yet.
func readFrame(r io.Reader) (frame, error) {
	var hdr [headerBytes]byte
	f, n, err := readHeader(r, hdr[:])
	if err == nil {
		f.payload, err = readPayload(r, n, new([]byte))
	}
	if err != nil {
		return frame{}, err
	}
	return f, nil
}

// readHeader reads and validates one frame header from r into hdr (at
// least headerBytes long; the caller's, so a reader loop allocates nothing
// per frame) and returns the frame, payload unset, with the length of the
// payload that follows it on r.
func readHeader(r io.Reader, hdr []byte) (frame, int, error) {
	hdr = hdr[:headerBytes]
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return frame{}, 0, err
	}
	le := binary.LittleEndian
	n := int(le.Uint32(hdr[0:]))
	if n < headerBytes-4 || n > maxFrameBody {
		return frame{}, 0, fmt.Errorf("wire: implausible frame length %d", n)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return frame{}, 0, fmt.Errorf("wire: short frame header: %w", err)
	}
	if hdr[4] != frameVersion {
		return frame{}, 0, fmt.Errorf("wire: protocol version %d, want %d", hdr[4], frameVersion)
	}
	return frame{
		typ:    frameType(hdr[5]),
		kind:   pup.Kind(le.Uint16(hdr[6:])),
		src:    le.Uint32(hdr[8:]),
		tag:    int64(le.Uint64(hdr[12:])),
		sendNS: int64(le.Uint64(hdr[20:])),
	}, n - (headerBytes - 4), nil
}

// readPayload reads the n payload bytes behind a header into *buf and
// returns them. A reused buffer large enough takes them in one read;
// otherwise the buffer grows with the bytes that arrive, not to the length
// the header claims, so a corrupt length costs at most twice the bytes
// actually sent.
func readPayload(r io.Reader, n int, buf *[]byte) ([]byte, error) {
	b := (*buf)[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(len(b), 512)))
		}
		k, err := io.ReadFull(r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+k]
		if err != nil {
			return nil, fmt.Errorf("wire: short frame payload: %w", err)
		}
	}
	*buf = b
	return b, nil
}

// Abort frames carry a structured payload so typed failures survive the
// trip: the error text plus, when the abort was caused by a vanished peer,
// that peer's world rank (-1 otherwise). The receiving node
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
