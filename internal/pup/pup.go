// Package pup provides a pack/unpack serialization framework modeled on
// Charm++'s PUP, which the paper's AMPI implementation uses for migrating
// virtual processors ("we opted for PUP because it yields higher
// performance", §IV-C). One traversal method written against *PUPer serves
// three modes — sizing, packing and unpacking — so object layout is defined
// exactly once and the pack/unpack pair can never drift apart.
package pup

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"
)

// Mode selects what a PUPer pass does.
type Mode int

// The three traversal modes.
const (
	Sizing Mode = iota
	Packing
	Unpacking
)

// PUPable is implemented by objects that can be migrated.
type PUPable interface {
	PUP(p *PUPer)
}

// PUPer carries the state of one sizing/packing/unpacking traversal.
// After a traversal, check Err (unpacking a short or corrupt buffer records
// an error and turns subsequent calls into no-ops rather than panicking).
//
// Besides a byte buffer, a PUPer has two backends for bulk columns (Raw):
// a gather packer (see Gather), which references large columns in a segment
// list instead of copying them, and a stream unpacker (see Decoder), which
// reads the body from an io.Reader, columns straight into their
// destination, small fields through buf as scratch.
type PUPer struct {
	mode Mode
	buf  []byte
	off  int
	size int
	err  error

	// Gather packing: segs is the body so far, runs of buf (from mark on,
	// not yet cut) alternating with referenced columns; ref counts the bytes
	// to be referenced rather than copied, up while sizing and back down
	// while packing.
	gather bool
	ref    int
	mark   int
	segs   [][]byte

	// Stream unpacking: the body is read from r, of which left bytes remain.
	r    io.Reader
	left int
}

// gatherMin is the size from which a gather packer references a column
// rather than copying it: below it, one more writev segment costs more than
// the copy it saves. Measured over loopback tcp on a 2-core AMD EPYC VM
// (wire's BenchmarkGatherCutover): referencing a 1–2 KB column cost ~15 ns
// more than copying it, a 4 KB one saved ~12 ns, an 8 KB one ~110 ns.
const gatherMin = 4 << 10

// nativeOrder reports whether the host's byte order is the wire's (little
// endian), so a column's memory already is its encoding. It is derived from
// the host once; only tests write it, to run the portable loops a big-endian
// host would.
var nativeOrder = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// NewSizer returns a PUPer that only measures the encoded size.
func NewSizer() *PUPer { return &PUPer{mode: Sizing} }

// NewPacker returns a PUPer that packs into a fresh buffer of the given
// size (obtained from a prior sizing pass).
func NewPacker(size int) *PUPer {
	return &PUPer{mode: Packing, buf: make([]byte, size)}
}

// NewUnpacker returns a PUPer that unpacks from buf.
func NewUnpacker(buf []byte) *PUPer {
	return &PUPer{mode: Unpacking, buf: buf}
}

// Mode returns the traversal mode, for objects that must behave differently
// when restoring (e.g. rebuilding caches after unpacking).
func (p *PUPer) Mode() Mode { return p.mode }

// Size returns the measured size after a sizing pass.
func (p *PUPer) Size() int { return p.size }

// Bytes returns the packed buffer after a packing pass.
func (p *PUPer) Bytes() []byte { return p.buf }

// Err returns the first error encountered (unpack overruns).
func (p *PUPer) Err() error { return p.err }

// Remaining reports the unread byte count during an unpacking pass (0 in
// the other modes) — of a stream, what is left of the length it declared.
// Traversals that allocate from decoded lengths use it to reject
// implausible counts before calling make.
func (p *PUPer) Remaining() int {
	switch {
	case p.mode != Unpacking:
		return 0
	case p.r != nil:
		return p.left
	}
	return len(p.buf) - p.off
}

// Done reports whether an unpacking pass consumed the whole body.
func (p *PUPer) Done() bool { return p.mode == Unpacking && p.Remaining() == 0 && p.err == nil }

// Fail records an application-level error (e.g. a consistency check during
// unpacking failed); subsequent operations become no-ops and Err/Unpack
// report the error. The first recorded error wins.
func (p *PUPer) Fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

func (p *PUPer) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("pup: "+format, args...)
	}
}

// Window claims the next n bytes of the stream and returns them for the
// caller to fill (packing) or read (unpacking) — what the portable column
// loops are built on: one bounds check per column instead of one per
// element. It returns nil when sizing (the n bytes are counted, so a column
// costs O(1) to size) and after an error. The window aliases the
// traversal's buffer (a stream unpacker's scratch): copy out of it, never
// retain it.
func (p *PUPer) Window(n int) []byte {
	if p.err != nil {
		return nil
	}
	if p.mode == Sizing {
		p.size += n
		return nil
	}
	if p.r != nil {
		if n < 0 || n > p.left {
			p.fail("unpack overrun: need %d bytes, %d remain", n, p.left)
			return nil
		}
		if cap(p.buf) < n {
			p.buf = make([]byte, max(n, 64))
		}
		b := p.buf[:n]
		p.read(b)
		if p.err != nil {
			return nil
		}
		return b
	}
	if n < 0 || n > len(p.buf)-p.off {
		what := "pack overflow"
		if p.mode == Unpacking {
			what = "unpack overrun"
		}
		p.fail("%s: need %d bytes at offset %d of %d", what, n, p.off, len(p.buf))
		return nil
	}
	b := p.buf[p.off : p.off+n]
	p.off += n
	return b
}

// Raw serializes b's bytes verbatim, with no length prefix — the bulk
// primitive every column traversal sits on. Packing copies b into the body,
// except that a gather packer references a column of at least gatherMin
// bytes as a segment of its own: b must then stay unchanged until the
// segments are written. Unpacking fills b from the body — a stream
// unpacker reads it straight from the reader — so the caller must already
// have checked len(b) against Remaining.
func (p *PUPer) Raw(b []byte) {
	switch {
	case p.err != nil:
	case p.mode == Sizing:
		p.size += len(b)
		if p.gather && len(b) >= gatherMin {
			p.ref += len(b)
		}
	case p.mode == Packing && p.gather && len(b) >= gatherMin:
		p.cut()
		p.segs = append(p.segs, b)
		p.ref -= len(b)
	case p.mode == Unpacking && p.r != nil:
		if len(b) > p.left {
			p.fail("unpack overrun: need %d bytes, %d remain", len(b), p.left)
			return
		}
		p.read(b)
	default:
		w := p.Window(len(b))
		if p.mode == Packing {
			copy(w, b)
		} else {
			copy(b, w)
		}
	}
}

// Column serializes the elements of v back to back, with no length prefix,
// as their memory: through Raw, so a gather packer can reference it and a
// stream unpacker fill it in place. That memory is the wire encoding only on
// a little-endian host and only for a T whose layout is its record's —
// fields in record order, no padding — so Column reports false, doing
// nothing, on any other host; the caller then runs its portable loop.
func Column[T any](p *PUPer, v []T) bool {
	if !nativeOrder {
		return false
	}
	var zero T
	p.Raw(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(zero))))
	return true
}

// read fills b from a stream unpacker's reader.
func (p *PUPer) read(b []byte) {
	if _, err := io.ReadFull(p.r, b); err != nil {
		p.Fail(fmt.Errorf("pup: reading %d of %d remaining bytes: %w", len(b), p.left, err))
		return
	}
	p.left -= len(b)
}

// cut closes a gather packer's current run of copied bytes as a segment.
func (p *PUPer) cut() {
	if p.off > p.mark {
		p.segs = append(p.segs, p.buf[p.mark:p.off])
	}
	p.mark = p.off
}

// Uint64 serializes one uint64.
func (p *PUPer) Uint64(v *uint64) {
	b := p.Window(8)
	if b == nil {
		return
	}
	switch p.mode {
	case Packing:
		binary.LittleEndian.PutUint64(b, *v)
	case Unpacking:
		*v = binary.LittleEndian.Uint64(b)
	}
}

// Int serializes one int (as 8 bytes, two's complement).
func (p *PUPer) Int(v *int) {
	u := uint64(int64(*v))
	p.Uint64(&u)
	if p.mode == Unpacking {
		*v = int(int64(u))
	}
}

// Int32 serializes one int32.
func (p *PUPer) Int32(v *int32) {
	b := p.Window(4)
	if b == nil {
		return
	}
	switch p.mode {
	case Packing:
		binary.LittleEndian.PutUint32(b, uint32(*v))
	case Unpacking:
		*v = int32(binary.LittleEndian.Uint32(b))
	}
}

// Float64 serializes one float64 (IEEE-754 bits).
func (p *PUPer) Float64(v *float64) {
	u := math.Float64bits(*v)
	p.Uint64(&u)
	if p.mode == Unpacking {
		*v = math.Float64frombits(u)
	}
}

// Bool serializes one bool as a byte.
func (p *PUPer) Bool(v *bool) {
	b := p.Window(1)
	if b == nil {
		return
	}
	switch p.mode {
	case Packing:
		if *v {
			b[0] = 1
		} else {
			b[0] = 0
		}
	case Unpacking:
		*v = b[0] != 0
	}
}

// Float64Column serializes the elements of v back to back with no length
// prefix: the caller has already fixed len(v) (from a prefix or a header it
// validated against Remaining). On a little-endian host the column's memory
// is its encoding (Column); elsewhere one window and a byte-order loop.
func (p *PUPer) Float64Column(v []float64) {
	if Column(p, v) {
		return
	}
	b := p.Window(8 * len(v))
	if b == nil {
		return
	}
	// Advancing the window (rather than indexing b[8*i:]) lets the compiler
	// keep one pointer and one length check per element: ~30% faster.
	switch p.mode {
	case Packing:
		for _, x := range v {
			binary.LittleEndian.PutUint64(b, math.Float64bits(x))
			b = b[8:]
		}
	case Unpacking:
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
}

// Float64s serializes a slice of float64, length-prefixed.
func (p *PUPer) Float64s(v *[]float64) {
	if SliceLen(p, v, 8) {
		p.Float64Column(*v)
	}
}

// SliceLen serializes a slice's length prefix and reports whether the
// traversal should go on to the elements. Unpacking sets *v to the decoded
// length — reusing its capacity when it suffices, without zeroing, so an
// unpack into a retained scratch slice (or a recycled object's field) stays
// off the allocator once the buffer has grown to its working size — but only
// after checking the length against what is left of the buffer at width
// bytes per element (the least one can occupy), so a corrupt prefix cannot
// make it allocate more than a small multiple of the bytes actually present.
func SliceLen[T any](p *PUPer, v *[]T, width int) bool {
	n := len(*v)
	p.Int(&n)
	if p.err != nil {
		return false
	}
	if p.mode == Unpacking {
		if n < 0 || n > p.Remaining()/width {
			p.fail("implausible slice length %d with %d bytes left", n, p.Remaining())
			return false
		}
		if cap(*v) >= n {
			*v = (*v)[:n]
		} else {
			*v = make([]T, n)
		}
	}
	return true
}

// String serializes a string, length-prefixed.
func (p *PUPer) String(v *string) {
	n := len(*v)
	p.Int(&n)
	if p.err != nil {
		return
	}
	switch p.mode {
	case Sizing:
		p.size += n
	case Packing:
		b := p.Window(n)
		if b != nil {
			copy(b, *v)
		}
	case Unpacking:
		if n < 0 || n > p.Remaining() {
			p.fail("implausible string length %d", n)
			return
		}
		b := p.Window(n)
		if b != nil {
			*v = string(b)
		}
	}
}

// ByteSlice serializes a []byte, length-prefixed. (Named to avoid the
// Bytes accessor, which returns the packed buffer.)
func (p *PUPer) ByteSlice(v *[]byte) {
	n := len(*v)
	p.Int(&n)
	if p.err != nil {
		return
	}
	if p.mode == Unpacking {
		if n < 0 || n > p.Remaining() {
			p.fail("implausible byte slice length %d", n)
			return
		}
		*v = nil
		if n > 0 {
			*v = make([]byte, n)
		}
	}
	p.Raw(*v)
}

// Slice serializes a slice of arbitrary elements, length-prefixed, using the
// provided per-element function, which must write every field it reads back
// (see SliceLen) and serialize at least width bytes per element: the
// decoder checks the length prefix against it before sizing the slice.
func Slice[T any](p *PUPer, v *[]T, width int, elem func(p *PUPer, e *T)) {
	if !SliceLen(p, v, width) {
		return
	}
	for i := range *v {
		elem(p, &(*v)[i])
		if p.err != nil {
			return
		}
	}
}

// Pack runs the canonical size-then-pack sequence and returns the buffer.
func Pack(obj PUPable) ([]byte, error) {
	return new(PUPer).pack(nil, false, func(p *PUPer, v any) { v.(PUPable).PUP(p) }, obj)
}

// pack is the size-then-pack sequence behind Pack, EncodePayload and
// Gather.Encode: one sizing traversal of v, then one packing traversal
// behind len(buf) — buf grows only when its capacity falls short — of
// everything a gather packer does not reference. It returns the extended
// buf (the body in place, or a gather packer's small bytes, its segments in
// p.segs). A traversal that packs fewer bytes than it sized is an error —
// the gap would ship whatever the buffer held before.
func (p *PUPer) pack(buf []byte, gather bool, traverse func(*PUPer, any), v any) ([]byte, error) {
	*p = PUPer{mode: Sizing, gather: gather, segs: p.segs[:0]}
	traverse(p, v)
	if p.err != nil {
		return nil, p.err
	}
	off, size, ref := len(buf), p.size, p.ref
	end := off + size - ref
	*p = PUPer{mode: Packing, gather: gather, buf: slices.Grow(buf, end-off)[:end], off: off, ref: ref, segs: p.segs}
	traverse(p, v)
	if gather {
		p.cut()
	}
	if p.err == nil && (p.off != end || p.ref != 0) {
		p.fail("packed %d bytes after sizing %d", p.off-off+ref-p.ref, size)
	}
	if p.err != nil {
		return nil, p.err
	}
	return p.buf, nil
}

// Unpack restores obj from a buffer produced by Pack, requiring that the
// whole buffer is consumed.
func Unpack(obj PUPable, buf []byte) error {
	u := NewUnpacker(buf)
	obj.PUP(u)
	if u.Err() != nil {
		return u.Err()
	}
	if !u.Done() {
		return fmt.Errorf("pup: %d trailing bytes after unpack", u.Remaining())
	}
	return nil
}
