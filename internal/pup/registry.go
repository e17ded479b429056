package pup

// The codec registry is the typed-message layer between the message-passing
// runtime and a byte-oriented transport. The in-process transport moves Go
// values by reference and never needs it; a wire transport cannot carry
// pointers, so every payload type that crosses internal/comm registers a
// codec here — a kind id plus a PUP traversal — and the transport looks the
// codec up by the payload's concrete type on send and by the kind id on
// receive. Registration happens in package init functions (each package
// registers the payloads it sends), so an unregistered type surfaces as a
// clear send-time error instead of a silent corruption.
//
// The codec contract has three rules. Packing must not mutate the payload: a
// transport may serialize while the sending rank is still reading the value
// it sent, so a traversal writes through its pointers only when unpacking.
// Unpacking must not alias the body: a transport decodes out of a buffer it
// overwrites with the next message, so everything a decoded value keeps is
// copied out (String, ByteSlice, the column traversals and Slice all do;
// a traversal that calls Window itself must too). And a packed column may
// be referenced until the frame is written: a Gather hands the memory
// behind every large Raw to the kernel as is, so the payload is read after
// Encode returns — which the sender's promise not to mutate what it sent
// (comm.Send) already covers.

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"
)

// Kind identifies a registered payload type on the wire. Kind ranges are
// assigned per package to keep registrations collision-free:
//
//	0         untyped nil (built in, no registration)
//	1–19      pup: Go builtins and primitive slices
//	20–29     internal/comm
//	30–39     retired: a particle travels only as internal/core columns
//	40–49     internal/core
//	50–69     internal/driver
//	90–99     internal/comm/wire control frames
//	100–199   tests
type Kind uint16

// KindNil is the reserved kind for an untyped nil payload.
const KindNil Kind = 0

// codec binds a payload type to its wire traversal.
type codec struct {
	kind Kind
	typ  reflect.Type
	enc  func(p *PUPer, v any)
	dec  func(p *PUPer) any
}

var registry struct {
	mu     sync.RWMutex
	byType map[reflect.Type]*codec
	byKind map[Kind]*codec
}

func register(kind Kind, typ reflect.Type, enc func(*PUPer, any), dec func(*PUPer) any) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.byType == nil {
		registry.byType = make(map[reflect.Type]*codec)
		registry.byKind = make(map[Kind]*codec)
	}
	if kind == KindNil {
		panic("pup: kind 0 is reserved for untyped nil")
	}
	if prev, ok := registry.byKind[kind]; ok {
		panic(fmt.Sprintf("pup: kind %d already registered for %v", kind, prev.typ))
	}
	if prev, ok := registry.byType[typ]; ok {
		panic(fmt.Sprintf("pup: type %v already registered as kind %d", typ, prev.kind))
	}
	c := &codec{kind: kind, typ: typ, enc: enc, dec: dec}
	registry.byType[typ] = c
	registry.byKind[kind] = c
}

func lookupType(typ reflect.Type) *codec {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return registry.byType[typ]
}

func lookupKind(kind Kind) *codec {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return registry.byKind[kind]
}

// RegisterCodec registers a codec for payloads of type T, serialized by the
// given PUP traversal. Decoding yields a T. It panics on a duplicate kind or
// type (registrations are init-time configuration, not runtime input).
func RegisterCodec[T any](kind Kind, fn func(p *PUPer, v *T)) {
	typ := reflect.TypeOf((*T)(nil)).Elem()
	register(kind, typ,
		func(p *PUPer, v any) {
			t := v.(T)
			fn(p, &t)
		},
		func(p *PUPer) any {
			var t T
			fn(p, &t)
			if p.Err() != nil {
				return nil
			}
			return t
		})
}

// RegisterPtrCodec registers a codec for payloads of type *T. A typed nil
// pointer is a valid payload (the pointer collectives use nil as "nothing
// for you") and travels as a one-byte flag; decoding yields a typed nil *T,
// so receive-side type assertions on *T keep working across the wire.
func RegisterPtrCodec[T any](kind Kind, fn func(p *PUPer, v *T)) {
	typ := reflect.TypeOf((*T)(nil))
	register(kind, typ,
		func(p *PUPer, v any) {
			ptr := v.(*T)
			present := ptr != nil
			p.Bool(&present)
			if present {
				fn(p, ptr)
			}
		},
		func(p *PUPer) any {
			var present bool
			p.Bool(&present)
			if !present || p.Err() != nil {
				return (*T)(nil)
			}
			t := new(T)
			fn(p, t)
			if p.Err() != nil {
				return (*T)(nil)
			}
			return t
		})
}

// EncodePayload serializes a payload for the wire, appending the PUP-packed
// body to dst (pass nil for a fresh buffer) and returning the extended slice
// with the codec's kind. The body is packed in place behind len(dst) — dst
// grows only when its capacity falls short — so a caller that reserved room
// for a header in a reused buffer pays no copy and no allocation.
func EncodePayload(dst []byte, v any) ([]byte, Kind, error) {
	c, err := lookupPayload(v)
	if c == nil {
		return dst, KindNil, err
	}
	dst, err = new(PUPer).pack(dst, false, c.enc, v)
	if err != nil {
		return nil, 0, fmt.Errorf("pup: encoding %T: %w", v, err)
	}
	return dst, c.kind, nil
}

// lookupPayload returns the codec of v's type: nil, with no error, for an
// untyped nil payload, and nil with an error for an unregistered type.
func lookupPayload(v any) (*codec, error) {
	if v == nil {
		return nil, nil
	}
	if c := lookupType(reflect.TypeOf(v)); c != nil {
		return c, nil
	}
	return nil, fmt.Errorf("pup: no codec registered for payload type %T", v)
}

// Gather encodes payloads for a vectored write (writev): the body as a list
// of segments, the small fields packed into a buffer the Gather owns and
// every column of at least gatherMin bytes referenced where it lives, so a
// large payload is not copied on its way to the kernel. Use one per
// in-flight write and reuse it — its buffer, segment list and PUPer are
// what keep a steady sender off the allocator; the zero value is ready.
type Gather struct{ p PUPer }

// Encode serializes v and returns it as segments: reserve bytes for the
// caller's frame header at the start of segs[0], then exactly the body
// EncodePayload would produce, and the codec's kind. The segments reference
// v's large columns, so v must not change until they have been written (the
// codec contract's third rule); they are valid until the next Encode or
// Release.
func (g *Gather) Encode(reserve int, v any) (segs [][]byte, kind Kind, err error) {
	c, err := lookupPayload(v)
	if err != nil {
		return nil, 0, err
	}
	enc := func(*PUPer, any) {} // an untyped nil has an empty body
	if c != nil {
		kind, enc = c.kind, c.enc
	}
	hdr := slices.Grow(g.p.buf[:0], reserve)[:reserve]
	if _, err := g.p.pack(hdr, true, enc, v); err != nil {
		return nil, 0, fmt.Errorf("pup: encoding %T: %w", v, err)
	}
	return g.p.segs, kind, nil
}

// Release drops the segments' references to the last payload's memory,
// keeping the Gather's buffers for the next Encode.
func (g *Gather) Release() {
	clear(g.p.segs)
	g.p.segs = g.p.segs[:0]
}

// DecodePayload reconstructs a payload from its kind and packed body. The
// whole body must be consumed.
func DecodePayload(kind Kind, body []byte) (any, error) {
	return decode(kind, NewUnpacker(body))
}

// Decoder decodes payloads straight off a stream — the receiving half of
// Gather: each column is read from the stream into the decoded value, with
// no body-sized buffer in between; the only buffer is scratch for the small
// fields. Use one per stream; the zero value is ready.
type Decoder struct{ p PUPer }

// Decode reconstructs a payload from its kind and the n-byte body r
// delivers next. It accepts exactly what DecodePayload accepts of the same
// bytes: every length the body claims is bounded by n as it would be by a
// buffer of n bytes, so a corrupt body cannot make it allocate more either.
// It reads at most n bytes, exactly n on success; after an error the
// stream's position is undefined.
func (d *Decoder) Decode(kind Kind, r io.Reader, n int) (any, error) {
	d.p = PUPer{mode: Unpacking, buf: d.p.buf, r: r, left: n}
	v, err := decode(kind, &d.p)
	d.p.r = nil
	return v, err
}

// decode runs kind's codec over an unpacker and requires that it consume
// the whole body.
func decode(kind Kind, u *PUPer) (any, error) {
	if kind == KindNil {
		if n := u.Remaining(); n != 0 {
			return nil, fmt.Errorf("pup: %d stray bytes on a nil payload", n)
		}
		return nil, nil
	}
	c := lookupKind(kind)
	if c == nil {
		return nil, fmt.Errorf("pup: no codec registered for kind %d", kind)
	}
	v := c.dec(u)
	if u.Err() != nil {
		return nil, fmt.Errorf("pup: decoding kind %d (%v): %w", kind, c.typ, u.Err())
	}
	if !u.Done() {
		return nil, fmt.Errorf("pup: kind %d (%v): %d trailing bytes", kind, c.typ, u.Remaining())
	}
	return v, nil
}

// Builtin kinds for the Go primitives and primitive slices the collectives
// ship (reduction vectors, migration buffers, scalar broadcasts).
const (
	KindBool    Kind = 1
	KindInt     Kind = 2
	KindInt64   Kind = 3
	KindUint64  Kind = 4
	KindFloat64 Kind = 5
	KindString  Kind = 6
	KindBytes   Kind = 7
	KindInts    Kind = 8
	KindInt64s  Kind = 9
	KindUint64s Kind = 10
	KindF64s    Kind = 11
	KindInt32s  Kind = 12
)

func init() {
	RegisterCodec[bool](KindBool, func(p *PUPer, v *bool) { p.Bool(v) })
	RegisterCodec[int](KindInt, func(p *PUPer, v *int) { p.Int(v) })
	RegisterCodec[int64](KindInt64, func(p *PUPer, v *int64) {
		u := uint64(*v)
		p.Uint64(&u)
		// Write back only when restoring: packing a payload must not
		// mutate it (the sender may still be reading the value it sent).
		if p.Mode() == Unpacking {
			*v = int64(u)
		}
	})
	RegisterCodec[uint64](KindUint64, func(p *PUPer, v *uint64) { p.Uint64(v) })
	RegisterCodec[float64](KindFloat64, func(p *PUPer, v *float64) { p.Float64(v) })
	RegisterCodec[string](KindString, func(p *PUPer, v *string) { p.String(v) })
	RegisterCodec[[]byte](KindBytes, func(p *PUPer, v *[]byte) { p.ByteSlice(v) })
	RegisterCodec[[]int](KindInts, func(p *PUPer, v *[]int) {
		Slice(p, v, 8, func(p *PUPer, e *int) { p.Int(e) })
	})
	RegisterCodec[[]int64](KindInt64s, func(p *PUPer, v *[]int64) {
		Slice(p, v, 8, func(p *PUPer, e *int64) {
			u := uint64(*e)
			p.Uint64(&u)
			if p.Mode() == Unpacking {
				*e = int64(u)
			}
		})
	})
	RegisterCodec[[]uint64](KindUint64s, func(p *PUPer, v *[]uint64) {
		Slice(p, v, 8, func(p *PUPer, e *uint64) { p.Uint64(e) })
	})
	RegisterCodec[[]float64](KindF64s, func(p *PUPer, v *[]float64) { p.Float64s(v) })
	RegisterCodec[[]int32](KindInt32s, func(p *PUPer, v *[]int32) {
		Slice(p, v, 4, func(p *PUPer, e *int32) { p.Int32(e) })
	})
}
