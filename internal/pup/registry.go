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
// The codec contract has two rules. Packing must not mutate the payload: a
// transport may serialize while the sending rank is still reading the value
// it sent, so a traversal writes through its pointers only when unpacking.
// Unpacking must not alias the body: a transport decodes out of a buffer it
// overwrites with the next message, so everything a decoded value keeps is
// copied out (String, ByteSlice, the column traversals and Slice all do;
// a traversal that calls Window itself must too).

import (
	"fmt"
	"reflect"
	"sync"
)

// Kind identifies a registered payload type on the wire. Kind ranges are
// assigned per package to keep registrations collision-free:
//
//	0         untyped nil (built in, no registration)
//	1–19      pup: Go builtins and primitive slices
//	20–29     internal/comm
//	30–39     internal/particle
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
	if v == nil {
		return dst, KindNil, nil
	}
	c := lookupType(reflect.TypeOf(v))
	if c == nil {
		return nil, 0, fmt.Errorf("pup: no codec registered for payload type %T", v)
	}
	dst, err := appendPacked(dst, func(p *PUPer) { c.enc(p, v) })
	if err != nil {
		return nil, 0, fmt.Errorf("pup: encoding %T: %w", v, err)
	}
	return dst, c.kind, nil
}

// DecodePayload reconstructs a payload from its kind and packed body. The
// whole body must be consumed.
func DecodePayload(kind Kind, body []byte) (any, error) {
	if kind == KindNil {
		if len(body) != 0 {
			return nil, fmt.Errorf("pup: %d stray bytes on a nil payload", len(body))
		}
		return nil, nil
	}
	c := lookupKind(kind)
	if c == nil {
		return nil, fmt.Errorf("pup: no codec registered for kind %d", kind)
	}
	u := NewUnpacker(body)
	v := c.dec(u)
	if u.Err() != nil {
		return nil, fmt.Errorf("pup: decoding kind %d (%v): %w", kind, c.typ, u.Err())
	}
	if !u.Done() {
		return nil, fmt.Errorf("pup: kind %d (%v): %d trailing bytes", kind, c.typ, len(body)-u.off)
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
		Slice(p, v, func(p *PUPer, e *int) { p.Int(e) })
	})
	RegisterCodec[[]int64](KindInt64s, func(p *PUPer, v *[]int64) {
		Slice(p, v, func(p *PUPer, e *int64) {
			u := uint64(*e)
			p.Uint64(&u)
			if p.Mode() == Unpacking {
				*e = int64(u)
			}
		})
	})
	RegisterCodec[[]uint64](KindUint64s, func(p *PUPer, v *[]uint64) {
		Slice(p, v, func(p *PUPer, e *uint64) { p.Uint64(e) })
	})
	RegisterCodec[[]float64](KindF64s, func(p *PUPer, v *[]float64) { p.Float64s(v) })
	RegisterCodec[[]int32](KindInt32s, func(p *PUPer, v *[]int32) {
		Slice(p, v, func(p *PUPer, e *int32) { p.Int32(e) })
	})
}
