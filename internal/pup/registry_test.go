package pup

import (
	"math"
	"reflect"
	"testing"
)

// testPair is a registered struct payload for round-trip tests.
type testPair struct {
	A int
	B float64
}

// testKind* live in the test range (100–199).
const (
	testKindPair    Kind = 100
	testKindPairPtr Kind = 101
	testKindShrink  Kind = 102
)

// testShrinker's codec sizes 16 bytes and packs 8.
type testShrinker struct{}

func init() {
	RegisterCodec[testPair](testKindPair, func(p *PUPer, v *testPair) {
		p.Int(&v.A)
		p.Float64(&v.B)
	})
	RegisterPtrCodec[testPair](testKindPairPtr, func(p *PUPer, v *testPair) {
		p.Int(&v.A)
		p.Float64(&v.B)
	})
	RegisterCodec[testShrinker](testKindShrink, func(p *PUPer, v *testShrinker) {
		var x int
		p.Int(&x)
		if p.Mode() == Sizing {
			p.Int(&x)
		}
	})
}

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	body, kind, err := EncodePayload(nil, v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	got, err := DecodePayload(kind, body)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return got
}

func TestPayloadRoundTripBuiltins(t *testing.T) {
	cases := []any{
		true,
		int(-42),
		int64(-1 << 40),
		uint64(1) << 63,
		math.Copysign(0, -1), // -0.0 must survive bitwise
		"hello wire",
		[]byte{0, 1, 2, 255},
		[]int{3, -4, 5},
		[]int64{-9, 9},
		[]uint64{1, 2, 3},
		[]float64{1.5, -2.25, math.Inf(1)},
		[]int32{-7, 7},
		testPair{A: 7, B: 2.5},
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %T: got %#v, want %#v", v, got, v)
		}
	}
}

func TestPayloadNil(t *testing.T) {
	body, kind, err := EncodePayload(nil, nil)
	if err != nil || kind != KindNil || len(body) != 0 {
		t.Fatalf("nil encode: body=%v kind=%d err=%v", body, kind, err)
	}
	got, err := DecodePayload(KindNil, nil)
	if err != nil || got != nil {
		t.Fatalf("nil decode: got=%v err=%v", got, err)
	}
}

func TestPayloadTypedNilPointer(t *testing.T) {
	var p *testPair
	got := roundTrip(t, p)
	tp, ok := got.(*testPair)
	if !ok || tp != nil {
		t.Fatalf("typed nil pointer: got %#v (%T)", got, got)
	}
	// A non-nil pointer decodes to a fresh pointer with equal contents.
	got = roundTrip(t, &testPair{A: 1, B: -1})
	tp, ok = got.(*testPair)
	if !ok || tp == nil || tp.A != 1 || tp.B != -1 {
		t.Fatalf("pointer payload: got %#v (%T)", got, got)
	}
}

// TestEncodePayloadAppendsInPlace pins what lets a transport reserve a
// header and encode behind it: the body lands in dst's own storage when the
// capacity suffices, and what dst already held is untouched.
func TestEncodePayloadAppendsInPlace(t *testing.T) {
	dst := make([]byte, 3, 256)
	copy(dst, "hdr")
	out, kind, err := EncodePayload(dst, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[0] || string(out[:3]) != "hdr" {
		t.Fatalf("encode did not append in place: prefix %q, moved=%v", out[:3], &out[0] != &dst[0])
	}
	got, err := DecodePayload(kind, out[3:])
	if err != nil || !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Fatalf("body behind the prefix decoded to %v, %v", got, err)
	}
	// A dst too small grows, still keeping the prefix.
	out, _, err = EncodePayload(dst[:3:3], []float64{1, 2, 3})
	if err != nil || string(out[:3]) != "hdr" || len(out) != 3+8+24 {
		t.Fatalf("grown encode: len %d prefix %q err %v", len(out), out[:3], err)
	}
}

// TestEncodePayloadRejectsSizeMismatch: a traversal that packs fewer bytes
// than it sized would leave stale buffer contents in the body.
func TestEncodePayloadRejectsSizeMismatch(t *testing.T) {
	if _, _, err := EncodePayload(nil, testShrinker{}); err == nil {
		t.Fatal("a codec that packs less than it sized was accepted")
	}
}

func TestPayloadUnregisteredType(t *testing.T) {
	type unregistered struct{ X int }
	if _, _, err := EncodePayload(nil, unregistered{}); err == nil {
		t.Fatal("encoding an unregistered type succeeded")
	}
	if _, err := DecodePayload(Kind(65535), nil); err == nil {
		t.Fatal("decoding an unregistered kind succeeded")
	}
}

func TestPayloadTrailingBytes(t *testing.T) {
	body, kind, err := EncodePayload(nil, int(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(kind, append(body, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodePayload(kind, body[:len(body)-1]); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate kind registration did not panic")
		}
	}()
	RegisterCodec[struct{ Y uint64 }](testKindPair, func(p *PUPer, v *struct{ Y uint64 }) { p.Uint64(&v.Y) })
}
