package pup_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/pup"
)

// shard returns n particles whose fields draw on the bit patterns a
// byte-order mistake would scramble distinctly: NaN payloads, −0, extreme
// and negative integers.
func shard(rng *rand.Rand, n int) *core.SoA {
	edge := []uint64{0, 1 << 63, 0x7ff8000000000001, 0xfff8dead0000beef, 1, 0x7fefffffffffffff}
	f := func() float64 {
		if rng.Intn(3) == 0 {
			return math.Float64frombits(edge[rng.Intn(len(edge))])
		}
		return math.Float64frombits(rng.Uint64())
	}
	i32 := func() int32 { return [...]int32{0, -1, math.MinInt32, math.MaxInt32, int32(rng.Uint32())}[rng.Intn(5)] }
	c := &core.SoA{}
	for i := 0; i < n; i++ {
		c.X, c.Y, c.VX = append(c.X, f()), append(c.Y, f()), append(c.VX, f())
		c.VY, c.Q = append(c.VY, f()), append(c.Q, f())
		c.Meta = append(c.Meta, core.SoAMeta{ID: rng.Uint64(), X0: f(), Y0: f(), K: i32(), M: i32(), Dir: i32(), Born: i32()})
	}
	return c
}

// encode returns v's EncodePayload bytes and requires a Gather's segments
// to carry the same.
func encode(t *testing.T, v any) ([]byte, pup.Kind) {
	t.Helper()
	body, kind, err := pup.EncodePayload(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	var g pup.Gather
	segs, _, err := g.Encode(0, v)
	if err != nil || !bytes.Equal(bytes.Join(segs, nil), body) {
		t.Fatalf("%T: gather encoding differs from EncodePayload's (err %v)", v, err)
	}
	return body, kind
}

// decode decodes body with DecodePayload and with a Decoder fed one byte
// per read, requires the two to agree, and returns whether body was
// accepted and, if so, the value re-encoded.
func decode(t *testing.T, kind pup.Kind, body []byte) (bool, []byte) {
	t.Helper()
	v, err := pup.DecodePayload(kind, body)
	var d pup.Decoder
	sv, serr := d.Decode(kind, iotest.OneByteReader(bytes.NewReader(body)), len(body))
	if (err == nil) != (serr == nil) {
		t.Fatalf("kind %d: buffer decoder says %v, stream decoder %v", kind, err, serr)
	}
	if err != nil {
		return false, nil
	}
	again, _ := encode(t, v)
	if sagain, _ := encode(t, sv); !bytes.Equal(again, sagain) {
		t.Fatalf("kind %d: the stream decoder decoded different values", kind)
	}
	return true, again
}

// TestPortableColumnsMatchNative runs the column traversals down the path a
// big-endian host takes — a byte-order loop over a window instead of the
// columns' memory — and requires exactly the native path's bytes, on the
// exchange golden vector, random shards and float and byte slices past the
// gather cut-over, through the buffer codec and the gather/stream pair alike;
// and that each path decodes the other's bytes, and rejects them truncated.
func TestPortableColumnsMatchNative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	golden := &core.SoA{ // core.TestColumnsWireGolden's shard
		X: []float64{1.5}, Y: []float64{-2.25}, VX: []float64{3.0}, VY: []float64{-0.5}, Q: []float64{7.75},
		Meta: []core.SoAMeta{{ID: 0x0102030405060708, X0: 0.25, Y0: -8.5, K: 2, M: -3, Dir: 1, Born: 4}},
	}
	payloads := []any{golden, (*core.SoA)(nil), &core.SoA{}, []float64{math.Inf(-1), 2}, bytes.Repeat([]byte{1, 2, 3}, 3000)}
	for _, n := range []int{1, 3, 700, 2000} {
		c := shard(rng, n)
		payloads = append(payloads, c, c.X)
	}
	for _, v := range payloads {
		native, kind := encode(t, v)
		restore := pup.SetNativeOrder(false)
		portable, _ := encode(t, v)
		okP, backP := decode(t, kind, native)
		truncP := len(native) > 0 && func() bool { ok, _ := decode(t, kind, native[:len(native)-1]); return ok }()
		restore()
		okN, backN := decode(t, kind, portable)
		switch {
		case !bytes.Equal(portable, native):
			t.Fatalf("%T: the portable path encodes different bytes", v)
		case !okP || !okN || !bytes.Equal(backP, native) || !bytes.Equal(backN, native):
			t.Fatalf("%T: one path does not decode the other's bytes to the same values", v)
		case truncP:
			t.Fatalf("%T: the portable path accepted a truncated body", v)
		}
	}
}
