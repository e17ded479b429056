package pup

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

type demo struct {
	A   uint64
	B   int
	C   int32
	D   float64
	E   bool
	F   []float64
	G   string
	Sub []pair
}

type pair struct{ X, Y int }

func (d *demo) PUP(p *PUPer) {
	p.Uint64(&d.A)
	p.Int(&d.B)
	p.Int32(&d.C)
	p.Float64(&d.D)
	p.Bool(&d.E)
	p.Float64s(&d.F)
	p.String(&d.G)
	Slice(p, &d.Sub, 16, func(p *PUPer, e *pair) {
		p.Int(&e.X)
		p.Int(&e.Y)
	})
}

func TestPackUnpackRoundtrip(t *testing.T) {
	in := demo{
		A: 12345678901234567, B: -42, C: -7, D: math.Pi, E: true,
		F: []float64{1.5, -2.5, 0}, G: "hello pup",
		Sub: []pair{{1, 2}, {3, 4}},
	}
	buf, err := Pack(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out demo
	if err := Unpack(&out, buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestPackUnpackEmptySlices(t *testing.T) {
	in := demo{G: "", F: nil, Sub: nil}
	buf, err := Pack(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out demo
	if err := Unpack(&out, buf); err != nil {
		t.Fatal(err)
	}
	if len(out.F) != 0 || len(out.Sub) != 0 || out.G != "" {
		t.Fatalf("empty roundtrip gave %+v", out)
	}
}

func TestSizingMatchesPacking(t *testing.T) {
	in := demo{F: make([]float64, 100), G: "abc", Sub: make([]pair, 5)}
	s := NewSizer()
	in.PUP(s)
	buf, err := Pack(&in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != len(buf) {
		t.Fatalf("sizer said %d, packer produced %d", s.Size(), len(buf))
	}
}

func TestUnpackShortBuffer(t *testing.T) {
	in := demo{F: []float64{1, 2, 3}, G: "xyz"}
	buf, _ := Pack(&in)
	for _, cut := range []int{0, 1, 8, len(buf) - 1} {
		var out demo
		if err := Unpack(&out, buf[:cut]); err == nil {
			t.Errorf("short buffer (%d bytes) accepted", cut)
		}
	}
}

func TestUnpackTrailingBytes(t *testing.T) {
	in := demo{}
	buf, _ := Pack(&in)
	var out demo
	if err := Unpack(&out, append(buf, 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestUnpackCorruptLength(t *testing.T) {
	in := demo{F: []float64{1}}
	buf, _ := Pack(&in)
	// The F length field sits after A(8)+B(8)+C(4)+D(8)+E(1) = 29 bytes.
	buf[29] = 0xFF
	buf[30] = 0xFF
	var out demo
	if err := Unpack(&out, buf); err == nil {
		t.Error("corrupt slice length accepted")
	}
}

// overflowingLengths returns demo encodings whose slice length prefixes pass
// a whole-buffer plausibility check but not one against the bytes actually
// left: decoding them must fail at the guard, before any allocation sized
// by the prefix. Shared with FuzzUnpack's corpus.
func overflowingLengths() [][]byte {
	head := make([]byte, 29) // A(8)+B(8)+C(4)+D(8)+E(1)
	le := binary.LittleEndian
	// F claims len(buf)/8 floats with two floats' worth of bytes behind it.
	f := le.AppendUint64(append([]byte(nil), head...), 6)
	f = append(f, make([]byte, 16)...)
	// F and G empty; Sub claims len(buf) elements with 32 bytes behind it.
	sub := append(append([]byte(nil), head...), make([]byte, 16)...)
	sub = le.AppendUint64(sub, 85)
	sub = append(sub, make([]byte, 32)...)
	return [][]byte{f, sub}
}

func TestUnpackLengthBoundedByRemaining(t *testing.T) {
	for i, buf := range overflowingLengths() {
		var out demo
		err := Unpack(&out, buf)
		if err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Errorf("case %d: length prefix beyond the remaining bytes not rejected by the guard: %v", i, err)
		}
		if cap(out.F) > len(buf)/8 || cap(out.Sub) > len(buf) {
			t.Errorf("case %d: allocated %d floats / %d pairs for a %d-byte buffer", i, cap(out.F), cap(out.Sub), len(buf))
		}
	}
}

func TestErrorsStickAndStopTraversal(t *testing.T) {
	u := NewUnpacker([]byte{1, 2}) // too short for anything
	var v uint64
	u.Uint64(&v)
	first := u.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	var f float64
	u.Float64(&f) // must not panic or overwrite the first error
	if u.Err() != first {
		t.Error("error was overwritten")
	}
}

func TestPUPRoundtripProperty(t *testing.T) {
	f := func(a uint64, b int64, c int32, d float64, e bool, fs []float64, g string) bool {
		in := demo{A: a, B: int(b), C: c, D: d, E: e, F: fs, G: g}
		buf, err := Pack(&in)
		if err != nil {
			return false
		}
		var out demo
		if err := Unpack(&out, buf); err != nil {
			return false
		}
		// Compare via packed form to sidestep NaN != NaN.
		buf2, err := Pack(&out)
		if err != nil {
			return false
		}
		return string(buf) == string(buf2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModeAccessors(t *testing.T) {
	if NewSizer().Mode() != Sizing || NewPacker(0).Mode() != Packing || NewUnpacker(nil).Mode() != Unpacking {
		t.Error("mode accessors wrong")
	}
}

func BenchmarkPack(b *testing.B) {
	in := demo{F: make([]float64, 1000), G: "benchmark", Sub: make([]pair, 100)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(&in); err != nil {
			b.Fatal(err)
		}
	}
}
