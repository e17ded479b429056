package particle

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func sample() Particle {
	return Particle{
		ID: 42, X: 1.5, Y: 2.5, VX: 0, VY: 3,
		Q: -0.353553, X0: 0.5, Y0: 2.5, K: 1, M: 3, Dir: 1, Born: 7,
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	p := sample()
	buf := p.Encode(nil)
	if len(buf) != EncodedSize {
		t.Fatalf("encoded size %d, want %d", len(buf), EncodedSize)
	}
	var q Particle
	rest, err := q.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("leftover %d bytes", len(rest))
	}
	if q != p {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", q, p)
	}
}

func TestEncodeDecodeRoundtripProperty(t *testing.T) {
	f := func(id uint64, x, y, vx, vy, q float64, k, m int32, born int32, neg bool) bool {
		dir := int32(1)
		if neg {
			dir = -1
		}
		p := Particle{ID: id, X: x, Y: y, VX: vx, VY: vy, Q: q,
			X0: x, Y0: y, K: k, M: m, Dir: dir, Born: born}
		var out Particle
		if _, err := out.Decode(p.Encode(nil)); err != nil {
			return false
		}
		// NaN payloads break == comparison; compare bit patterns instead.
		return reflect.DeepEqual(bits(p), bits(out))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func bits(p Particle) [12]uint64 {
	return [12]uint64{
		p.ID,
		math.Float64bits(p.X), math.Float64bits(p.Y),
		math.Float64bits(p.VX), math.Float64bits(p.VY),
		math.Float64bits(p.Q), math.Float64bits(p.X0), math.Float64bits(p.Y0),
		uint64(uint32(p.K)), uint64(uint32(p.M)), uint64(uint32(p.Dir)), uint64(uint32(p.Born)),
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	var p Particle
	if _, err := p.Decode(make([]byte, EncodedSize-1)); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestEncodeDecodeSlice(t *testing.T) {
	ps := []Particle{sample(), sample(), sample()}
	ps[1].ID = 43
	ps[2].ID = 44
	out, err := DecodeSlice(EncodeSlice(ps))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ps, out) {
		t.Fatal("slice roundtrip mismatch")
	}
	if _, err := DecodeSlice(make([]byte, EncodedSize+1)); err == nil {
		t.Error("ragged buffer accepted")
	}
	empty, err := DecodeSlice(nil)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty buffer: %v, %v", empty, err)
	}
}

func TestExpectedAt(t *testing.T) {
	p := Particle{X0: 2.5, Y0: 3.5, K: 0, M: 1, Dir: 1}
	x, y := p.ExpectedAt(3, 8)
	if x != 5.5 || y != 6.5 {
		t.Errorf("got (%v,%v), want (5.5,6.5)", x, y)
	}
	// Wraps periodically.
	x, y = p.ExpectedAt(7, 8)
	if x != 1.5 || y != 2.5 {
		t.Errorf("wrap: got (%v,%v), want (1.5,2.5)", x, y)
	}
	// K>1 and negative direction.
	p = Particle{X0: 4.5, Y0: 0.5, K: 1, M: -1, Dir: -1}
	x, y = p.ExpectedAt(1, 8)
	if x != 1.5 || y != 7.5 {
		t.Errorf("k/dir: got (%v,%v), want (1.5,7.5)", x, y)
	}
}

func TestExpectedAtZeroSteps(t *testing.T) {
	p := Particle{X0: 2.5, Y0: 3.5, K: 2, M: 5, Dir: 1}
	x, y := p.ExpectedAt(0, 8)
	if x != 2.5 || y != 3.5 {
		t.Errorf("s=0 must return the initial position, got (%v,%v)", x, y)
	}
}

func TestIDSum(t *testing.T) {
	ps := make([]Particle, 100)
	for i := range ps {
		ps[i].ID = uint64(i + 1)
	}
	if got := IDSum(ps); got != 100*101/2 {
		t.Errorf("IDSum = %d, want %d", got, 100*101/2)
	}
	if IDSum(nil) != 0 {
		t.Error("IDSum(nil) != 0")
	}
}

func TestValidate(t *testing.T) {
	good := sample()
	if err := good.Validate(8); err != nil {
		t.Errorf("valid particle rejected: %v", err)
	}
	cases := []func(*Particle){
		func(p *Particle) { p.ID = 0 },
		func(p *Particle) { p.X = -0.1 },
		func(p *Particle) { p.Y = 8 },
		func(p *Particle) { p.VX = math.NaN() },
		func(p *Particle) { p.K = -1 },
		func(p *Particle) { p.Dir = 0 },
	}
	for i, mutate := range cases {
		p := sample()
		mutate(&p)
		if err := p.Validate(8); err == nil {
			t.Errorf("case %d: invalid particle accepted", i)
		}
	}
}

func BenchmarkEncodeSlice(b *testing.B) {
	ps := make([]Particle, 1000)
	for i := range ps {
		ps[i] = sample()
		ps[i].ID = uint64(i + 1)
	}
	b.SetBytes(int64(len(ps) * EncodedSize))
	for i := 0; i < b.N; i++ {
		EncodeSlice(ps)
	}
}

func BenchmarkDecodeSlice(b *testing.B) {
	ps := make([]Particle, 1000)
	for i := range ps {
		ps[i] = sample()
		ps[i].ID = uint64(i + 1)
	}
	buf := EncodeSlice(ps)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSlice(buf); err != nil {
			b.Fatal(err)
		}
	}
}
