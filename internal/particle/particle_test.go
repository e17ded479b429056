package particle

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/parres/picprk/internal/pup"
)

func sample() Particle {
	return Particle{
		ID: 42, X: 1.5, Y: 2.5, VX: 0, VY: 3,
		Q: -0.353553, X0: 0.5, Y0: 2.5, K: 1, M: 3, Dir: 1, Born: 7,
	}
}

// wireSize is what one particle occupies on the wire: ID, seven float64
// and four int32. A payload is the 8-byte length prefix plus that per
// particle.
const wireSize = 8 + 7*8 + 4*4

// particles is a length-prefixed []Particle through Particle.PUP, the
// traversal the driver's end-of-run report carries particles with.
type particles []Particle

func (ps *particles) PUP(p *pup.PUPer) {
	pup.Slice(p, (*[]Particle)(ps), wireSize, func(p *pup.PUPer, e *Particle) { e.PUP(p) })
}

// encode and decode are that traversal, as a socket reaches it.
func encode(t testing.TB, ps []Particle) []byte {
	t.Helper()
	v := particles(ps)
	buf, err := pup.Pack(&v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func decode(buf []byte) ([]Particle, error) {
	var v particles
	if err := pup.Unpack(&v, buf); err != nil {
		return nil, err
	}
	return v, nil
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	p := sample()
	buf := encode(t, []Particle{p})
	if len(buf) != 8+wireSize {
		t.Fatalf("encoded size %d, want %d", len(buf), 8+wireSize)
	}
	out, err := decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != p {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", out, p)
	}
}

func TestEncodeDecodeRoundtripProperty(t *testing.T) {
	// Floats are drawn as bit patterns so NaN payloads, infinities and -0
	// occur; == cannot compare those, so compare bit patterns too.
	roundtrips := func(p Particle) bool {
		out, err := decode(encode(t, []Particle{p}))
		return err == nil && len(out) == 1 && bits(out[0]) == bits(p)
	}
	f := func(id uint64, fl [7]uint64, k, m, dir, born int32) bool {
		v := func(i int) float64 { return math.Float64frombits(fl[i]) }
		return roundtrips(Particle{ID: id, X: v(0), Y: v(1), VX: v(2), VY: v(3), Q: v(4),
			X0: v(5), Y0: v(6), K: k, M: m, Dir: dir, Born: born})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7FF8_0000_DEAD_BEEF)
	if !roundtrips(Particle{ID: math.MaxUint64, X: negZero, Y: nan, VX: math.Inf(-1), VY: negZero,
		Q: nan, X0: negZero, Y0: nan, K: math.MinInt32, M: -1, Dir: -1, Born: math.MaxInt32}) {
		t.Error("-0 / NaN payload / extreme integers did not survive the round trip")
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
	// Every proper prefix of a valid payload is an error, never a panic and
	// never a shorter slice silently accepted.
	buf := encode(t, []Particle{sample(), sample()})
	for n := 0; n < len(buf); n++ {
		if out, err := decode(buf[:n]); err == nil {
			t.Fatalf("%d of %d bytes accepted as %d particles", n, len(buf), len(out))
		}
	}
}

func TestEncodeDecodeSlice(t *testing.T) {
	ps := []Particle{sample(), sample(), sample()}
	ps[1].ID = 43
	ps[2].ID = 44
	buf := encode(t, ps)
	if len(buf) != 8+3*wireSize {
		t.Fatalf("3 particles in %d bytes, want %d", len(buf), 8+3*wireSize)
	}
	out, err := decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ps, out) {
		t.Fatal("slice roundtrip mismatch")
	}
	if _, err := decode(append(buf, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// A length prefix that promises more than the body holds.
	buf[0]++
	if _, err := decode(buf); err == nil {
		t.Error("overlong length prefix accepted")
	}
	empty, err := decode(encode(t, []Particle{}))
	if err != nil || len(empty) != 0 {
		t.Errorf("empty slice: %v, %v", empty, err)
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
