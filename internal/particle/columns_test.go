package particle_test

// A particle crosses a socket and lands in a checkpoint only as a row of
// core.SoA columns, through core.PUPColumns; these tests pin that traversal
// on particles, and the verifier's rules that take the place of a
// per-particle validity check.

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/pup"
)

func sample() particle.Particle {
	return particle.Particle{
		ID: 42, X: 1.5, Y: 2.5, VX: 0, VY: 3,
		Q: -0.353553, X0: 0.5, Y0: 2.5, K: 1, M: 3, Dir: 1, Born: 7,
	}
}

// columns is a core.SoA through core.PUPColumns as a pup.PUPable.
type columns struct{ core.SoA }

func (c *columns) PUP(p *pup.PUPer) { core.PUPColumns(p, &c.SoA) }

// encode and decode are that traversal over particles, as a socket reaches
// it: ColumnsFrameBytes of framing, then ColumnsBytesPerParticle each.
func encode(t testing.TB, ps []particle.Particle) []byte {
	t.Helper()
	buf, err := pup.Pack(&columns{*core.NewSoA(ps)})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func decode(buf []byte) ([]particle.Particle, error) {
	var c columns
	if err := pup.Unpack(&c, buf); err != nil {
		return nil, err
	}
	return c.AppendParticles(nil), nil
}

// FuzzDecode feeds arbitrary bytes to the columns traversal: it must never
// panic, and any buffer it accepts must re-encode to the same bytes.
func FuzzDecode(f *testing.F) {
	f.Add(encode(f, []particle.Particle{{ID: 1, X: 0.5, Y: 0.5, Q: -0.35, X0: 0.5, Y0: 0.5, Dir: 1}}))
	f.Add([]byte{})
	f.Add(make([]byte, core.ColumnsFrameBytes+core.ColumnsBytesPerParticle-1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		ps, err := decode(data)
		if err != nil {
			return
		}
		if got := encode(t, ps); string(got) != string(data) {
			t.Fatalf("accepted buffer does not round-trip")
		}
	})
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	p := sample()
	buf := encode(t, []particle.Particle{p})
	if len(buf) != core.ColumnsFrameBytes+core.ColumnsBytesPerParticle {
		t.Fatalf("encoded size %d, want %d", len(buf), core.ColumnsFrameBytes+core.ColumnsBytesPerParticle)
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
	roundtrips := func(p particle.Particle) bool {
		out, err := decode(encode(t, []particle.Particle{p}))
		return err == nil && len(out) == 1 && bits(out[0]) == bits(p)
	}
	f := func(id uint64, fl [7]uint64, k, m, dir, born int32) bool {
		v := func(i int) float64 { return math.Float64frombits(fl[i]) }
		return roundtrips(particle.Particle{ID: id, X: v(0), Y: v(1), VX: v(2), VY: v(3), Q: v(4),
			X0: v(5), Y0: v(6), K: k, M: m, Dir: dir, Born: born})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7FF8_0000_DEAD_BEEF)
	if !roundtrips(particle.Particle{ID: math.MaxUint64, X: negZero, Y: nan, VX: math.Inf(-1), VY: negZero,
		Q: nan, X0: negZero, Y0: nan, K: math.MinInt32, M: -1, Dir: -1, Born: math.MaxInt32}) {
		t.Error("-0 / NaN payload / extreme integers did not survive the round trip")
	}
}

func bits(p particle.Particle) [12]uint64 {
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
	// never a shorter set silently accepted.
	buf := encode(t, []particle.Particle{sample(), sample()})
	for n := 0; n < len(buf); n++ {
		if out, err := decode(buf[:n]); err == nil {
			t.Fatalf("%d of %d bytes accepted as %d particles", n, len(buf), len(out))
		}
	}
}

func TestEncodeDecodeSlice(t *testing.T) {
	ps := []particle.Particle{sample(), sample(), sample()}
	ps[1].ID = 43
	ps[2].ID = 44
	buf := encode(t, ps)
	if want := core.ColumnsFrameBytes + 3*core.ColumnsBytesPerParticle; len(buf) != want {
		t.Fatalf("3 particles in %d bytes, want %d", len(buf), want)
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
	empty, err := decode(encode(t, nil))
	if err != nil || len(empty) != 0 {
		t.Errorf("empty set: %v, %v", empty, err)
	}
}

// verifier returns a verifier for the state after one step on an 8×8 mesh,
// for IDs 1..n.
func verifier(t *testing.T, n int) *core.ColumnVerifier {
	t.Helper()
	m, err := grid.NewMesh(8, grid.DefaultCharge)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewColumnVerifier(m, 1, 0, 1, n)
}

// moved is particle id one step after its placement at (0.5, 2.5) with
// K = 0, M = 1, Dir = 1: one cell right, one cell up, vx = 2.
func moved(id uint64) particle.Particle {
	return particle.Particle{ID: id, X: 1.5, Y: 3.5, VX: 2, VY: 1, Q: -0.35, X0: 0.5, Y0: 2.5, M: 1, Dir: 1}
}

// TestIDSum pins the lost-particle checksum of paper §III-D as the run
// verifier tallies it: n survivors with IDs 1..n sum to n(n+1)/2.
func TestIDSum(t *testing.T) {
	ps := make([]particle.Particle, 100)
	for i := range ps {
		ps[i] = moved(uint64(i + 1))
	}
	v := verifier(t, len(ps))
	if err := v.Check(core.NewSoA(ps)); err != nil {
		t.Fatal(err)
	}
	if v.Count != 100 || v.IDSum != 100*101/2 {
		t.Errorf("Count %d IDSum %d, want 100 and %d", v.Count, v.IDSum, 100*101/2)
	}
	if err := v.Check(core.NewSoA(nil)); err != nil || v.IDSum != 100*101/2 {
		t.Errorf("an empty container moved the tally to %d (%v)", v.IDSum, err)
	}
}

// TestValidate pins that the verifier rejects every kind of invalid
// particle: a zero ID, a position off its trajectory or outside the domain,
// NaN state, a negative K, and a Dir that is not ±1.
func TestValidate(t *testing.T) {
	if err := verifier(t, 1).Check(core.NewSoA([]particle.Particle{moved(1)})); err != nil {
		t.Fatalf("valid particle rejected: %v", err)
	}
	for _, tc := range []struct {
		want   string
		mutate func(*particle.Particle)
	}{
		{"outside the run's range", func(p *particle.Particle) { p.ID = 0 }},
		{"x=", func(p *particle.Particle) { p.X = -0.1 }},
		{"y=", func(p *particle.Particle) { p.Y = 8 }},
		{"x=", func(p *particle.Particle) { p.X = math.NaN() }},
		{"vx=", func(p *particle.Particle) { p.VX = math.NaN() }},
		{"vy=", func(p *particle.Particle) { p.VY = math.NaN() }},
		{"x=", func(p *particle.Particle) { p.K = -1 }},
		{"x=", func(p *particle.Particle) { p.Dir = 0 }},
	} {
		p := moved(1)
		tc.mutate(&p)
		err := verifier(t, 1).Check(core.NewSoA([]particle.Particle{p}))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: got %v, want an error containing %q", p, err, tc.want)
		}
	}
}
