package particle

import (
	"math"
	"testing"
)

// modExpectedAt is ExpectedAt as it stood before the lattice reduction and
// the shared branch-first wrap: the math.Mod form, the reference the
// closed form must equal bit for bit.
func modExpectedAt(p *Particle, s int, L float64) (x, y float64) {
	wrap := func(v float64) float64 {
		v = math.Mod(v, L)
		if v < 0 {
			v += L
		}
		if v >= L {
			v -= L
		}
		return v
	}
	x = p.X0 + float64(p.Dir)*float64(2*int64(p.K)+1)*float64(s)
	y = p.Y0 + float64(p.M)*float64(s)
	return wrap(x), wrap(y)
}

// sameFloat reports whether a and b are the same bits, or both NaN of the
// same class (sign and quiet bit).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		const class = 1<<63 | 1<<51
		return math.Float64bits(a)&class == math.Float64bits(b)&class
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkExpectedAtBitwise(t *testing.T, p Particle, s int, L float64) {
	t.Helper()
	x, y := p.ExpectedAt(s, L)
	wx, wy := modExpectedAt(&p, s, L)
	if !sameFloat(x, wx) || !sameFloat(y, wy) {
		t.Errorf("%+v s=%d L=%v: ExpectedAt = (%v [%#x], %v [%#x]), math.Mod form (%v [%#x], %v [%#x])",
			p, s, L, x, math.Float64bits(x), y, math.Float64bits(y), wx, math.Float64bits(wx), wy, math.Float64bits(wy))
	}
}

// TestExpectedAtMatchesModBitwise sweeps the lattice the kernel places
// particles on — every start cell, both directions, displacements of many
// periods either way — and the edges where the integer reduction must not
// apply: integral starts (where −0 arises), non-integral L, non-finite
// input and magnitudes near 2^52.
func TestExpectedAtMatchesModBitwise(t *testing.T) {
	for _, L := range []int{1, 2, 7, 64, 512} {
		fl := float64(L)
		for c := -1; c <= L; c++ {
			for _, s := range []int{0, 1, 2, L - 1, L, 2*L + 1, 1000, -3, -2 * L} {
				for _, k := range []int32{0, 1, 15} {
					for _, dir := range []int32{1, -1} {
						v := float64(c) + 0.5
						checkExpectedAtBitwise(t, Particle{X0: v, Y0: fl - v, K: k, M: 5 - k, Dir: dir}, s, fl)
						checkExpectedAtBitwise(t, Particle{X0: float64(c), Y0: -float64(c), K: k, M: -1, Dir: dir}, s, fl)
					}
				}
			}
		}
	}
	for _, p := range []Particle{
		{X0: math.NaN(), Y0: math.Inf(1), K: 1, M: 1, Dir: 1},
		{X0: math.Inf(-1), Y0: math.Copysign(0, -1), M: -3, Dir: -1},
		{X0: 1<<50 + 0.5, Y0: -(1<<50 + 0.5), K: 3, M: 2, Dir: 1},
		{X0: 1<<49 + 0.5, Y0: 0.5, K: math.MaxInt32, M: math.MinInt32, Dir: -1},
		{X0: 0.5, Y0: 0.5, K: 1 << 20, M: 1 << 30, Dir: 1},
	} {
		for _, s := range []int{1, 3, 1 << 20, 1 << 40, math.MaxInt64, math.MinInt64} {
			for _, L := range []float64{1, 8, 6.5, 1 << 50, 1e300, math.Inf(1), math.NaN(), 0, -8} {
				checkExpectedAtBitwise(t, p, s, L)
			}
		}
	}
}

// FuzzExpectedAt extends the bitwise pin to whatever trajectories the
// fuzzer finds; `go test` runs the seed corpus.
func FuzzExpectedAt(f *testing.F) {
	f.Add(2.5, 3.5, int32(0), int32(1), int32(1), 7, 8.0)
	f.Add(4.5, 0.5, int32(15), int32(5), int32(-1), 350, 64.0)
	f.Add(0.0, 0.0, int32(0), int32(-1), int32(-1), 8, 8.0)
	f.Add(0.5, 63.5, int32(1), int32(-2), int32(1), 1<<40, 64.0)
	f.Add(math.Inf(1), math.NaN(), int32(2), int32(0), int32(1), 3, 16.0)
	f.Add(0.5, 0.5, int32(1), int32(1), int32(1), 5, 6.5)
	f.Fuzz(func(t *testing.T, x0, y0 float64, k, m, dir int32, s int, L float64) {
		checkExpectedAtBitwise(t, Particle{X0: x0, Y0: y0, K: k, M: m, Dir: dir}, s, L)
	})
}
