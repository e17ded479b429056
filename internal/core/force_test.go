package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
)

// laneEdges are the inputs where a lane that did not perform forceQQ's
// operations in forceQQ's order would show it: a corner at distance 0
// (relx or rely ∈ {0, 1}, so r2 = 0), signed zeros, subnormals, values
// whose squares underflow or overflow, infinities and NaN.
var laneEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.25, 2,
	5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1e160, 1e300, -1e300,
	math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// sameFloat reports whether a and b have the same bits or are both NaN
// (which NaN an operation on two NaNs returns depends on operand order).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// inputs returns pointers to lane j's six inputs in forceQQ's argument
// order: qq00, qq10, qq01, qq11, rx, ry.
func (b *forceBuf) inputs(j int) [6]*float64 {
	return [6]*float64{&b.qq00[j], &b.qq10[j], &b.qq01[j], &b.qq11[j], &b.rx[j], &b.ry[j]}
}

// checkForce runs force over the first n lanes of b and compares every lane
// with forceQQ on the same inputs; the lanes from n on must be untouched.
func checkForce(t *testing.T, b *forceBuf, n int) {
	t.Helper()
	const untouched = -12345.5
	for j := n; j < laneBlock; j++ {
		b.fx[j], b.fy[j] = untouched, untouched
	}
	force(b, n)
	for j := 0; j < laneBlock; j++ {
		wx, wy := float64(untouched), float64(untouched)
		if j < n {
			wx, wy = b.scalar(j)
		}
		if !sameFloat(b.fx[j], wx) || !sameFloat(b.fy[j], wy) {
			in := b.inputs(j)
			t.Fatalf("n=%d lane %d (qq %v %v %v %v, rel %v %v): force (%v, %v), forceQQ (%v, %v)",
				n, j, *in[0], *in[1], *in[2], *in[3], *in[4], *in[5], b.fx[j], b.fy[j], wx, wy)
		}
	}
}

// TestForceLanesMatchesReference pins the batched force kernel to forceQQ
// bit for bit: at every lane count (the odd tail included) on random and
// edge inputs, and through the move loop at every particle count up to two
// blocks and a few more (the block edges), against the AoS reference.
func TestForceLanesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b forceBuf
	for n := 0; n <= laneBlock; n++ {
		for j := 0; j < laneBlock; j++ {
			for k, in := range b.inputs(j) {
				switch rng.Intn(4) {
				case 0:
					*in = laneEdges[rng.Intn(len(laneEdges))]
				case 1:
					*in = math.Float64frombits(rng.Uint64())
				default:
					*in = rng.Float64()
					if k < 4 {
						*in = 2*(*in) - 1 // a charge product takes either sign
					}
				}
			}
		}
		checkForce(t, &b, n)
	}

	// Every pair of edge values as (relx, rely), each against every edge
	// charge product, in full blocks and the tail.
	var in [][2]float64
	for _, rx := range laneEdges {
		for _, ry := range laneEdges {
			in = append(in, [2]float64{rx, ry})
		}
	}
	for _, qq := range laneEdges {
		for lo := 0; lo < len(in); lo += laneBlock {
			n := min(len(in)-lo, laneBlock)
			for j := 0; j < n; j++ {
				b.qq00[j], b.qq10[j], b.qq01[j], b.qq11[j] = qq, -qq, 0.5*qq, 1
				b.rx[j], b.ry[j] = in[lo+j][0], in[lo+j][1]
			}
			checkForce(t, &b, n)
		}
	}

	m := mesh(t, 32)
	block, err := grid.NewBlock(m, 0, 0, m.L, m.L)
	if err != nil {
		t.Fatal(err)
	}
	ps := hotpathParticles(t, m, 2*laneBlock+3)
	for n := 0; n <= len(ps); n++ {
		ref := append([]particle.Particle(nil), ps[:n]...)
		got := NewSoA(ref)
		MoveAll(ref, block, m)
		moveRange(got, 0, n, block, m, nil, 0, nil, 0)
		assertSoAEqual(t, NewSoA(ref), got, fmt.Sprintf("moveRange over %d particles", n))
	}
}

// FuzzForceLanes feeds the batched force kernel arbitrary bit patterns:
// the input is read as little-endian float64 lanes of six values each
// (qq00, qq10, qq01, qq11, rx, ry), at most laneBlock of them, and every
// lane must be forceQQ's result bit for bit.
func FuzzForceLanes(f *testing.F) {
	lane := func(vs ...float64) []byte {
		out := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(lane(0.25, -0.25, 0.25, -0.25, 0.5, 0.5))
	f.Add(append(lane(1, 1, 1, 1, 0, 1), lane(1, -1, 1, -1, 1, 0)...))
	f.Add(lane(5e-324, math.Copysign(0, -1), 1e300, math.Inf(1), 1e-160, 1e160))
	f.Fuzz(func(t *testing.T, data []byte) {
		var b forceBuf
		n := min(len(data)/48, laneBlock)
		for j := 0; j < n; j++ {
			for k, in := range b.inputs(j) {
				*in = math.Float64frombits(binary.LittleEndian.Uint64(data[48*j+8*k:]))
			}
		}
		checkForce(t, &b, n)
	})
}
