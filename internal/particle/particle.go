// Package particle defines the charged particles of the PIC PRK and their
// closed-form trajectories (paper eqs. 5–6), the rule the verification of
// paper §III-D checks every particle against. A particle crosses a socket or
// lands in a checkpoint only as a row of core.SoA columns.
package particle

import (
	"math"

	"github.com/parres/picprk/internal/grid"
)

// Particle is one free-moving charged particle.
//
// Beyond its dynamic state (position, velocity, charge), a particle carries
// the parameters of its closed-form trajectory (paper eqs. 5–6): its initial
// position, the odd charge multiple (2K+1), the vertical velocity multiple M,
// the sign Dir of its initial horizontal acceleration, and the time step Born
// at which it entered the simulation. These make per-particle verification an
// O(1) computation at any later step.
type Particle struct {
	// ID uniquely identifies the particle; IDs are assigned 1..n so the
	// survivor checksum of paper §III-D applies.
	ID uint64
	// X, Y are the current position in [0, L).
	X, Y float64
	// VX, VY are the current velocity components.
	VX, VY float64
	// Q is the signed charge, a (2K+1) multiple of the base charge from
	// paper eq. 3.
	Q float64
	// X0, Y0 are the position at step Born.
	X0, Y0 float64
	// K is the non-negative integer controlling horizontal speed: the
	// particle crosses (2K+1) cells per step.
	K int32
	// M is the integer controlling vertical speed: the particle moves
	// M cells per step in y.
	M int32
	// Dir is the sign (+1 or -1) of the initial horizontal acceleration.
	Dir int32
	// Born is the time step at which the particle entered the simulation
	// (0 for initial particles, t' for injected ones).
	Born int32
}

// ExpectedAt returns the closed-form position of the particle after it has
// participated in the simulation for s steps since Born (paper eqs. 5–6):
//
//	xs = (x0 + Dir·(2K+1)·s·h) mod L
//	ys = (y0 + M·h·s)          mod L
//
// with h = 1. The computation is exact in float64 for the domain sizes the
// PRK uses (positions are half-integers well below 2^52).
func (p *Particle) ExpectedAt(s int, L float64) (x, y float64) {
	return ClosedForm(p.X0, p.Y0, p.K, p.M, p.Dir, s, L)
}

// ClosedForm is ExpectedAt on the trajectory parameters themselves, for a
// caller that holds them outside a Particle (a column of core.SoAMeta).
func ClosedForm(x0, y0 float64, k, m, dir int32, s int, L float64) (x, y float64) {
	return advance(x0, float64(dir)*float64(2*int64(k)+1)*float64(s), L),
		advance(y0, float64(m)*float64(s), L)
}

// lattice bounds the magnitudes advance reduces in integers: below it a
// half-integer start plus an integral displacement is exact in float64.
const lattice = 1 << 50

// advance returns v0 + d wrapped onto [0, L) by grid.Wrap, bit for bit
// (v0 + d) mod L shifted up by L when negative. A start on the half-cell
// lattice — v0 − ⌊v0⌋ = 0.5, where every placed particle starts — with an
// integral displacement d landing beyond one period takes d mod L in
// integers first: the sum is exact either way and never zero, so both forms
// name the same half-integer and the division math.Mod would do is skipped.
// Every other input (NaN, ±Inf, an integral v0 where −0 can arise, a
// non-integral L, magnitudes near 2^52) wraps v0 + d as computed.
func advance(v0, d, L float64) float64 {
	v := v0 + d
	if !(v > -L && v < 2*L) && math.Abs(d) < lattice && math.Abs(v0) < lattice &&
		v0-math.Floor(v0) == 0.5 && L >= 1 && L < lattice && L == math.Trunc(L) {
		r := int64(d) % int64(L)
		if r < 0 {
			r += int64(L)
		}
		v = v0 + float64(r)
	}
	return grid.Wrap(v, L)
}
