// Package particle defines the charged particles of the PIC PRK, together
// with the bookkeeping needed for the closed-form verification of paper
// §III-D and the one byte encoding of a particle: the PUP traversal, which
// carries a []Particle (KindParticles) across a socket and a Simulation
// into a checkpoint.
package particle

import (
	"fmt"
	"math"
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

// Validate performs basic sanity checks used by property tests and by
// drivers when receiving migrated particles.
func (p *Particle) Validate(L float64) error {
	if p.ID == 0 {
		return fmt.Errorf("particle: zero ID")
	}
	if p.X < 0 || p.X >= L || p.Y < 0 || p.Y >= L {
		return fmt.Errorf("particle %d: position (%v,%v) outside [0,%v)", p.ID, p.X, p.Y, L)
	}
	if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsNaN(p.VX) || math.IsNaN(p.VY) {
		return fmt.Errorf("particle %d: NaN state", p.ID)
	}
	if p.K < 0 {
		return fmt.Errorf("particle %d: negative K=%d", p.ID, p.K)
	}
	if p.Dir != 1 && p.Dir != -1 {
		return fmt.Errorf("particle %d: Dir must be ±1, got %d", p.ID, p.Dir)
	}
	return nil
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
	x = p.X0 + float64(p.Dir)*float64(2*int64(p.K)+1)*float64(s)
	y = p.Y0 + float64(p.M)*float64(s)
	return wrap(x, L), wrap(y, L)
}

func wrap(v, L float64) float64 {
	v = math.Mod(v, L)
	if v < 0 {
		v += L
	}
	if v >= L {
		v -= L
	}
	return v
}

// IDSum returns the sum of particle IDs, the cheap lost-particle checksum of
// paper §III-D: for n surviving particles with IDs 1..n it must equal
// n·(n+1)/2.
func IDSum(ps []Particle) uint64 {
	var s uint64
	for i := range ps {
		s += ps[i].ID
	}
	return s
}
