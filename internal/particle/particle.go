// Package particle defines the charged particles of the PIC PRK, together
// with the bookkeeping needed for the closed-form verification of paper
// §III-D and a compact binary wire encoding used when particles migrate
// between ranks or virtual processors.
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

// EncodedSize is the number of bytes in the wire encoding of one particle.
const EncodedSize = 8 + 7*8 + 4*4 // ID + 7 float64 + 4 int32

// Encode appends the wire encoding of p to dst and returns the extended
// slice. The encoding is little-endian and fixed-size.
func (p *Particle) Encode(dst []byte) []byte {
	dst = appendU64(dst, p.ID)
	dst = appendF64(dst, p.X)
	dst = appendF64(dst, p.Y)
	dst = appendF64(dst, p.VX)
	dst = appendF64(dst, p.VY)
	dst = appendF64(dst, p.Q)
	dst = appendF64(dst, p.X0)
	dst = appendF64(dst, p.Y0)
	dst = appendU32(dst, uint32(p.K))
	dst = appendU32(dst, uint32(p.M))
	dst = appendU32(dst, uint32(p.Dir))
	dst = appendU32(dst, uint32(p.Born))
	return dst
}

// Decode reads one particle from the front of src, returning the remainder.
func (p *Particle) Decode(src []byte) ([]byte, error) {
	if len(src) < EncodedSize {
		return src, fmt.Errorf("particle: short buffer %d < %d", len(src), EncodedSize)
	}
	p.ID, src = takeU64(src)
	p.X, src = takeF64(src)
	p.Y, src = takeF64(src)
	p.VX, src = takeF64(src)
	p.VY, src = takeF64(src)
	p.Q, src = takeF64(src)
	p.X0, src = takeF64(src)
	p.Y0, src = takeF64(src)
	var u uint32
	u, src = takeU32(src)
	p.K = int32(u)
	u, src = takeU32(src)
	p.M = int32(u)
	u, src = takeU32(src)
	p.Dir = int32(u)
	u, src = takeU32(src)
	p.Born = int32(u)
	return src, nil
}

// EncodeSlice encodes all particles in ps into a fresh buffer.
func EncodeSlice(ps []Particle) []byte {
	buf := make([]byte, 0, len(ps)*EncodedSize)
	for i := range ps {
		buf = ps[i].Encode(buf)
	}
	return buf
}

// DecodeSlice decodes a buffer produced by EncodeSlice.
func DecodeSlice(buf []byte) ([]Particle, error) {
	if len(buf)%EncodedSize != 0 {
		return nil, fmt.Errorf("particle: buffer length %d not a multiple of record size %d", len(buf), EncodedSize)
	}
	ps := make([]Particle, len(buf)/EncodedSize)
	var err error
	for i := range ps {
		buf, err = ps[i].Decode(buf)
		if err != nil {
			return nil, err
		}
	}
	return ps, nil
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

func appendU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func takeU64(b []byte) (uint64, []byte) {
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return v, b[8:]
}

func takeU32(b []byte) (uint32, []byte) {
	v := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	return v, b[4:]
}

func takeF64(b []byte) (float64, []byte) {
	u, rest := takeU64(b)
	return math.Float64frombits(u), rest
}
