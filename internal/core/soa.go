package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/parres/picprk/internal/particle"
)

// SoA is a structure-of-arrays particle container: the hot fields the move
// kernel touches every step (positions, velocities, charge) live in
// separate dense slices, while the cold verification metadata stays in a
// parallel slice of records. On wide particle sets this layout keeps the
// inner loop's working set to 5 streams of 8 bytes per particle instead of
// the 96-byte AoS record, a standard optimization in production PIC codes;
// BenchmarkMoveAoSvsSoA quantifies the difference on this machine.
type SoA struct {
	X, Y, VX, VY, Q []float64
	// Meta holds the cold per-particle fields (ID and closed-form
	// trajectory parameters), index-aligned with the hot slices.
	Meta []SoAMeta
}

// SoAMeta is the cold part of a particle.
type SoAMeta struct {
	ID     uint64
	X0, Y0 float64
	K, M   int32
	Dir    int32
	Born   int32
}

// metaOf returns the cold part of p.
func metaOf(p *particle.Particle) SoAMeta {
	return SoAMeta{ID: p.ID, X0: p.X0, Y0: p.Y0, K: p.K, M: p.M, Dir: p.Dir, Born: p.Born}
}

// NewSoA converts an AoS particle slice.
func NewSoA(ps []particle.Particle) *SoA {
	s := &SoA{
		X:    make([]float64, len(ps)),
		Y:    make([]float64, len(ps)),
		VX:   make([]float64, len(ps)),
		VY:   make([]float64, len(ps)),
		Q:    make([]float64, len(ps)),
		Meta: make([]SoAMeta, len(ps)),
	}
	for i := range ps {
		p := &ps[i]
		s.X[i], s.Y[i], s.VX[i], s.VY[i], s.Q[i] = p.X, p.Y, p.VX, p.VY, p.Q
		s.Meta[i] = metaOf(p)
	}
	return s
}

// Len returns the particle count.
func (s *SoA) Len() int { return len(s.X) }

// AppendParticles appends every particle, in AoS form, to dst and returns
// the extended slice.
func (s *SoA) AppendParticles(dst []particle.Particle) []particle.Particle {
	for i := range s.X {
		m := s.Meta[i]
		dst = append(dst, particle.Particle{
			ID: m.ID, X: s.X[i], Y: s.Y[i], VX: s.VX[i], VY: s.VY[i], Q: s.Q[i],
			X0: m.X0, Y0: m.Y0, K: m.K, M: m.M, Dir: m.Dir, Born: m.Born,
		})
	}
	return dst
}

// At returns particle i in AoS form.
func (s *SoA) At(i int) particle.Particle {
	m := s.Meta[i]
	return particle.Particle{
		ID: m.ID, X: s.X[i], Y: s.Y[i], VX: s.VX[i], VY: s.VY[i], Q: s.Q[i],
		X0: m.X0, Y0: m.Y0, K: m.K, M: m.M, Dir: m.Dir, Born: m.Born,
	}
}

// Copy copies slot i onto slot w (the in-place compaction primitive).
func (s *SoA) Copy(w, i int) {
	if w == i {
		return
	}
	s.X[w], s.Y[w] = s.X[i], s.Y[i]
	s.VX[w], s.VY[w] = s.VX[i], s.VY[i]
	s.Q[w] = s.Q[i]
	s.Meta[w] = s.Meta[i]
}

// swap exchanges slots i and j.
func (s *SoA) swap(i, j int) {
	s.X[i], s.X[j] = s.X[j], s.X[i]
	s.Y[i], s.Y[j] = s.Y[j], s.Y[i]
	s.VX[i], s.VX[j] = s.VX[j], s.VX[i]
	s.VY[i], s.VY[j] = s.VY[j], s.VY[i]
	s.Q[i], s.Q[j] = s.Q[j], s.Q[i]
	s.Meta[i], s.Meta[j] = s.Meta[j], s.Meta[i]
}

// Truncate shortens the container to n particles, keeping capacity.
func (s *SoA) Truncate(n int) {
	s.X, s.Y = s.X[:n], s.Y[:n]
	s.VX, s.VY = s.VX[:n], s.VY[:n]
	s.Q = s.Q[:n]
	s.Meta = s.Meta[:n]
}

// Reset empties the container, keeping capacity.
func (s *SoA) Reset() { s.Truncate(0) }

// Resize sets the container's length to n, growing each column by extended's
// rule — a cold container gets exactly n. It is a scratch-buffer primitive:
// slots beyond the old length hold unspecified values until written.
func (s *SoA) Resize(n int) {
	s.X = extended(s.X, n)
	s.Y = extended(s.Y, n)
	s.VX = extended(s.VX, n)
	s.VY = extended(s.VY, n)
	s.Q = extended(s.Q, n)
	s.Meta = extended(s.Meta, n)
}

// Filter keeps only the particles for which keep returns true, in place.
func (s *SoA) Filter(keep func(i int) bool) {
	w := 0
	for i := range s.X {
		if keep(i) {
			s.Copy(w, i)
			w++
		}
	}
	s.Truncate(w)
}

// SortByID orders the particles by ascending ID. IDs are taken to be
// unique (a verified population's are), so the order is total.
func (s *SoA) SortByID() {
	perm := make([]int32, s.Len())
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(s.Meta[a].ID, s.Meta[b].ID) })
	var out SoA
	out.Resize(len(perm))
	for k, i := range perm {
		out.X[k], out.Y[k], out.VX[k], out.VY[k], out.Q[k] = s.X[i], s.Y[i], s.VX[i], s.VY[i], s.Q[i]
		out.Meta[k] = s.Meta[i]
	}
	*s = out
}

// AppendStateLine appends particle i's line of a state dump (picrun
// -dumpstate) to b: the ID, the seven float64 fields as hex bit patterns,
// then K, M, Dir and Born, so two dumps compare bit for bit with a file
// diff.
func (s *SoA) AppendStateLine(b []byte, i int) []byte {
	m := &s.Meta[i]
	return fmt.Appendf(b, "%d %016x %016x %016x %016x %016x %016x %016x %d %d %d %d\n",
		m.ID, math.Float64bits(s.X[i]), math.Float64bits(s.Y[i]),
		math.Float64bits(s.VX[i]), math.Float64bits(s.VY[i]), math.Float64bits(s.Q[i]),
		math.Float64bits(m.X0), math.Float64bits(m.Y0), m.K, m.M, m.Dir, m.Born)
}
