package core

import "github.com/parres/picprk/internal/particle"

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
		s.Meta[i] = SoAMeta{ID: p.ID, X0: p.X0, Y0: p.Y0, K: p.K, M: p.M, Dir: p.Dir, Born: p.Born}
	}
	return s
}

// Len returns the particle count.
func (s *SoA) Len() int { return len(s.X) }

// Particles converts back to AoS in a fresh slice. Callers that convert
// repeatedly should hold a scratch buffer and use AppendParticles instead —
// this convenience form allocates the full copy every call.
func (s *SoA) Particles() []particle.Particle {
	return s.AppendParticles(make([]particle.Particle, 0, s.Len()))
}

// AppendParticles appends every particle, in AoS form, to dst and returns
// the extended slice. Passing a reused scratch buffer (truncated to [:0])
// makes repeated conversions allocation-free once the buffer reached the
// particle-count high-water mark.
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

// Append adds one particle.
func (s *SoA) Append(p particle.Particle) {
	s.X = append(s.X, p.X)
	s.Y = append(s.Y, p.Y)
	s.VX = append(s.VX, p.VX)
	s.VY = append(s.VY, p.VY)
	s.Q = append(s.Q, p.Q)
	s.Meta = append(s.Meta, SoAMeta{ID: p.ID, X0: p.X0, Y0: p.Y0, K: p.K, M: p.M, Dir: p.Dir, Born: p.Born})
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

// Truncate shortens the container to n particles, keeping capacity.
func (s *SoA) Truncate(n int) {
	s.X, s.Y = s.X[:n], s.Y[:n]
	s.VX, s.VY = s.VX[:n], s.VY[:n]
	s.Q = s.Q[:n]
	s.Meta = s.Meta[:n]
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
