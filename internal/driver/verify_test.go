package driver

import (
	"strings"
	"sync/atomic"
	"testing"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/particle"
)

// tamperSub lets a test edit rank 0's particle columns after the last step,
// and counts Particles calls on every rank.
type tamperSub struct {
	Substrate
	last      int
	tamper    func(b *blockSubstrate)
	particles *atomic.Int32
}

func (s *tamperSub) CheckOwnership(step int) error {
	err := s.Substrate.CheckOwnership(step)
	if b := s.Substrate.(*blockSubstrate); step == s.last && b.c.Rank() == 0 && s.tamper != nil {
		s.tamper(b)
	}
	return err
}

func (s *tamperSub) Particles() []particle.Particle {
	s.particles.Add(1)
	return s.Substrate.Particles()
}

// TestDistributedVerifyOnColumns pins the distributed verification end to
// end: a clean run passes without ever converting a rank's columns to AoS,
// and each kind of damage is caught by the check that owns it — a moved
// particle by the per-particle closed form, a duplicate by the rank's ID
// bitset, a lost particle by the allreduced count, and an ID that collides
// with another rank's particle (invisible to any one rank) by the allreduced
// checksum.
func TestDistributedVerifyOnColumns(t *testing.T) {
	cfg := testConfig(t, 16, 1500, 12)
	cfg.Verify, cfg.DistributedVerify = false, true
	for _, tc := range []struct {
		name, want string
		tamper     func(b *blockSubstrate)
	}{
		{"clean", "", nil},
		{"moved", "expected", func(b *blockSubstrate) { b.soa.X[3] += 0.25 }},
		{"duplicate", "duplicate particle ID", func(b *blockSubstrate) { b.soa.Meta[3].ID = b.soa.Meta[4].ID }},
		{"lost", "global particle count", func(b *blockSubstrate) { b.soa.Truncate(b.soa.Len() - 1) }},
		{"collides across ranks", "global ID checksum", func(b *blockSubstrate) {
			held := make(map[uint64]bool, b.soa.Len())
			for _, m := range b.soa.Meta {
				held[m.ID] = true
			}
			for id := uint64(1); ; id++ {
				if !held[id] {
					b.soa.Meta[3].ID = id // in range, and some other rank holds it
					return
				}
			}
		}},
	} {
		var particles atomic.Int32
		eng := NewBaselineEngine(cfg)
		real := eng.Substrate
		eng.Substrate = func(c *comm.Comm, cfg Config) (Substrate, error) {
			sub, err := real(c, cfg)
			if err != nil {
				return nil, err
			}
			return &tamperSub{Substrate: sub, last: cfg.Steps, tamper: tc.tamper, particles: &particles}, nil
		}
		res, err := eng.Run(4)
		switch {
		case tc.want == "" && (err != nil || !res.Verified):
			t.Errorf("%s: run failed or unverified: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
		if n := particles.Load(); n != 0 {
			t.Errorf("%s: Particles() called %d times in a DistributedVerify run", tc.name, n)
		}
	}
}
