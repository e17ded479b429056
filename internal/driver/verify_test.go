package driver

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/particle"
)

// tamperSub lets a test edit rank 0's particle columns after the last step
// and rename particle IDs on every rank (each key of rename becomes its
// value), and counts Particles calls on every rank.
type tamperSub struct {
	Substrate
	last      int
	tamper    func(b *blockSubstrate)
	rename    map[uint64]uint64
	particles *atomic.Int32
}

func (s *tamperSub) CheckOwnership(step int) error {
	err := s.Substrate.CheckOwnership(step)
	if step != s.last {
		return err
	}
	b := s.Substrate.(*blockSubstrate)
	if b.c.Rank() == 0 && s.tamper != nil {
		s.tamper(b)
	}
	for i, m := range b.soa.Meta {
		if id, ok := s.rename[m.ID]; ok {
			b.soa.Meta[i].ID = id
		}
	}
	return err
}

func (s *tamperSub) Particles() []particle.Particle {
	s.particles.Add(1)
	return s.Substrate.Particles()
}

// TestDistributedVerifyOnColumns pins the distributed verification end to
// end, with and without the gather of Verify: a clean run passes without
// ever converting a rank's columns to AoS, and each kind of damage is caught by the check that owns it — a moved
// particle by the per-particle closed form, a duplicate by the rank's ID
// bitset, a lost particle by the allreduced count, and an ID that collides
// with another rank's particle (invisible to any one rank) by the allreduced
// checksum. The schedule's one injection comes after the last step, so it
// never fires: the ID it would have minted first is outside the run's range.
func TestDistributedVerifyOnColumns(t *testing.T) {
	cfg := testConfig(t, 16, 1500, 12)
	cfg.Schedule = dist.Schedule{{Step: 13, Region: dist.Rect{X0: 0, X1: 16, Y0: 0, Y1: 16}, Inject: 40}}
	cases := []struct {
		name, want string
		tamper     func(b *blockSubstrate)
	}{
		{"clean", "", nil},
		{"moved", "expected", func(b *blockSubstrate) { b.soa.X[3] += 0.25 }},
		{"duplicate", "duplicate particle ID", func(b *blockSubstrate) { b.soa.Meta[3].ID = b.soa.Meta[4].ID }},
		{"lost", "global particle count", func(b *blockSubstrate) { b.soa.Truncate(b.soa.Len() - 1) }},
		{"unfired injection's ID", "ID 1501 outside the run's range", func(b *blockSubstrate) { b.soa.Meta[3].ID = 1501 }},
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
	}
	for _, distributed := range []bool{true, false} {
		cfg.Verify, cfg.DistributedVerify = !distributed, distributed
		for _, tc := range cases {
			verifyDamaged(t, cfg, tc.name, tc.want, tc.tamper)
		}
	}
}

// verifyDamaged runs cfg at P = 4 with tamper applied to rank 0's columns
// after the last step, and checks the run fails with an error containing
// want (passes, when want is empty) without a Particles() call on any rank.
func verifyDamaged(t *testing.T, cfg Config, name, want string, tamper func(b *blockSubstrate)) {
	t.Helper()
	name = fmt.Sprintf("%s (distributed=%v)", name, cfg.DistributedVerify)
	var particles atomic.Int32
	eng := NewBaselineEngine(cfg)
	real := eng.Substrate
	eng.Substrate = func(c *comm.Comm, cfg Config) (Substrate, error) {
		sub, err := real(c, cfg)
		if err != nil {
			return nil, err
		}
		return &tamperSub{Substrate: sub, last: cfg.Steps, tamper: tamper, particles: &particles}, nil
	}
	res, err := eng.Run(4)
	switch {
	case want == "" && (err != nil || !res.Verified):
		t.Errorf("%s: run failed or unverified: %v", name, err)
	case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
		t.Errorf("%s: got %v, want an error containing %q", name, err, want)
	}
	if n := particles.Load(); n != 0 {
		t.Errorf("%s: Particles() called %d times", name, n)
	}
}

// TestUnverifiedRunSkipsGather pins that a run with neither Verify nor
// DistributedVerify gathers no final state, since nothing would read it: no
// Result.Particles. With Verify the result carries the verified state,
// gathered on its columns: in neither case does any rank call Particles().
func TestUnverifiedRunSkipsGather(t *testing.T) {
	for _, verify := range []bool{false, true} {
		cfg := testConfig(t, 16, 1500, 6)
		cfg.Verify = verify
		var particles atomic.Int32
		eng := NewBaselineEngine(cfg)
		real := eng.Substrate
		eng.Substrate = func(c *comm.Comm, cfg Config) (Substrate, error) {
			sub, err := real(c, cfg)
			if err != nil {
				return nil, err
			}
			return &tamperSub{Substrate: sub, particles: &particles}, nil
		}
		const ranks = 4
		res, err := eng.Run(ranks)
		if err != nil {
			t.Fatalf("verify=%v: %v", verify, err)
		}
		if calls := particles.Load(); calls != 0 {
			t.Errorf("verify=%v: Particles() called %d times", verify, calls)
		}
		if res.Verified != verify || (res.Particles != nil) != verify {
			t.Errorf("verify=%v: Verified=%v, state gathered: %v", verify, res.Verified, res.Particles != nil)
		} else if verify && res.Particles.Len() != res.FinalParticles {
			t.Errorf("verify=%v: %d particles gathered of %d", verify, res.Particles.Len(), res.FinalParticles)
		}
	}
}

// TestVerifyAndDistributedVerifyAgree pins that both verification modes
// apply one rule set, at P = 1 and P = 2: an ID pair forged so that count,
// checksum and uniqueness all still hold (ID 1 → 0, the last ID → one past
// it) fails as outside the run's range, and a run whose Config leaves Dist
// nil (uniform) verifies with a removal event firing.
func TestVerifyAndDistributedVerifyAgree(t *testing.T) {
	for _, distributed := range []bool{false, true} {
		for _, p := range []int{1, 2} {
			cfg := testConfig(t, 16, 1500, 6)
			cfg.DistributedVerify = distributed
			var particles atomic.Int32
			eng := NewBaselineEngine(cfg)
			real := eng.Substrate
			eng.Substrate = func(c *comm.Comm, cfg Config) (Substrate, error) {
				sub, err := real(c, cfg)
				if err != nil {
					return nil, err
				}
				return &tamperSub{Substrate: sub, last: cfg.Steps, rename: map[uint64]uint64{1: 0, 1500: 1501}, particles: &particles}, nil
			}
			const want = "outside the run's range"
			if _, err := eng.Run(p); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("distributed=%v P=%d: forged ID pair: got %v, want an error containing %q", distributed, p, err, want)
			}
			cfg.Dist = nil
			cfg.Schedule = dist.Schedule{{Step: 3, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 16}, Remove: true}}
			res, err := NewBaselineEngine(cfg).Run(p)
			if err != nil {
				t.Errorf("distributed=%v P=%d: nil Dist with a removal: %v", distributed, p, err)
			} else if !res.Verified || res.FinalParticles >= cfg.N {
				t.Errorf("distributed=%v P=%d: nil Dist with a removal: verified %v with %d of %d particles left",
					distributed, p, res.Verified, res.FinalParticles, cfg.N)
			}
		}
	}
}

// TestStepZeroEventRefused pins that an event at step 0 is refused up
// front. The engine fires events after the move of steps 1..Steps, so such
// an event never fires, while the population check used to count it: every
// run with one failed verification at the end.
func TestStepZeroEventRefused(t *testing.T) {
	for _, ev := range []dist.Event{
		{Step: 0, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 8}, Inject: 10},
		{Step: 0, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 16}, Remove: true},
	} {
		cfg := testConfig(t, 16, 500, 5)
		cfg.Schedule = dist.Schedule{ev}
		_, err := NewBaselineEngine(cfg).Run(2)
		if err == nil || !strings.Contains(err.Error(), "never fires") {
			t.Errorf("%+v: got %v, want the schedule refused as never firing", ev, err)
		}
	}
}
