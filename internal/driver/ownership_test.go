package driver

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/trace"
)

// ownershipHarness lets the CheckOwnership negative tests treat the two
// substrates alike.
type ownershipHarness struct {
	name string
	mk   func(c *comm.Comm, cfg Config) (Substrate, error)
	// first returns a non-empty local container and the label CheckOwnership
	// names its owner by.
	first func(s Substrate) (*core.SoA, string)
	// foreign returns a position owned by someone else than first's owner.
	foreign func(s Substrate) (x, y float64)
	// migrate returns a plan that moves data between the two ranks.
	migrate func(s Substrate) balance.Plan
}

func ownershipHarnesses() []ownershipHarness {
	return []ownershipHarness{
		{
			name: "block",
			mk: func(c *comm.Comm, cfg Config) (Substrate, error) {
				return newBlockSubstrate(c, cfg, 2, 1)
			},
			first: func(s Substrate) (*core.SoA, string) {
				b := s.(*blockSubstrate)
				return b.soa, fmt.Sprintf("rank %d", b.c.Rank())
			},
			foreign: func(s Substrate) (float64, float64) {
				b := s.(*blockSubstrate)
				x0, _, _, _ := b.g.RankRect(1 - b.c.Rank())
				return float64(x0) + 0.5, 0.5
			},
			migrate: func(s Substrate) balance.Plan {
				// Shift the one interior cut by a cell.
				b := s.(*blockSubstrate)
				x := b.g.X.Clone()
				x.Cuts[1]++
				return balance.Plan{X: &x}
			},
		},
		{
			name: "vp",
			mk: func(c *comm.Comm, cfg Config) (Substrate, error) {
				return newVPSubstrate(c, cfg, 4)
			},
			first: func(s Substrate) (*core.SoA, string) {
				v := firstVP(s.(*vpSubstrate))
				return v.soa, fmt.Sprintf("VP %d", v.id)
			},
			foreign: func(s Substrate) (float64, float64) {
				vs := s.(*vpSubstrate)
				x0, y0, nx, _ := vs.g.RankRect(firstVP(vs).id)
				return float64((x0+nx)%vs.cfg.Mesh.L) + 0.5, float64(y0) + 0.5
			},
			migrate: func(s Substrate) balance.Plan {
				// Hand core 0's last VP to core 1; every other VP stays.
				owner := slices.Clone(s.(*vpSubstrate).host)
				for vp := len(owner) - 1; vp >= 0; vp-- {
					if owner[vp] == 0 {
						owner[vp] = 1
						break
					}
				}
				return balance.Plan{Owner: owner}
			},
		},
	}
}

// firstVP returns the lowest-numbered locally hosted VP holding particles.
func firstVP(s *vpSubstrate) *picVP {
	for _, v := range s.vps {
		if v.soa.Len() > 0 {
			return v
		}
	}
	panic("no populated local VP")
}

// onTwoRanks runs body on a 2-rank in-process world with a fresh substrate
// per rank and fails the test with the first rank error.
func onTwoRanks(t *testing.T, h ownershipHarness, cfg Config, body func(c *comm.Comm, s Substrate) error) {
	t.Helper()
	err := comm.NewWorld(2).Run(func(c *comm.Comm) error {
		s, err := h.mk(c, cfg)
		if err != nil {
			return err
		}
		defer s.Close()
		if err := body(c, s); err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// wantOwnershipError checks that CheckOwnership fails naming the step, the
// owner (rank or VP) and the particle.
func wantOwnershipError(s Substrate, step int, owner string, id uint64, when string) error {
	err := s.CheckOwnership(step)
	if err == nil {
		return fmt.Errorf("%s: CheckOwnership passed with particle %d outside %s", when, id, owner)
	}
	for _, want := range []string{fmt.Sprintf("step %d:", step), owner, fmt.Sprintf("particle %d ", id)} {
		if !strings.Contains(err.Error(), want) {
			return fmt.Errorf("%s: error %q does not name %q", when, err, want)
		}
	}
	return nil
}

// TestCheckOwnershipCatchesForeignArrival plants a particle that belongs to
// someone else behind the ownership prefix — where arrivals and injections
// land — and expects that step's check to fail naming step, owner and ID,
// whether it sits among the arrivals (before the step's injections) or after
// them.
func TestCheckOwnershipCatchesForeignArrival(t *testing.T) {
	for _, h := range ownershipHarnesses() {
		for _, afterInjection := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/afterInjection=%v", h.name, afterInjection), func(t *testing.T) {
				cfg := testConfig(t, 16, 2000, 0)
				cfg.Dist = nil
				cfg.Schedule = dist.Schedule{{Step: 3, Region: dist.Rect{X0: 0, X1: 16, Y0: 0, Y1: 16}, Inject: 200}}
				onTwoRanks(t, h, cfg, func(c *comm.Comm, s Substrate) error {
					es, rec := core.NewEvents(cfg.distConfig(), cfg.Schedule), &trace.Recorder{}
					for step := 1; step <= 3; step++ {
						if err := s.MoveExchange(rec); err != nil {
							return err
						}
						if step < 3 {
							s.ApplyEvents(&es, step)
							if err := s.CheckOwnership(step); err != nil {
								return fmt.Errorf("clean step %d: %w", step, err)
							}
						}
					}
					soa, owner := h.first(s)
					plant := func() uint64 {
						soa.AppendFrom(soa, 0)
						i := soa.Len() - 1
						soa.Meta[i].ID = 900000 + uint64(c.Rank())
						soa.X[i], soa.Y[i] = h.foreign(s)
						return soa.Meta[i].ID
					}
					var id uint64
					if afterInjection {
						s.ApplyEvents(&es, 3)
						id = plant()
					} else {
						id = plant()
						s.ApplyEvents(&es, 3)
					}
					return wantOwnershipError(s, 3, owner, id, "foreign particle behind the prefix")
				})
			})
		}
	}
}

// TestCheckOwnershipSweepsAllAfterReset corrupts a stayer — a particle
// inside the prefix a normal step would not re-read — right after each event
// that must zero the prefix: a plan's Execute (with the rehome exchange the
// engine follows it with), a removal event, and a checkpoint Restore. The
// check on that step must catch it.
func TestCheckOwnershipSweepsAllAfterReset(t *testing.T) {
	resets := []struct {
		name string
		do   func(h ownershipHarness, s Substrate, es *core.Events, rec *trace.Recorder) error
	}{
		{"execute", func(h ownershipHarness, s Substrate, _ *core.Events, rec *trace.Recorder) error {
			rehome, err := s.Execute(h.migrate(s))
			if err == nil && rehome {
				err = s.Exchange(rec)
			}
			return err
		}},
		{"removal", func(_ ownershipHarness, s Substrate, es *core.Events, _ *trace.Recorder) error {
			s.ApplyEvents(es, 2)
			return nil
		}},
		{"restore", func(_ ownershipHarness, s Substrate, _ *core.Events, _ *trace.Recorder) error {
			blob, err := s.Checkpoint()
			if err != nil {
				return err
			}
			return s.Restore(blob)
		}},
	}
	for _, h := range ownershipHarnesses() {
		for _, reset := range resets {
			t.Run(h.name+"/"+reset.name, func(t *testing.T) {
				cfg := testConfig(t, 16, 2000, 0)
				cfg.Dist = nil
				// A removal that leaves both ranks (and every VP) populated.
				cfg.Schedule = dist.Schedule{{Step: 2, Region: dist.Rect{X0: 0, X1: 16, Y0: 0, Y1: 1}, Remove: true}}
				onTwoRanks(t, h, cfg, func(c *comm.Comm, s Substrate) error {
					es, rec := core.NewEvents(cfg.distConfig(), cfg.Schedule), &trace.Recorder{}
					for step := 1; step <= 2; step++ {
						if err := s.MoveExchange(rec); err != nil {
							return err
						}
					}
					if err := reset.do(h, s, &es, rec); err != nil {
						return err
					}
					if err := s.CheckOwnership(2); err != nil {
						return fmt.Errorf("clean state after %s: %w", reset.name, err)
					}
					soa, owner := h.first(s)
					soa.X[0], soa.Y[0] = h.foreign(s)
					return wantOwnershipError(s, 2, owner, soa.Meta[0].ID, "stayer corrupted after "+reset.name)
				})
			})
		}
	}
}

// TestOwnershipPrefixCoversStayersOnly pins what the prefix is after a
// plain step: exactly the particles the fused classify pass kept, so every
// arrival sits behind it.
func TestOwnershipPrefixCoversStayersOnly(t *testing.T) {
	cfg := testConfig(t, 16, 4000, 0)
	cfg.Dist, cfg.K = nil, 1
	onTwoRanks(t, ownershipHarnesses()[0], cfg, func(c *comm.Comm, s Substrate) error {
		b, rec := s.(*blockSubstrate), &trace.Recorder{}
		for step := 1; step <= 4; step++ {
			before := b.soa.Len()
			if err := b.MoveExchange(rec); err != nil {
				return err
			}
			left := b.shards.gens[1-b.shards.gen][1-c.Rank()].Len()
			if left == 0 {
				return fmt.Errorf("step %d: no particle left the rank; the test is trivial", step)
			}
			if b.owned != before-left {
				return fmt.Errorf("step %d: prefix %d, want %d particles - %d leavers", step, b.owned, before, left)
			}
			if arrivals := b.soa.Len() - b.owned; arrivals <= 0 {
				return fmt.Errorf("step %d: %d arrivals behind the prefix", step, arrivals)
			}
		}
		return nil
	})
}
