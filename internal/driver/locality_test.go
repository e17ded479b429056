package driver

import (
	"fmt"
	"testing"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/trace"
)

// descents counts the adjacent pairs of particles [lo, hi) of s that are
// out of cell order: the first's cell (cx, cy) sorts after the second's. A
// container in cell order reads its block's column-major charges front to
// back (grid.Block); each descent is a jump back.
func descents(s *core.SoA, m grid.Mesh, lo, hi int) int {
	n := 0
	for i := lo + 1; i < hi; i++ {
		ax, ay := m.CellOf(s.X[i-1], s.Y[i-1])
		bx, by := m.CellOf(s.X[i], s.Y[i])
		if ax > bx || ax == bx && ay > by {
			n++
		}
	}
	return n
}

// localityCase is one substrate of TestCellOrderDescents.
type localityCase struct {
	name string
	mk   func(c *comm.Comm, cfg Config) (Substrate, error)
}

var localityCases = []localityCase{
	{"block", func(c *comm.Comm, cfg Config) (Substrate, error) {
		px, py := comm.Dims2D(c.Size())
		return newBlockSubstrate(c, cfg, px, py)
	}},
	{"vp", func(c *comm.Comm, cfg Config) (Substrate, error) { return newVPSubstrate(c, cfg, 4) }},
}

// stepperOf returns the step state both substrates share.
func stepperOf(sub Substrate) *stepper {
	switch sub := sub.(type) {
	case *blockSubstrate:
		return &sub.stepper
	case *vpSubstrate:
		return &sub.stepper
	}
	panic(fmt.Sprintf("no stepper in %T", sub))
}

// TestCellOrderDescents is the locality gate: it counts descents (adjacent
// particles out of cell order) in every container, so a change that undoes
// cell order fails here although every workload's charges fit in cache.
//   - After set-up, on both substrates at P = 2 and 3 and for all five
//     distributions: 0.
//   - After each of 20 steps of uniform k = 0, m = 0 at P = 2 (every
//     particle moves one cell in x per step): at most one rotation seam
//     plus one per step that appended arrivals to the container.
//   - Inside the particles one injection appended to a container: 0, with
//     the container's earlier particles untouched.
func TestCellOrderDescents(t *testing.T) {
	dists := []struct {
		name string
		d    dist.Distribution
	}{
		{"geometric", dist.Geometric{R: 0.9}}, {"sinusoidal", dist.Sinusoidal{}},
		{"linear", dist.Linear{Alpha: 1, Beta: 1.5}}, {"uniform", dist.Uniform{}},
		{"patch", dist.Patch{X0: 5, X1: 27, Y0: 3, Y1: 20}},
	}
	for _, lc := range localityCases {
		for _, p := range []int{2, 3} {
			for _, d := range dists {
				t.Run(fmt.Sprintf("fill/%s/P%d/%s", lc.name, p, d.name), func(t *testing.T) {
					cfg := testConfig(t, 48, 6000, 0)
					cfg.K, cfg.M, cfg.Dist = 1, -2, d.d
					err := comm.NewWorld(p).Run(func(c *comm.Comm) error {
						sub, err := lc.mk(c, cfg)
						if err != nil {
							return err
						}
						defer sub.Close()
						for _, cl := range stepperOf(sub).cells {
							if n := descents(cl.soa, cfg.Mesh, 0, cl.soa.Len()); n != 0 {
								return fmt.Errorf("rank %d cell %d: %d descents in %d particles after set-up", c.Rank(), cl.id, n, cl.soa.Len())
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
		t.Run("steps/"+lc.name, func(t *testing.T) { checkDriftDescents(t, lc) })
		t.Run("inject/"+lc.name, func(t *testing.T) { checkInjectedTails(t, lc) })
	}
}

// checkDriftDescents runs 20 steps of uniform k = 0, m = 0 at P = 2 and
// bounds every container's descents after each step.
func checkDriftDescents(t *testing.T, lc localityCase) {
	const steps = 20
	cfg := testConfig(t, 32, 8000, steps)
	cfg.K, cfg.M, cfg.Dist = 0, 0, dist.Uniform{}
	err := comm.NewWorld(2).Run(func(c *comm.Comm) error {
		sub, err := lc.mk(c, cfg)
		if err != nil {
			return err
		}
		defer sub.Close()
		s := stepperOf(sub)
		runs := make(map[int]int) // cell id → steps that appended arrivals
		rec := &trace.Recorder{}
		for step := 1; step <= steps; step++ {
			before := make(map[int]map[uint64]bool, len(s.cells))
			for _, cl := range s.cells {
				ids := make(map[uint64]bool, cl.soa.Len())
				for _, m := range cl.soa.Meta {
					ids[m.ID] = true
				}
				before[cl.id] = ids
			}
			if err := sub.MoveExchange(rec); err != nil {
				return err
			}
			for _, cl := range s.cells {
				for _, m := range cl.soa.Meta {
					if !before[cl.id][m.ID] {
						runs[cl.id]++
						break
					}
				}
				n := descents(cl.soa, cfg.Mesh, 0, cl.soa.Len())
				if n > 1+runs[cl.id] {
					return fmt.Errorf("step %d rank %d cell %d: %d descents in %d particles, more than a seam and %d arrival runs",
						step, c.Rank(), cl.id, n, cl.soa.Len(), runs[cl.id])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkInjectedTails fires two injections, the second into a region that
// straddles every rank, and checks the tail each appended to a container.
func checkInjectedTails(t *testing.T, lc localityCase) {
	cfg := testConfig(t, 32, 4000, 2)
	cfg.K, cfg.M = 1, 1
	cfg.Schedule = dist.Schedule{
		{Step: 1, Region: dist.Rect{X0: 0, X1: 32, Y0: 0, Y1: 32}, Inject: 3000, K: 0, M: 1},
		{Step: 2, Region: dist.Rect{X0: 3, X1: 29, Y0: 5, Y1: 30}, Inject: 2000, K: 2, M: -1},
	}
	err := comm.NewWorld(2).Run(func(c *comm.Comm) error {
		sub, err := lc.mk(c, cfg)
		if err != nil {
			return err
		}
		defer sub.Close()
		s := stepperOf(sub)
		ev := core.NewEvents(cfg.distConfig(), cfg.Schedule)
		appended := 0
		for step := 1; step <= 2; step++ {
			before := make(map[int]*core.SoA, len(s.cells))
			for _, cl := range s.cells {
				prev := &core.SoA{}
				prev.AppendColumns(cl.soa)
				before[cl.id] = prev
			}
			sub.ApplyEvents(&ev, step)
			for _, cl := range s.cells {
				prev := before[cl.id]
				for i := range prev.Len() {
					if cl.soa.At(i) != prev.At(i) {
						return fmt.Errorf("step %d cell %d: injection changed particle %d", step, cl.id, i)
					}
				}
				if n := descents(cl.soa, cfg.Mesh, prev.Len(), cl.soa.Len()); n != 0 {
					return fmt.Errorf("step %d cell %d: %d descents in the %d injected particles", step, cl.id, n, cl.soa.Len()-prev.Len())
				}
				appended += cl.soa.Len() - prev.Len()
			}
		}
		if appended == 0 {
			return fmt.Errorf("rank %d: no injected particle landed here", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
