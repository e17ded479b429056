package driver

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/memtest"
	"github.com/parres/picprk/internal/pup"
)

// cutPlan is a balancer that moves the cuts once, at step at, to fixed
// arrays, and never observes anything.
type cutPlan struct {
	balance.NullBalancer
	at   int
	x, y decomp.Bounds
}

func (b *cutPlan) Interval() int { return 5 }
func (b *cutPlan) Plan(step int) balance.Plan {
	if step != b.at {
		return balance.Plan{}
	}
	x, y := b.x.Clone(), b.y.Clone()
	return balance.Plan{X: &x, Y: &y}
}

// TestBlockMigrationCedesRectangles moves both the x and the y cuts of a
// 3×2 block decomposition in one plan. The migrated bytes must be 8 per
// mesh point whose owner changes, counted cell by cell over the two
// migrations (x first, then y) rather than by rectangles, and the run must
// stay bitwise identical to the sequential reference.
func TestBlockMigrationCedesRectangles(t *testing.T) {
	const L, p = 24, 6
	cfg := testConfig(t, L, 3000, 30)
	x, y := decomp.Bounds{Cuts: []int{0, 6, 17, 24}}, decomp.Bounds{Cuts: []int{0, 14, 24}}
	eng := &Engine{
		Name: "cuts",
		Cfg:  cfg,
		Substrate: func(c *comm.Comm, cfg Config) (Substrate, error) {
			return newBlockSubstrate(c, cfg, 3, 2)
		},
		Balancer: func() balance.Balancer { return &cutPlan{at: 10, x: x, y: y} },
	}
	res, err := eng.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, sequentialReference(t, cfg), res.Particles, "block migration P=6")

	old, err := decomp.NewUniform2D(L, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	mid := &decomp.Grid2D{PX: 3, PY: 2, X: x, Y: old.Y}
	nw := &decomp.Grid2D{PX: 3, PY: 2, X: x, Y: y}
	var want int64
	for cy := 0; cy < L; cy++ {
		for cx := 0; cx < L; cx++ {
			if old.OwnerOfCell(cx, cy) != mid.OwnerOfCell(cx, cy) {
				want += 8
			}
			if mid.OwnerOfCell(cx, cy) != nw.OwnerOfCell(cx, cy) {
				want += 8
			}
		}
	}
	var got int64
	for _, rs := range res.PerRank {
		got += rs.BytesMigrated
		if rs.Migrations != 2 {
			t.Errorf("rank %d counted %d migrations, want one per axis", rs.Rank, rs.Migrations)
		}
	}
	if want == 0 || got != want {
		t.Errorf("migrated %d bytes, the changed owners account for %d", got, want)
	}
}

// onVPWorld runs body on a p-rank in-process world, each rank with a VP
// substrate over-decomposed d ways.
func onVPWorld(t *testing.T, p, d int, cfg Config, body func(c *comm.Comm, s *vpSubstrate) error) {
	t.Helper()
	err := comm.NewWorld(p).Run(func(c *comm.Comm) error {
		s, err := newVPSubstrate(c, cfg, d)
		if err != nil {
			return err
		}
		defer s.Close()
		return body(c, s)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkHosted checks the hosted set against the placement: ascending ids,
// exactly the VPs the placement puts here, each one's block its own
// rectangle, the step's cells the same VPs, and every VP hosted somewhere.
func checkHosted(c *comm.Comm, s *vpSubstrate) error {
	var want []int
	for id, r := range s.host {
		if r == c.Rank() {
			want = append(want, id)
		}
	}
	got := make([]int, len(s.vps))
	for i, v := range s.vps {
		got[i] = v.id
		x0, y0, nx, ny := s.g.RankRect(v.id)
		if b := v.block; b.X0 != x0 || b.Y0 != y0 || b.NX != nx || b.NY != ny {
			return fmt.Errorf("VP %d holds block [%d,%d)x[%d,%d)", v.id, b.X0, b.X0+b.NX, b.Y0, b.Y0+b.NY)
		}
		if s.cells[i] != &v.cell {
			return fmt.Errorf("the step's cell %d is not VP %d", i, v.id)
		}
	}
	if !slices.Equal(got, want) || len(s.cells) != len(s.vps) {
		return fmt.Errorf("rank %d hosts VPs %v, the placement puts %v here", c.Rank(), got, want)
	}
	if n := comm.Allreduce(c, []int{len(s.vps)}, comm.Sum[int])[0]; n != len(s.host) {
		return fmt.Errorf("%d VPs hosted in all, %d exist", n, len(s.host))
	}
	return nil
}

// vpFingerprints hashes every VP's particles, in order and bit for bit,
// into a vector indexed by VP id, the same on every rank.
func vpFingerprints(c *comm.Comm, s *vpSubstrate) []int64 {
	fp := make([]int64, len(s.host))
	for _, v := range s.vps {
		h := fnv.New64a()
		var buf [8]byte
		for _, col := range [][]float64{v.soa.X, v.soa.Y, v.soa.VX, v.soa.VY, v.soa.Q} {
			for _, f := range col {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
				h.Write(buf[:])
			}
		}
		for _, m := range v.soa.Meta {
			binary.LittleEndian.PutUint64(buf[:], m.ID)
			h.Write(buf[:])
		}
		fp[v.id] = int64(h.Sum64()>>1) + 1
	}
	return comm.Allreduce(c, fp, comm.Sum[int64])
}

// rotate is the plan that moves every VP to the next core.
func rotate(s *vpSubstrate) balance.Plan {
	loads := s.Measure(balance.Needs{Units: true})
	return balance.Plan{Owner: ampi.RotateLB{}.Plan(loads.Units, loads.Owner, s.c.Size())}
}

// TestVPMigrationPreservesState rotates every VP once around all the cores:
// each VP's particles must arrive bit for bit and in order, and the VPs end
// where they started.
func TestVPMigrationPreservesState(t *testing.T) {
	for _, p := range []int{3, 4} {
		t.Run(fmt.Sprint("P=", p), func(t *testing.T) {
			cfg := testConfig(t, 24, 2000, 0)
			onVPWorld(t, p, 4, cfg, func(c *comm.Comm, s *vpSubstrate) error {
				if err := stepN(s, 2); err != nil {
					return err
				}
				home, want := slices.Clone(s.host), vpFingerprints(c, s)
				for round := 0; round < p; round++ {
					if _, err := s.Execute(rotate(s)); err != nil {
						return err
					}
					if err := checkHosted(c, s); err != nil {
						return fmt.Errorf("round %d: %w", round, err)
					}
					if got := vpFingerprints(c, s); !slices.Equal(got, want) {
						return fmt.Errorf("round %d: VP state changed in migration", round)
					}
				}
				if !slices.Equal(s.host, home) {
					return fmt.Errorf("%d rotations of %d cores left placement %v, started at %v", p, p, s.host, home)
				}
				return stepN(s, 1)
			})
		})
	}
}

// TestVPInitialPlacement checks the hosted set a VP substrate is built
// with: each core hosts exactly the VPs the block placement puts on it, an
// equal share of them, and between them the cores hold every particle.
func TestVPInitialPlacement(t *testing.T) {
	const p, d = 4, 4
	cfg := testConfig(t, 24, 1000, 0)
	onVPWorld(t, p, d, cfg, func(c *comm.Comm, s *vpSubstrate) error {
		px, py := comm.Dims2D(p)
		place, err := ampi.BlockPlacement(s.g.PX, s.g.PY, px, py)
		if err != nil {
			return err
		}
		for id, r := range s.host {
			if r != place(id) {
				return fmt.Errorf("VP %d placed on core %d, the block placement says %d", id, r, place(id))
			}
		}
		if len(s.vps) != d {
			return fmt.Errorf("core %d hosts %d VPs, want %d", c.Rank(), len(s.vps), d)
		}
		if err := checkHosted(c, s); err != nil {
			return err
		}
		if n := comm.Allreduce(c, []int{s.Count()}, comm.Sum[int])[0]; n != cfg.N {
			return fmt.Errorf("%d particles hosted, %d injected", n, cfg.N)
		}
		return nil
	})
}

// TestVPHostedIDsAscending migrates through a sequence of scrambled
// placements; after construction and every migration the hosted VPs are in
// ascending id order and agree with the placement.
func TestVPHostedIDsAscending(t *testing.T) {
	cfg := testConfig(t, 24, 1000, 0)
	onVPWorld(t, 4, 4, cfg, func(c *comm.Comm, s *vpSubstrate) error {
		if err := checkHosted(c, s); err != nil {
			return fmt.Errorf("at construction: %w", err)
		}
		for round := 1; round <= 6; round++ {
			owner := make([]int, len(s.host))
			for id := range owner {
				owner[id] = (id*7 + round*round) % (round%4 + 1)
			}
			if _, err := s.Execute(balance.Plan{Owner: owner}); err != nil {
				return err
			}
			if err := checkHosted(c, s); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
		}
		return nil
	})
}

// TestVPRepeatedLBRounds runs ten load-balancing rounds, a step and a
// rotation each: after every round the hosted sets must still agree with
// the placement, every VP hosted once, and no particle lost.
func TestVPRepeatedLBRounds(t *testing.T) {
	cfg := testConfig(t, 24, 1000, 0)
	onVPWorld(t, 4, 4, cfg, func(c *comm.Comm, s *vpSubstrate) error {
		for round := 0; round < 10; round++ {
			if err := stepN(s, 1); err != nil {
				return err
			}
			if _, err := s.Execute(rotate(s)); err != nil {
				return err
			}
			if err := checkHosted(c, s); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			if n := comm.Allreduce(c, []int{s.Count()}, comm.Sum[int])[0]; n != cfg.N {
				return fmt.Errorf("round %d: %d particles hosted, %d injected", round, n, cfg.N)
			}
		}
		return nil
	})
}

// TestVPMigrationAccounting checks the migration ledger against the VPs
// one rotation moves: each rank counts one migration per VP it sends and
// per VP it receives, the bytes sent are the packed sizes of the departing
// VPs, and across ranks the bytes sent equal the packed sizes of the
// arrivals.
func TestVPMigrationAccounting(t *testing.T) {
	cfg := testConfig(t, 24, 2000, 0)
	onVPWorld(t, 3, 4, cfg, func(c *comm.Comm, s *vpSubstrate) error {
		if err := stepN(s, 1); err != nil {
			return err
		}
		packed := func(vps []*picVP) (int64, error) {
			var n int64
			for _, v := range vps {
				buf, err := pup.Pack(v)
				if err != nil {
					return 0, err
				}
				n += int64(len(buf))
			}
			return n, nil
		}
		plan := rotate(s)
		departing := len(s.vps)
		bytesOut, err := packed(s.vps)
		if err != nil {
			return err
		}
		moved, before := ampi.Moves(s.host, plan.Owner), slices.Clone(s.host)
		n0, b0 := s.MigrationStats()
		if _, err := s.Execute(plan); err != nil {
			return err
		}
		var arrivals []*picVP
		for _, v := range s.vps {
			if before[v.id] != c.Rank() {
				arrivals = append(arrivals, v)
			}
		}
		bytesIn, err := packed(arrivals)
		if err != nil {
			return err
		}
		n, b := s.MigrationStats()
		if n-n0 != departing+len(arrivals) || b-b0 != bytesOut {
			return fmt.Errorf("rank %d counted %d migrations, %d bytes; moved %d out, %d in, %d bytes",
				c.Rank(), n-n0, b-b0, departing, len(arrivals), bytesOut)
		}
		sums := comm.Allreduce(c, []int64{int64(departing), int64(len(arrivals)), b - b0, bytesIn}, comm.Sum[int64])
		if sums[0] != int64(moved) || sums[1] != int64(moved) || sums[2] != sums[3] {
			return fmt.Errorf("world counted %v for %d VPs moved", sums, moved)
		}
		return nil
	})
}

// TestVPGreedyConvergesLoad piles every VP onto core 0, then lets GreedyLB
// spread them: the heaviest core must end within 1.5× the mean, and no
// particle may be lost on the way.
func TestVPGreedyConvergesLoad(t *testing.T) {
	const p = 4
	cfg := testConfig(t, 32, 4000, 0)
	onVPWorld(t, p, 8, cfg, func(c *comm.Comm, s *vpSubstrate) error {
		if _, err := s.Execute(balance.Plan{Owner: make([]int, len(s.host))}); err != nil {
			return err
		}
		if c.Rank() == 0 && len(s.vps) != len(s.host) {
			return fmt.Errorf("core 0 hosts %d of %d VPs", len(s.vps), len(s.host))
		}
		loads := s.Measure(balance.Needs{Units: true})
		if _, err := s.Execute(balance.Plan{Owner: ampi.GreedyLB{}.Plan(loads.Units, loads.Owner, p)}); err != nil {
			return err
		}
		heaviest := comm.Allreduce(c, []int{s.Count()}, func(a, b int) int { return max(a, b) })[0]
		total := comm.Allreduce(c, []int{s.Count()}, comm.Sum[int])[0]
		if total != cfg.N {
			return fmt.Errorf("%d particles after migration, %d before", total, cfg.N)
		}
		if mean := float64(total) / p; float64(heaviest) > 1.5*mean {
			return fmt.Errorf("heaviest core holds %d particles after GreedyLB, mean %v", heaviest, mean)
		}
		return nil
	})
}

// FuzzRectParcel feeds arbitrary bytes to the ceded-rectangle decoder — a
// payload block migration receives off a socket — and checks whatever
// decodes against a fixed block, as migrate does. Neither may panic, and
// decoding may allocate no more than about twice the input.
func FuzzRectParcel(f *testing.F) {
	m := grid.MustMesh(16, 1)
	src, err := grid.NewBlock(m, 12, 3, 8, 5) // across the seam: columns 12..15, 0..3
	if err != nil {
		f.Fatal(err)
	}
	dst, err := grid.NewBlock(m, 13, 2, 7, 8)
	if err != nil {
		f.Fatal(err)
	}
	good := &rectParcel{X0: 14, Y0: 4, W: 4, H: 3, Data: src.AppendRect(nil, 14, 4, 4, 3)}
	if err := dst.CheckRect(good.Data, good.X0, good.Y0, good.W, good.H); err != nil {
		f.Fatal(err)
	}
	enc, kind, err := pup.EncodePayload(nil, good)
	if err != nil || kind != kindRectParcel {
		f.Fatalf("encode fixture: kind %d, err %v", kind, err)
	}
	for n := 0; n <= len(enc); n++ {
		f.Add(enc[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		var err error
		limit := uint64(2*len(data) + 64<<10)
		if got := memtest.Least(limit, nil, func() { v, err = pup.DecodePayload(kindRectParcel, data) }); got > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		pc, ok := v.(*rectParcel)
		if !ok {
			t.Fatalf("decoded a %T", v)
		}
		if pc != nil {
			_ = dst.CheckRect(pc.Data, pc.X0, pc.Y0, pc.W, pc.H)
		}
	})
}
