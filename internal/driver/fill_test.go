package driver

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
)

// bruteColumns is ColumnsOf by the L² sweep it replaced: a column is wanted
// iff some cell of it has a hosted owner.
func bruteColumns(ot *core.OwnerTable, hosted []bool, L int) []bool {
	want := make([]bool, L)
	for cx := range want {
		for cy := 0; cy < L && !want[cx]; cy++ {
			want[cx] = hosted[ot.Owner(cx, cy)]
		}
	}
	return want
}

// TestFillLocalMatchesStream pins core.Fill, the set-up fill of both
// substrates, to its definition: every hosted
// container holds, bit for bit and in cell order (start column, then row,
// ties in ID order), exactly the particles of the full initial population
// whose start cell its owner owns, in columns sized exactly (cap == len)
// from cold. Cuts are random and non-uniform, the
// owner tables are block (one owner per rank) and VP (several per rank, a
// scattered placement) ones at odd P, and every distribution runs with
// nonzero K and M in both drift directions. The want derivation is checked
// against the L² sweep on the same tables.
func TestFillLocalMatchesStream(t *testing.T) {
	const L = 40
	m, err := grid.NewMesh(L, grid.DefaultCharge)
	if err != nil {
		t.Fatal(err)
	}
	dists := []struct {
		name string
		d    dist.Distribution
	}{
		{"geometric(r=0.9)", dist.Geometric{R: 0.9}}, {"sinusoidal", dist.Sinusoidal{}},
		{"linear(a=1,b=1.5)", dist.Linear{Alpha: 1, Beta: 1.5}}, {"uniform", dist.Uniform{}},
		{"patch([7,23)x[11,19))", dist.Patch{X0: 7, X1: 23, Y0: 11, Y1: 19}},
	}
	rng := rand.New(rand.NewSource(7))
	type layout struct {
		name   string
		px, py int
		host   func(o int) int // owner → rank
		ranks  int
	}
	layouts := []layout{
		{"block3", 3, 1, func(o int) int { return o }, 3},
		{"block5", 1, 5, func(o int) int { return o }, 5},
		{"vp3x5on3", 3, 5, func(o int) int { return o * 7 % 3 }, 3},
		{"vp5x3on5", 5, 3, func(o int) int { return (o/5 + o) % 5 }, 5},
	}
	for _, lay := range layouts {
		ot := core.NewOwnerTable(randomCuts(rng, L, lay.px), randomCuts(rng, L, lay.py))
		owners := lay.px * lay.py
		for di, d := range dists {
			dir := 1 - 2*(di%2)
			cfg := Config{Mesh: m, N: 3001, K: 1 + di%2, M: 2*di - 3, Dir: dir, Dist: d.d, Seed: uint64(40 + di)}
			t.Run(fmt.Sprintf("%s/%s", lay.name, d.name), func(t *testing.T) {
				all, err := dist.Initialize(cfg.distConfig())
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < lay.ranks; r++ {
					hosted := make([]bool, owners)
					local := make([]*core.SoA, owners)
					for o := range local {
						if hosted[o] = lay.host(o) == r; hosted[o] {
							local[o] = &core.SoA{}
						}
					}
					if got, want := ot.ColumnsOf(hosted), bruteColumns(ot, hosted, L); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("rank %d: ColumnsOf = %v, L² sweep = %v", r, got, want)
					}
					if err := core.Fill(cfg.distConfig(), ot, owners, func(o int32) *core.SoA { return local[o] }); err != nil {
						t.Fatal(err)
					}
					for o, s := range local {
						if s != nil {
							checkFilled(t, s, all, func(p *particle.Particle) bool {
								return ot.Owner(int(p.X0), int(p.Y0)) == int32(o)
							})
						}
					}
				}
			})
		}
	}
}

// checkFilled fails unless s holds exactly the particles of all (in ID
// order) that keep accepts, bitwise and in cell order, with every column at
// capacity.
func checkFilled(t *testing.T, s *core.SoA, all []particle.Particle, keep func(*particle.Particle) bool) {
	t.Helper()
	var want []particle.Particle
	for i := range all {
		if keep(&all[i]) {
			want = append(want, all[i])
		}
	}
	slices.SortStableFunc(want, func(a, b particle.Particle) int {
		return cmp.Or(cmp.Compare(a.X0, b.X0), cmp.Compare(a.Y0, b.Y0))
	})
	if s.Len() != len(want) {
		t.Fatalf("holds %d particles, stream gives it %d", s.Len(), len(want))
	}
	for _, c := range []int{cap(s.X), cap(s.Y), cap(s.VX), cap(s.VY), cap(s.Q), cap(s.Meta)} {
		if c != len(want) {
			t.Fatalf("column capacity %d for %d particles", c, len(want))
		}
	}
	bits := func(p particle.Particle) [12]uint64 {
		f := math.Float64bits
		return [12]uint64{p.ID, f(p.X), f(p.Y), f(p.VX), f(p.VY), f(p.Q), f(p.X0), f(p.Y0),
			uint64(p.K), uint64(p.M), uint64(p.Dir), uint64(p.Born)}
	}
	for i, p := range want {
		if got := s.At(i); bits(got) != bits(p) {
			t.Fatalf("particle %d: got %+v, stream %+v", i, got, p)
		}
	}
}

// BenchmarkNewSubstrate measures a whole world building its substrates —
// every rank's set-up, concurrently, as a run starts — at
// skew_diffusion's shape (block) and skew_ampi's (VP, 4 VPs per rank), and
// at the paper's scale on 384 ranks (VP). ns/particle is wall time over the
// initial population; B/op is the world's allocation, particles included.
func BenchmarkNewSubstrate(b *testing.B) {
	cases := []struct {
		name    string
		L, n, p int
		r       float64
		vp      bool
	}{
		{"block/P2", 256, 400_000, 2, 0.98, false},
		{"vp/P2", 256, 400_000, 2, 0.98, true},
		{"vp/P384", 2998, 600_000, 384, 0.999, true},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			m, err := grid.NewMesh(bc.L, grid.DefaultCharge)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Mesh: m, N: bc.n, M: 1, Dist: dist.Geometric{R: bc.r}, Seed: 1}
			px, py := comm.Dims2D(bc.p)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := comm.NewWorld(bc.p).Run(func(c *comm.Comm) error {
					var s Substrate
					var err error
					if bc.vp {
						s, err = newVPSubstrate(c, cfg, 4)
					} else {
						s, err = newBlockSubstrate(c, cfg, px, py)
					}
					if err != nil {
						return err
					}
					s.Close()
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.n), "ns/particle")
		})
	}
}
