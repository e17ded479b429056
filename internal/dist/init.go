package dist

import (
	"fmt"

	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
)

// placer is the one place a particle is built from the cell it starts in.
//
// Placement follows the paper's scheme exactly: a particle starts at the
// center of a cell, (cx + h/2, cy + h/2), which puts it on the horizontal
// axis of symmetry with xπ = h/2. Its signed charge is ±(2K+1)·qπ from
// eq. 3 (sign chosen from the parity of the starting column so that the
// initial acceleration points in dir), and its velocity is (0, M·h/dt)
// from eq. 4. Everything a batch (the initial population, or one injection
// event) shares sits in the template p; at fills in the rest.
type placer struct {
	mesh grid.Mesh
	dir  int
	mag  float64 // (2K+1)·qπ, unsigned
	p    particle.Particle
}

func newPlacer(m grid.Mesh, k, mv, dir, born int) placer {
	return placer{
		mesh: m, dir: dir,
		mag: float64(2*k+1) * BaseCharge(m.Q, 0.5),
		p: particle.Particle{
			VY: float64(mv),
			K:  int32(k), M: int32(mv),
			Dir: int32(dir), Born: int32(born),
		},
	}
}

// at returns the batch's particle id placed in cell (cx, cy). The pointer is
// the placer's own scratch, overwritten by the next call.
func (pl *placer) at(cx, cy int, id uint64) *particle.Particle {
	p := &pl.p
	p.ID = id
	p.X, p.Y = float64(cx)+0.5, float64(cy)+0.5
	p.X0, p.Y0 = p.X, p.Y
	p.Q = float64(pl.dir*pl.mesh.ColumnSign(cx)) * pl.mag
	return p
}

// Each streams the initial population to emit in ID order (FirstID, +1, …
// column-major, so the survivor checksum applies) without materializing it:
// emit receives the particle's starting cell and a pointer to scratch that
// the next particle overwrites. A cell column for which cols returns false
// is skipped entirely — its IDs are stepped over and its RNG stream is
// never drawn, every column having its own — so a rank pays only for the
// columns it can own. A nil cols wants every column.
func Each(cfg Config, cols func(cx int) bool, emit func(cx, cy int, p *particle.Particle)) error {
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return err
	}
	L := c.Mesh.L
	counts, err := Apportion(c.Dist.Weights(L), c.N)
	if err != nil {
		return err
	}
	rowLo, rowHi := c.Dist.RowRange(L)
	if rowLo < 0 || rowHi > L || rowLo >= rowHi {
		return fmt.Errorf("dist: invalid row range [%d,%d) for L=%d", rowLo, rowHi, L)
	}
	pl := newPlacer(c.Mesh, c.K, c.M, c.Dir, 0)
	id := c.FirstID
	for col, n := range counts {
		if n > 0 && (cols == nil || cols(col)) {
			rng := NewRNG(c.Seed, 0x636f6c /* "col" */, uint64(col))
			for k := 0; k < n; k++ {
				row := rowLo + rng.Intn(rowHi-rowLo)
				emit(col, row, pl.at(col, row, id+uint64(k)))
			}
		}
		id += uint64(n)
	}
	return nil
}

// Initialize materializes the initial particle population according to cfg:
// Each, collected.
func Initialize(cfg Config) ([]particle.Particle, error) {
	ps := make([]particle.Particle, 0, max(cfg.N, 0))
	err := Each(cfg, nil, func(_, _ int, p *particle.Particle) { ps = append(ps, *p) })
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// IDRange returns the IDs the initial population occupies, [first, next);
// injection events continue the sequence at next.
func (c *Config) IDRange() (first, next uint64) {
	first = c.withDefaults().FirstID
	return first, first + uint64(max(c.N, 0))
}

// ColumnCounts returns the exact per-column particle counts the
// initialization would produce, without materializing particles. The
// performance-model layer uses this to evolve workloads analytically.
func ColumnCounts(cfg Config) ([]int, error) {
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	return Apportion(c.Dist.Weights(c.Mesh.L), c.N)
}
