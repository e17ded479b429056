package dist

import (
	"fmt"
	"slices"

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
	p.X, p.Y = center(cx), center(cy)
	p.X0, p.Y0 = p.X, p.Y
	p.Q = float64(pl.dir*pl.mesh.ColumnSign(cx)) * pl.mag
	return p
}

// center is the coordinate of the centre of cell c along either axis.
func center(c int) float64 { return float64(c) + 0.5 }

// Plan is the initial population of a Config prepared for streaming: the
// per-column counts, the row range and the placer, built once and walked by
// Columns as often as a caller needs (a count pass, then a fill pass).
type Plan struct {
	counts       []int
	rowLo, rowHi int
	seed, first  uint64
	pl           placer
	col          Column
}

// NewPlan validates cfg and prepares its initial population.
func NewPlan(cfg Config) (*Plan, error) {
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	L := c.Mesh.L
	counts, err := Apportion(c.Dist.Weights(L), c.N)
	if err != nil {
		return nil, err
	}
	rowLo, rowHi := c.Dist.RowRange(L)
	if rowLo < 0 || rowHi > L || rowLo >= rowHi {
		return nil, fmt.Errorf("dist: invalid row range [%d,%d) for L=%d", rowLo, rowHi, L)
	}
	p := &Plan{
		counts: counts, rowLo: rowLo, rowHi: rowHi,
		seed: c.Seed, first: c.FirstID,
		pl: newPlacer(c.Mesh, c.K, c.M, c.Dir, 0),
	}
	p.col.pl = &p.pl
	return p, nil
}

// Column is one non-empty cell column of the initial population, as Columns
// hands it over: its particles are IDs First, First+1, … in the cells
// (X, Rows[k]).
type Column struct {
	X     int
	First uint64
	// Rows holds the drawn cell row of each particle, in ID order. It is
	// the plan's buffer, overwritten by the next column.
	Rows []int32
	pl   *placer
}

// At returns the column's particle k, placed: the placer's scratch,
// overwritten by the next call. Every particle of a column shares all but
// its ID and its row, so At(0) serves as the column's template and Y gives
// the rest.
func (c *Column) At(k int) *particle.Particle {
	return c.pl.at(c.X, int(c.Rows[k]), c.First+uint64(k))
}

// Y returns particle k's starting y coordinate, its Y and Y0.
func (c *Column) Y(k int) float64 { return center(int(c.Rows[k])) }

// Columns calls fn with every non-empty cell column for which want returns
// true (nil wants every column), in ascending order. A column not wanted is
// skipped entirely — its IDs are stepped over and its RNG stream, every
// column having its own, is never drawn — so a rank pays only for the
// columns it can own. The rows buffer is sized on first use to the largest
// column and reused, so a walk allocates at most once per Plan.
func (p *Plan) Columns(want func(cx int) bool, fn func(c *Column)) {
	c := &p.col
	c.First = p.first
	span := p.rowHi - p.rowLo
	for col, n := range p.counts {
		if n > 0 && (want == nil || want(col)) {
			if cap(c.Rows) < n {
				c.Rows = make([]int32, slices.Max(p.counts))
			}
			c.X, c.Rows = col, c.Rows[:n]
			rng := NewRNG(p.seed, 0x636f6c /* "col" */, uint64(col))
			for k := range c.Rows {
				c.Rows[k] = int32(p.rowLo + rng.Intn(span))
			}
			fn(c)
		}
		c.First += uint64(n)
	}
}

// Each streams the initial population to emit in ID order (FirstID, +1, …
// column-major, so the survivor checksum applies) without materializing it:
// emit receives the particle's starting cell and a pointer to scratch that
// the next particle overwrites. cols filters columns as Plan.Columns' want
// does.
func Each(cfg Config, cols func(cx int) bool, emit func(cx, cy int, p *particle.Particle)) error {
	p, err := NewPlan(cfg)
	if err != nil {
		return err
	}
	p.Columns(cols, func(c *Column) {
		for k, row := range c.Rows {
			emit(c.X, int(row), c.At(k))
		}
	})
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
