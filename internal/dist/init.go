package dist

import (
	"fmt"

	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
)

// Batch is what every particle of one batch — the initial population, or
// the particles one injection event adds — shares, and the rule for the
// rest: a particle is its batch, an ID and a start cell.
//
// Placement follows the paper's scheme exactly: a particle starts at the
// centre of its cell (Center), which puts it on the horizontal axis of
// symmetry with xπ = h/2. Its signed charge is ±(2K+1)·qπ from eq. 3, the
// sign chosen from the parity of the starting column so that the initial
// acceleration points in Dir (Charge), and its velocity is (0, VY) =
// (0, M·h/dt) from eq. 4.
type Batch struct {
	VY              float64
	K, M, Dir, Born int32
	mesh            grid.Mesh
	mag             float64 // (2K+1)·qπ, unsigned
}

func newBatch(m grid.Mesh, k, mv, dir, born int) Batch {
	return Batch{
		VY: float64(mv),
		K:  int32(k), M: int32(mv), Dir: int32(dir), Born: int32(born),
		mesh: m, mag: float64(2*k+1) * BaseCharge(m.Q, 0.5),
	}
}

// Charge returns the charge of the batch's particles that start in cell
// column cx.
func (b *Batch) Charge(cx int) float64 {
	return float64(int(b.Dir)*b.mesh.ColumnSign(cx)) * b.mag
}

// Center is the coordinate of the centre of cell c along either axis: where
// a particle placed in the cell starts.
func Center(c int) float64 { return float64(c) + 0.5 }

// Plan is the initial population of a Config prepared for streaming: the
// per-column counts, the row range and the batch, built once and walked by
// Columns as often as a caller needs (a count pass, then a fill pass).
type Plan struct {
	counts       []int
	rowLo, rowHi int
	seed, first  uint64
	batch        Batch
	col          Column
}

// NewPlan validates cfg and prepares its initial population.
func NewPlan(cfg Config) (*Plan, error) {
	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	L := c.Mesh.L
	counts, err := apportion(c.Dist.Weights(L), c.N)
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
		batch: c.Initial(),
	}
	p.col.Batch = &p.batch
	return p, nil
}

// Column is one non-empty cell column of the initial population, as Columns
// hands it over: its particles are IDs First, First+1, … starting in the
// cells (X, Rows[k]), all of them of Batch.
type Column struct {
	X     int
	First uint64
	// Rows holds the drawn cell row of each particle, in ID order. It is
	// the plan's buffer, overwritten by the next column; fn may write it.
	Rows  []int32
	Batch *Batch
}

// Columns calls fn with every non-empty cell column for which want returns
// true (nil wants every column), in ascending order. A column not wanted is
// skipped entirely — its IDs are stepped over and its RNG stream, every
// column having its own, is never drawn — so a rank pays only for the
// columns it can own. The rows buffer is sized to the largest wanted column
// and reused, so a walk allocates at most once, and none that fits a
// buffer an earlier walk left.
func (p *Plan) Columns(want func(cx int) bool, fn func(c *Column)) {
	c := &p.col
	c.First = p.first
	most := 0
	for col, n := range p.counts {
		if n > most && (want == nil || want(col)) {
			most = n
		}
	}
	if cap(c.Rows) < most {
		c.Rows = make([]int32, most)
	}
	span := p.rowHi - p.rowLo
	for col, n := range p.counts {
		if n > 0 && (want == nil || want(col)) {
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

// Count returns the number of particles that start in cell column cx,
// without drawing a row.
func (p *Plan) Count(cx int) int { return p.counts[cx] }

// RowRange returns the cell rows [lo, hi) every column's rows are drawn
// from.
func (p *Plan) RowRange() (lo, hi int) { return p.rowLo, p.rowHi }

// Initialize materializes the initial particle population according to
// cfg, in ID order (FirstID, +1, … column-major, so the survivor checksum
// applies).
func Initialize(cfg Config) ([]particle.Particle, error) {
	p, err := NewPlan(cfg)
	if err != nil {
		return nil, err
	}
	ps := make([]particle.Particle, 0, cfg.N)
	b := &p.batch
	p.Columns(nil, func(c *Column) {
		x, q := Center(c.X), b.Charge(c.X)
		for k, row := range c.Rows {
			y := Center(int(row))
			ps = append(ps, particle.Particle{
				ID: c.First + uint64(k), X: x, Y: y, VY: b.VY, Q: q, X0: x, Y0: y,
				K: b.K, M: b.M, Dir: b.Dir, Born: b.Born,
			})
		}
	})
	return ps, nil
}

// Initial returns the batch of cfg's initial population.
func (c *Config) Initial() Batch {
	d := c.withDefaults()
	return newBatch(d.Mesh, d.K, d.M, d.Dir, 0)
}

// Injection returns the batch of the particles ev adds.
func (c *Config) Injection(ev Event) Batch {
	d := c.withDefaults()
	return newBatch(d.Mesh, ev.K, ev.M, d.Dir, ev.Step)
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
	return apportion(c.Dist.Weights(c.Mesh.L), c.N)
}
