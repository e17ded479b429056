// Package dist implements the initialization framework of the PIC PRK
// (paper §III-C and §III-E): the initial particle distributions that induce
// controlled load imbalance, the charge assignment of eq. 3 that makes
// trajectories closed-form, the velocity assignment of eq. 4, and the
// injection/removal event schedule of §III-E5.
//
// All placement is bitwise deterministic given a seed, independent of the
// number of ranks, so every rank of a parallel driver can recompute the
// global initial state and keep only its share.
package dist

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/parres/picprk/internal/grid"
)

// Distribution describes how particles are spread over the columns of cells.
// Weights returns one non-negative relative weight per cell column; columns
// with zero weight receive no particles. RowRange optionally restricts the
// rows (cell y-indices) particles may occupy; implementations covering the
// full height return (0, c).
type Distribution interface {
	// Weights returns a new slice of c non-negative column weights,
	// which the caller owns.
	Weights(c int) []float64
	// RowRange returns the half-open range of allowed cell rows.
	RowRange(c int) (lo, hi int)
}

// Geometric is the skewed "exponential" distribution of paper §III-E1: a
// cell in column i holds A·R^i particles. With R slightly below 1 (the paper
// uses 0.999) the per-processor loads of a block decomposition form a
// geometric series (paper eq. 7–8), and the whole distribution drifts right
// at (2k+1) cells per step.
type Geometric struct{ R float64 }

// Weights implements Distribution.
func (g Geometric) Weights(c int) []float64 {
	w := make([]float64, c)
	v := 1.0
	for i := range w {
		w[i] = v
		v *= g.R
	}
	return w
}

// RowRange implements Distribution: the full domain height.
func (g Geometric) RowRange(c int) (int, int) { return 0, c }

// Sinusoidal is the smooth distribution of paper §III-E2:
// p(i) ∝ 1 + cos(2πi/(c−1)).
type Sinusoidal struct{}

// Weights implements Distribution.
func (Sinusoidal) Weights(c int) []float64 {
	w := make([]float64, c)
	if c == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 1 + math.Cos(2*math.Pi*float64(i)/float64(c-1))
	}
	return w
}

// RowRange implements Distribution.
func (Sinusoidal) RowRange(c int) (int, int) { return 0, c }

// Linear is the distribution of paper §III-E3: p(i) ∝ β − α·i/(c−1).
// Alpha and Beta control the slope; Beta must be positive and
// Beta − Alpha must be non-negative for the weights to stay non-negative.
type Linear struct{ Alpha, Beta float64 }

// Weights implements Distribution.
func (l Linear) Weights(c int) []float64 {
	w := make([]float64, c)
	if c == 1 {
		w[0] = l.Beta
		return w
	}
	for i := range w {
		v := l.Beta - l.Alpha*float64(i)/float64(c-1)
		if v < 0 {
			v = 0
		}
		w[i] = v
	}
	return w
}

// RowRange implements Distribution.
func (l Linear) RowRange(c int) (int, int) { return 0, c }

// Uniform spreads particles evenly over all columns (the degenerate r=1
// case of Geometric, provided for clarity).
type Uniform struct{}

// Weights implements Distribution.
func (Uniform) Weights(c int) []float64 {
	w := make([]float64, c)
	for i := range w {
		w[i] = 1
	}
	return w
}

// RowRange implements Distribution.
func (Uniform) RowRange(c int) (int, int) { return 0, c }

// Patch is the restricted-subdomain distribution of paper §III-E4: particles
// are placed uniformly inside the rectangle of cells
// [X0, X1) × [Y0, Y1). The relative size of the patch tunes the difficulty
// of the balancing task.
type Patch struct{ X0, X1, Y0, Y1 int }

// Weights implements Distribution.
func (p Patch) Weights(c int) []float64 {
	w := make([]float64, c)
	for i := p.X0; i < p.X1 && i < c; i++ {
		if i >= 0 {
			w[i] = 1
		}
	}
	return w
}

// RowRange implements Distribution.
func (p Patch) RowRange(c int) (int, int) {
	lo, hi := p.Y0, p.Y1
	if lo < 0 {
		lo = 0
	}
	if hi > c {
		hi = c
	}
	return lo, hi
}

// Apportion converts relative column weights into exact integer particle
// counts summing to n, using the largest-remainder method. It is
// deterministic and independent of decomposition, which the verification
// scheme requires.
func Apportion(weights []float64, n int) ([]int, error) {
	return apportion(slices.Clone(weights), n)
}

// apportion is Apportion on weights it owns: it leaves each column's
// fractional part there, so a plan's set-up allocates no second L-length
// float slice.
func apportion(weights []float64, n int) ([]int, error) {
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dist: invalid weight %v", w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("dist: all weights zero")
	}
	counts := make([]int, len(weights))
	frac := weights // from here on, column i's fractional part
	assigned := 0
	for i, w := range weights {
		exact := float64(n) * w / total
		c := int(math.Floor(exact))
		counts[i] = c
		assigned += c
		frac[i] = exact - float64(c)
	}
	// Distribute the leftover to the largest fractional parts, ties to the
	// lower index: one sort of the column indices on that total order, then
	// the first left. The order is total, so the unstable sort is
	// deterministic.
	if left := n - assigned; left > 0 {
		order := make([]int32, len(weights))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			if c := cmp.Compare(frac[b], frac[a]); c != 0 {
				return c
			}
			return int(a - b)
		})
		for _, i := range order[:left] {
			counts[i]++
		}
	}
	return counts, nil
}

// BaseCharge evaluates paper eq. 3 for a particle at relative horizontal
// offset xrel within its cell (0 < xrel < h): the charge magnitude that
// makes the particle traverse exactly one cell per time step. h and dt are
// fixed at 1 by the PRK; q is the mesh charge magnitude.
func BaseCharge(q, xrel float64) float64 {
	const h, dt = 1.0, 1.0
	d1sq := h*h/4 + xrel*xrel
	d2sq := h*h/4 + (h-xrel)*(h-xrel)
	d1 := math.Sqrt(d1sq)
	d2 := math.Sqrt(d2sq)
	cosTheta := xrel / d1
	cosPhi := (h - xrel) / d2
	return h / (dt * dt * q * (cosTheta/d1sq + cosPhi/d2sq))
}

// Config collects all initialization parameters.
type Config struct {
	Mesh grid.Mesh
	// N is the total number of particles.
	N int
	// K is the horizontal speed parameter: every particle crosses (2K+1)
	// cells per step. Must be >= 0.
	K int
	// M is the vertical speed parameter: every particle moves M cells per
	// step in y (paper eq. 4). May be negative.
	M int
	// Dir selects the horizontal drift direction, +1 (default, rightward as
	// in the paper's experiments) or -1. Charges are signed so the initial
	// acceleration points this way.
	Dir int
	// Dist selects the initial distribution. Nil means Uniform.
	Dist Distribution
	// Seed drives all pseudo-random placement decisions.
	Seed uint64
	// FirstID is the ID assigned to the first particle; defaults to 1.
	// Injection events continue the sequence.
	FirstID uint64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Dir == 0 {
		out.Dir = 1
	}
	if out.Dist == nil {
		out.Dist = Uniform{}
	}
	if out.FirstID == 0 {
		out.FirstID = 1
	}
	return out
}

func (c *Config) validate() error {
	if c.N < 0 {
		return fmt.Errorf("dist: negative particle count %d", c.N)
	}
	if c.K < 0 {
		return fmt.Errorf("dist: K must be >= 0, got %d", c.K)
	}
	if c.Dir != 1 && c.Dir != -1 {
		return fmt.Errorf("dist: Dir must be ±1, got %d", c.Dir)
	}
	if c.Mesh.L == 0 {
		return fmt.Errorf("dist: zero-value mesh")
	}
	return nil
}
