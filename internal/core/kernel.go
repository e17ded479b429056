// Package core implements the computational kernel of the PIC PRK: the
// 4-corner Coulomb force evaluation, the explicit integration of the
// equations of motion (paper eqs. 1–2), a sequential reference simulation,
// and the closed-form verification of paper §III-D.
package core

import (
	"math"

	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
)

// ChargeSource supplies the fixed charge at a global mesh point. Both
// grid.Mesh (formulaic) and *grid.Block (materialized per-rank field with
// ghost ring) satisfy it. Parallel drivers pass their local Block so that a
// decomposition or migration bug shows up as a verification failure.
type ChargeSource interface {
	Charge(i, j int) float64
}

// Force computes the total Coulomb force exerted on a particle of charge q
// at position (x, y) inside cell (cx, cy) by the four fixed charges at the
// cell's corners. The convention follows the paper: with ke = 1 the force
// from corner charge Qc on the particle is q·Qc·(p−c)/|p−c|³, repulsive for
// like signs. The corner iteration order is fixed so that the floating-point
// result is identical regardless of decomposition.
func Force(src ChargeSource, q, x, y float64, cx, cy int) (fx, fy float64) {
	relx := x - float64(cx)
	rely := y - float64(cy)
	return forceQQ(q*src.Charge(cx, cy), q*src.Charge(cx+1, cy), q*src.Charge(cx, cy+1), q*src.Charge(cx+1, cy+1),
		relx, rely)
}

// forceQQ evaluates the four corner contributions given the products q·Qc
// of the particle's charge with the corner charges, in fixed corner order —
// (0,0), (1,0), (0,1), (1,1) — and sums them in a fixed association. Go
// parses q*qc/r2 as (q*qc)/r2, so handing corner the product is exact. The
// AoS reference (Force) funnels through this function, and the move loop's
// batched kernel (force.go) performs its IEEE operations, in its order, on
// every lane, so the result is bitwise identical however the corner charges
// were obtained and however many particles are evaluated at once.
func forceQQ(qq00, qq10, qq01, qq11, relx, rely float64) (fx, fy float64) {
	fx0, fy0 := corner(qq00, relx, rely)
	fx1, fy1 := corner(qq10, relx-1, rely)
	fx2, fy2 := corner(qq01, relx, rely-1)
	fx3, fy3 := corner(qq11, relx-1, rely-1)
	return ((fx0 + fx1) + (fx2 + fx3)), ((fy0 + fy1) + (fy2 + fy3))
}

func corner(qq, rx, ry float64) (fx, fy float64) {
	r2 := rx*rx + ry*ry
	r := math.Sqrt(r2)
	f := qq / r2
	return f * (rx / r), f * (ry / r)
}

// Move advances one particle by one time step of length dt = 1 using the
// paper's update (eqs. 1–2):
//
//	x(t+dt) = x(t) + v·dt + a·dt²/2
//	v(t+dt) = v(t) + a·dt
//
// with a = F_total (the PRK sets ke/m = 1). Positions wrap periodically.
// Move returns the cell the particle landed in.
func Move(p *particle.Particle, src ChargeSource, m grid.Mesh) (cx, cy int) {
	ocx, ocy := m.CellOf(p.X, p.Y)
	ax, ay := Force(src, p.Q, p.X, p.Y, ocx, ocy)
	p.X = m.WrapCoord(p.X + p.VX + 0.5*ax)
	p.Y = m.WrapCoord(p.Y + p.VY + 0.5*ay)
	p.VX += ax
	p.VY += ay
	return m.CellOf(p.X, p.Y)
}

// MoveAll advances every particle in ps by one step against the same charge
// source. It is the inner loop of the sequential simulation and of each
// rank's compute phase in the parallel drivers.
func MoveAll(ps []particle.Particle, src ChargeSource, m grid.Mesh) {
	for i := range ps {
		Move(&ps[i], src, m)
	}
}
