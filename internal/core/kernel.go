// Package core implements the computational kernel of the PIC PRK: the
// 4-corner Coulomb force evaluation, the explicit integration of the
// equations of motion (paper eqs. 1–2) over particle columns, the set-up
// fill and the events every owner runs, a sequential reference simulation
// (that column path at one owner), and the closed-form verification of
// paper §III-D.
package core

import "math"

// forceQQ evaluates the total Coulomb force on a particle at cell-relative
// position (relx, rely) from the four fixed charges at its cell's corners,
// given the products q·Qc of the particle's charge with the corner charges,
// in fixed corner order — (0,0), (1,0), (0,1), (1,1) — summed in a fixed
// association. The convention follows the paper: with ke = 1 the force from
// corner charge Qc is q·Qc·(p−c)/|p−c|³, repulsive for like signs. Go
// parses q*qc/r2 as (q*qc)/r2, so handing corner the product is exact. The
// move loop's batched kernel (force.go) performs these IEEE operations, in
// this order, on every lane, so the result is bitwise identical however
// many particles are evaluated at once, and independent of decomposition.
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
