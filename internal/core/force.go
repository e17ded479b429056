package core

// laneBlock is how many particles the move loop gathers before it runs the
// force kernel over them: enough to amortise the call, few enough that the
// scratch buffer (8 columns, 4 KB) lives on the stack and in L1.
const laneBlock = 64

// forceBuf is the move loop's scratch for one block of particles, one
// column per operand so that adjacent particles are adjacent lanes: the
// cell-relative position, the four products q·Qc in forceQQ's corner order
// and, after force, the total force.
type forceBuf struct {
	rx, ry                 [laneBlock]float64
	qq00, qq10, qq01, qq11 [laneBlock]float64
	fx, fy                 [laneBlock]float64
}

// force sets fx[j], fy[j] to scalar(j) for every j < n (n ≤ laneBlock),
// bit for bit. forceLanes takes the particles two at a time; an odd last
// one goes through scalar.
func force(b *forceBuf, n int) {
	forceLanes(b, n&^1)
	if n&1 != 0 {
		b.fx[n-1], b.fy[n-1] = b.scalar(n - 1)
	}
}

// scalar is forceQQ on lane j's inputs: the reference for every lane.
func (b *forceBuf) scalar(j int) (fx, fy float64) {
	return forceQQ(b.qq00[j], b.qq10[j], b.qq01[j], b.qq11[j], b.rx[j], b.ry[j])
}
