package comm

import "fmt"

// Dims2D factors p into a near-square grid px×py with px >= py, preferring
// the divisor pair closest to √p. This mirrors MPI_Dims_create for two
// dimensions and is what the drivers use to lay out the processor grid.
func Dims2D(p int) (px, py int) {
	if p <= 0 {
		panic(fmt.Sprintf("comm: Dims2D of non-positive %d", p))
	}
	best := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			best = d
		}
	}
	return p / best, best
}
