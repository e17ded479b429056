//go:build !amd64

package core

// forceLanes is force for an even n, one particle at a time through
// forceQQ on architectures without the packed kernel.
func forceLanes(b *forceBuf, n int) {
	for j := 0; j < n; j++ {
		b.fx[j], b.fy[j] = b.scalar(j)
	}
}
