package core

import (
	"testing"

	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
)

// BenchmarkFill measures the set-up fill at uniform_block's shape: L = 512
// and 400 000 uniform particles, the mesh split in x between two owners, one
// of them hosted here, into a cold container as a run's is. ns/particle is
// over the hosted owner's share; B/op includes that container.
func BenchmarkFill(b *testing.B) {
	cfg := dist.Config{Mesh: grid.MustMesh(512, grid.DefaultCharge), N: 400_000, Dist: dist.Uniform{}, Seed: 1}
	ot := NewOwnerTable([]int{0, 256, 512}, []int{0, 512})
	var s *SoA
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s = &SoA{}
		err := Fill(cfg, ot, 2, func(o int32) *SoA {
			if o == 0 {
				return s
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Len()), "ns/particle")
}
