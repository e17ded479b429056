package core_test

import (
	"fmt"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
)

// Example runs the sequential PIC PRK end to end: initialize a skewed
// population, move it for 500 steps, and verify every particle against the
// closed-form solution of paper §III-D.
func Example() {
	mesh, err := grid.NewMesh(32, grid.DefaultCharge)
	if err != nil {
		panic(err)
	}
	sim, err := core.NewSimulation(dist.Config{
		Mesh: mesh,
		N:    10000,
		Dist: dist.Geometric{R: 0.9},
		Seed: 42,
	}, nil)
	if err != nil {
		panic(err)
	}
	sim.Run(500)
	if err := sim.Verify(0); err != nil {
		fmt.Println("verification failed:", err)
		return
	}
	fmt.Printf("%d particles verified after %d steps\n", sim.Particles.Len(), sim.Steps())
	// Output: 10000 particles verified after 500 steps
}
