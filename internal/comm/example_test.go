package comm_test

import (
	"fmt"

	"github.com/parres/picprk/internal/comm"
)

// ExampleWorld shows the SPMD pattern: four ranks exchange point-to-point
// messages and reduce a value, exactly like a small MPI program.
func ExampleWorld() {
	w := comm.NewWorld(4)
	err := w.Run(func(c *comm.Comm) error {
		// Ring shift: every rank sends its rank id to the next rank.
		c.Send((c.Rank()+1)%c.Size(), 0, c.Rank())
		data, _ := c.Recv((c.Rank()-1+c.Size())%c.Size(), 0)
		received := data.(int)

		// Collectives: sum of everything received equals 0+1+2+3.
		total := comm.Allreduce(c, []int{received}, comm.Sum[int])[0]
		if c.Rank() == 0 {
			fmt.Println("sum of ring-shifted ranks:", total)
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: sum of ring-shifted ranks: 6
}
