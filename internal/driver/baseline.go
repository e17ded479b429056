package driver

import (
	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
)

// NewBaselineEngine builds the engine of the paper's "mpi-2d" reference
// implementation (§IV-A): the P ranks form a near-square 2D grid, the mesh
// is statically block-partitioned, each rank moves the particles in its
// subdomain and ships leavers to their new owners each step. No load
// balancing — with a skewed particle distribution this is the baseline that
// the balanced implementations beat. The caller picks the way it runs (Run,
// RunElastic or RunElasticWorker).
func NewBaselineEngine(cfg Config) *Engine {
	return &Engine{
		Name: "baseline",
		Cfg:  cfg,
		Substrate: func(c *comm.Comm, cfg Config) (Substrate, error) {
			px, py := comm.Dims2D(c.Size())
			return newBlockSubstrate(c, cfg, px, py)
		},
		Balancer: func() balance.Balancer { return balance.NullBalancer{} },
	}
}
