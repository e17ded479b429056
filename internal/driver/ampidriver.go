package driver

import (
	"fmt"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
)

// AMPIParams tunes the runtime-orchestrated implementation: the paper's two
// knobs are the over-decomposition degree d (VPs per core) and the interval
// F between load-balancer invocations (§V-A), plus the strategy itself.
type AMPIParams struct {
	// Overdecompose is d: the problem is split into d·P virtual processors.
	Overdecompose int
	// Every is F: steps between MPI_Migrate-style LoadBalance calls.
	Every int
	// Strategy selects the balancer; nil means the paper's choice, a
	// refiner that moves VPs from the most to the least loaded core.
	Strategy ampi.Strategy
}

// Validate checks parameter sanity.
func (p AMPIParams) Validate() error {
	if p.Overdecompose <= 0 {
		return fmt.Errorf("driver: over-decomposition degree must be positive, got %d", p.Overdecompose)
	}
	if p.Every <= 0 {
		return fmt.Errorf("driver: LB interval must be positive, got %d", p.Every)
	}
	return nil
}

// NewAMPIEngine builds the engine of the paper's "ampi" implementation
// (§IV-C): the static 2D algorithm of §IV-A over-decomposed into d·P
// virtual processors whose placement the runtime rebalances every F steps,
// migrating VP state (particles and mesh block) between cores with PUP
// serialization. The world size p is needed up front because topology
// hints are installed on the shared strategy value before the SPMD region
// starts.
func NewAMPIEngine(p int, cfg Config, params AMPIParams) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.Strategy == nil {
		params.Strategy = ampi.RefineLB{}
	}
	// Topology hints are installed once, before the ranks start: the
	// strategy value is shared by all rank goroutines and must not be
	// mutated inside the SPMD region.
	if ta, ok := params.Strategy.(ampi.TopologyAware); ok {
		px, py := comm.Dims2D(p)
		dx, dy := comm.Dims2D(params.Overdecompose)
		ta.SetTopology(ampi.GridNeighbors(px*dx, py*dy), 1)
	}
	eng := &Engine{
		Name: "ampi",
		Cfg:  cfg,
		Substrate: func(c *comm.Comm, cfg Config) (Substrate, error) {
			return newVPSubstrate(c, cfg, params.Overdecompose)
		},
		Balancer: func() balance.Balancer { return balance.NewAMPIBalancer(params.Strategy, params.Every) },
	}
	return eng, nil
}
