package driver

import (
	"fmt"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/diffusion"
)

// The four drivers are two substrates times their policies: blockEngine
// and vpEngine build the engine of each substrate, and the NewXEngine
// constructors below pick the policy. Every constructor leaves the way the
// engine runs to the caller (Run, RunElastic or RunElasticWorker).

// blockEngine builds an engine on the block substrate: the P ranks form a
// near-square 2D grid, shaped from the world size at rank startup, and the
// mesh is block-partitioned among them. bal builds each rank's policy.
func blockEngine(name string, cfg Config, bal func() balance.Balancer) *Engine {
	return &Engine{
		Name: name,
		Cfg:  cfg,
		Substrate: func(c *comm.Comm, cfg Config) (Substrate, error) {
			px, py := comm.Dims2D(c.Size())
			return newBlockSubstrate(c, cfg, px, py)
		},
		Balancer: bal,
	}
}

// vpEngine builds an engine on the VP substrate: the problem is split into
// d·P virtual processors, and every steps the strategy s reassigns them to
// cores from their measured loads. s is shared read-only by every rank.
func vpEngine(name string, cfg Config, d, every int, s ampi.Strategy) (*Engine, error) {
	if d <= 0 {
		return nil, fmt.Errorf("driver: over-decomposition degree must be positive, got %d", d)
	}
	if every <= 0 {
		return nil, fmt.Errorf("driver: LB interval must be positive, got %d", every)
	}
	return &Engine{
		Name: name,
		Cfg:  cfg,
		Substrate: func(c *comm.Comm, cfg Config) (Substrate, error) {
			return newVPSubstrate(c, cfg, d)
		},
		Balancer: func() balance.Balancer { return balance.NewStrategyBalancer(s, every) },
	}, nil
}

// NewBaselineEngine builds the engine of the paper's "mpi-2d" reference
// implementation (§IV-A): the mesh is statically block-partitioned, each
// rank moves the particles in its subdomain and ships leavers to their new
// owners each step. No load balancing — with a skewed particle
// distribution this is the baseline that the balanced implementations beat.
func NewBaselineEngine(cfg Config) *Engine {
	return blockEngine("baseline", cfg, func() balance.Balancer { return balance.NullBalancer{} })
}

// NewDiffusionEngine builds the engine of the paper's "mpi-2d-LB" reference
// implementation (§IV-B): a 2D block decomposition whose x-direction cuts
// are periodically adjusted by a diffusion scheme — each heavy column of
// ranks cedes border cell-columns (mesh data and particles) to its lighter
// neighbor. The Cartesian-product decomposition is preserved throughout, so
// subdomains stay rectangular and the exchange stays regular.
func NewDiffusionEngine(cfg Config, params diffusion.Params) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return blockEngine("diffusion", cfg, func() balance.Balancer { return &balance.DiffusionBalancer{Params: params} }), nil
}

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

// NewAMPIEngine builds the engine of the paper's "ampi" implementation
// (§IV-C): the static 2D algorithm of §IV-A over-decomposed into d·P
// virtual processors whose placement the runtime rebalances every F steps,
// migrating VP state (particles and mesh block) between cores with PUP
// serialization. The world size p is needed up front because a
// topology-aware strategy is hinted with the p-rank VP grid before the
// ranks start; the hint goes into a copy, so params.Strategy is unchanged.
func NewAMPIEngine(p int, cfg Config, params AMPIParams) (*Engine, error) {
	s := params.Strategy
	if s == nil {
		s = ampi.RefineLB{}
	}
	// A degree d <= 0 is vpEngine's error to report; comm.Dims2D panics on it.
	if ta, ok := s.(ampi.TopologyAware); ok && params.Overdecompose > 0 {
		px, py := comm.Dims2D(p)
		dx, dy := comm.Dims2D(params.Overdecompose)
		s = ta.WithTopology(ampi.GridNeighbors(px*dx, py*dy), 1)
	}
	return vpEngine("ampi", cfg, params.Overdecompose, params.Every, s)
}

// WorkStealParams tunes the work-stealing driver: the VP substrate of the
// ampi implementation driven by the demand-driven WorkStealLB policy.
type WorkStealParams struct {
	// Overdecompose is d: the problem is split into d·P virtual processors.
	Overdecompose int
	// Every is the number of steps between steal rounds.
	Every int
	// Threshold is the hunger trigger: a core steals when its load falls
	// below (1−Threshold) of the heaviest core's. 0 selects the default
	// (0.25).
	Threshold float64
}

// NewWorkStealEngine builds the engine of the fourth driver: demand-driven
// work stealing over the VP substrate, the runtime style the paper's §VI
// future work targets (task-based runtimes like Charm++, HPX, Legion).
// Unlike the ampi driver's global reassignment, only underloaded cores act:
// each steals VPs from the currently heaviest core, bounding migration
// volume by the number of hungry cores per round.
func NewWorkStealEngine(cfg Config, params WorkStealParams) (*Engine, error) {
	if params.Threshold < 0 || params.Threshold >= 1 {
		return nil, fmt.Errorf("driver: steal threshold must be in [0,1), got %v", params.Threshold)
	}
	return vpEngine("worksteal", cfg, params.Overdecompose, params.Every, ampi.WorkStealLB{Threshold: params.Threshold})
}
