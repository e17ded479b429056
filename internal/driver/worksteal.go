package driver

import (
	"fmt"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
)

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

// Validate checks parameter sanity.
func (p WorkStealParams) Validate() error {
	if p.Overdecompose <= 0 {
		return fmt.Errorf("driver: over-decomposition degree must be positive, got %d", p.Overdecompose)
	}
	if p.Every <= 0 {
		return fmt.Errorf("driver: steal interval must be positive, got %d", p.Every)
	}
	if p.Threshold < 0 || p.Threshold >= 1 {
		return fmt.Errorf("driver: steal threshold must be in [0,1), got %v", p.Threshold)
	}
	return nil
}

// NewWorkStealEngine builds the engine of the fourth driver: demand-driven
// work stealing over the VP substrate, the runtime style the paper's §VI
// future work targets (task-based runtimes like Charm++, HPX, Legion).
// Unlike the ampi driver's global reassignment, only underloaded cores act:
// each steals VPs from the currently heaviest core, bounding migration
// volume by the number of hungry cores per round.
func NewWorkStealEngine(cfg Config, params WorkStealParams) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		Name: "worksteal",
		Cfg:  cfg,
		Substrate: func(c *comm.Comm, cfg Config) (Substrate, error) {
			return newVPSubstrate(c, cfg, params.Overdecompose)
		},
		Balancer: func() balance.Balancer { return balance.NewWorkStealBalancer(params.Threshold, params.Every) },
	}, nil
}
