package driver

import (
	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/diffusion"
)

// RunDiffusion executes the PIC PRK with the paper's "mpi-2d-LB" reference
// implementation (§IV-B): a 2D block decomposition whose x-direction cuts
// are periodically adjusted by a diffusion scheme — each heavy column of
// ranks cedes border cell-columns (mesh data and particles) to its lighter
// neighbor. The Cartesian-product decomposition is preserved throughout, so
// subdomains stay rectangular and the exchange stays regular.
func RunDiffusion(p int, cfg Config, params diffusion.Params) (*Result, error) {
	eng, err := NewDiffusionEngine(cfg, params)
	if err != nil {
		return nil, err
	}
	return eng.Run(p)
}

// NewDiffusionEngine builds the diffusion engine (2D decomposition, shaped
// from the world size at rank startup) without running it.
func NewDiffusionEngine(cfg Config, params diffusion.Params) (*Engine, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		Name: "diffusion",
		Cfg:  cfg,
		Substrate: func(c *comm.Comm, cfg Config) (Substrate, error) {
			px, py := comm.Dims2D(c.Size())
			return newBlockSubstrate(c, cfg, px, py)
		},
		Balancer: func() balance.Balancer { return &balance.DiffusionBalancer{Params: params} },
	}, nil
}
