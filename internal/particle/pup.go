package particle

import "github.com/parres/picprk/internal/pup"

// PUP serializes the particle with the pack/unpack framework: little-endian,
// fixed-size, 80 bytes (ID, seven float64, four int32). Used by the
// KindParticles payload codec (verification gathers) and by core.Simulation
// checkpoints.
func (p *Particle) PUP(pp *pup.PUPer) {
	pp.Uint64(&p.ID)
	pp.Float64(&p.X)
	pp.Float64(&p.Y)
	pp.Float64(&p.VX)
	pp.Float64(&p.VY)
	pp.Float64(&p.Q)
	pp.Float64(&p.X0)
	pp.Float64(&p.Y0)
	pp.Int32(&p.K)
	pp.Int32(&p.M)
	pp.Int32(&p.Dir)
	pp.Int32(&p.Born)
}
