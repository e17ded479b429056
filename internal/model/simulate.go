package model

import (
	"fmt"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/diffusion"
)

// Outcome reports one modeled run.
type Outcome struct {
	// Seconds is the modeled makespan (sum over steps of the slowest
	// rank's compute+comm, plus synchronization and LB epochs).
	Seconds float64
	// ComputeSeconds is the part attributable to the slowest rank's
	// particle moves; CommSeconds to particle exchange; LBSeconds to load
	// balancing (decision collectives + migration).
	ComputeSeconds, CommSeconds, LBSeconds float64
	// MaxFinalLoad is the largest per-rank particle count at the end of the
	// run (paper §V-B's metric) and IdealLoad the perfectly balanced count.
	MaxFinalLoad, IdealLoad float64
	// Migrations counts LB data movements (cut shifts or VP moves).
	Migrations int
	// BytesMigrated is the total migration payload.
	BytesMigrated float64
}

func (o Outcome) String() string {
	return fmt.Sprintf("%.2fs (compute %.2f, comm %.2f, lb %.2f) maxLoad %.0f/%.0f migrations %d",
		o.Seconds, o.ComputeSeconds, o.CommSeconds, o.LBSeconds, o.MaxFinalLoad, o.IdealLoad, o.Migrations)
}

// SimulateBaseline models the paper's "mpi-2d" implementation: static
// near-square 2D block decomposition, no load balancing.
func SimulateBaseline(m Machine, w *Workload, p, steps int) Outcome {
	px, py := comm.Dims2D(p)
	xb := decomp.MustUniformBounds(w.L, px)
	out := Outcome{}
	for s := 0; s < steps; s++ {
		stepRanks2D(m, w, px, py, xb, &out)
		w.Step()
	}
	finishRanks2D(w, px, py, xb, &out)
	return out
}

// SimulateDiffusion models the paper's "mpi-2d-LB" implementation: the
// baseline plus the diffusion-based x-direction boundary balancing of
// §IV-B, with its three knobs (frequency, threshold, border width).
func SimulateDiffusion(m Machine, w *Workload, p, steps int, params diffusion.Params) Outcome {
	o, _ := SimulateDiffusionTraced(m, w, p, steps, params)
	return o
}

// SimulateDiffusionTraced is SimulateDiffusion returning, alongside the
// outcome, the balancing history of the policy — the very same
// balance.DiffusionBalancer the real driver runs, fed the analytic
// histogram instead of a particle reduction. For identical load histories
// the returned log is identical to the driver's Result.BalanceLog, which a
// test asserts.
func SimulateDiffusionTraced(m Machine, w *Workload, p, steps int, params diffusion.Params) (Outcome, []string) {
	px, py := comm.Dims2D(p)
	xb := decomp.MustUniformBounds(w.L, px)
	yb := decomp.MustUniformBounds(w.L, py)
	bal := &balance.DiffusionBalancer{Params: params}
	needs := bal.Needs()
	out := Outcome{}
	for s := 1; s <= steps; s++ {
		stepRanks2D(m, w, px, py, xb, &out)
		w.Step()
		if s%params.Every == 0 && px > 1 {
			loads := balance.Loads{X: xb, Y: yb, Cores: p, Cells: w.Histogram()}
			if needs.Rows {
				loads.Rows = w.RowHistogram()
			}
			bal.Observe(loads)
			plan := bal.Plan(s)
			// Decision protocol cost: the paper's scheme reduces per-block
			// sums along each column of processors and exchanges border
			// column loads with x-neighbors — payload O(px + Width), not the
			// full histogram.
			cost := m.AllreduceCost(p, float64(8*(px+params.Width)))
			if params.TwoPhase {
				// Phase 2 pays the analogous row-sum reduction. The model's
				// workload is uniform in y (paper §III-E1), so the y-cuts
				// never move and phase 2 contributes only decision cost —
				// which is exactly why the paper's experiments restrict
				// balancing to the x direction.
				cost += m.AllreduceCost(p, float64(8*(py+params.Width)))
			}
			if plan.X != nil {
				newX := *plan.X
				// Each moved cut ships border columns between the adjacent
				// rank columns, one message per row of ranks; the epoch's
				// extra time is the slowest pair's cost.
				// Unlike the AMPI reshuffle, diffusion transfers are strictly
				// nearest-neighbor (the subdomains stay compact, §V-B), so
				// concurrent pairs do not contend for bisection bandwidth;
				// the epoch costs the slowest single pair.
				var worst float64
				rowCells := float64(w.L) / float64(py)
				for j := 1; j < px; j++ {
					lo, hi := min(xb.Cuts[j], newX.Cuts[j]), max(xb.Cuts[j], newX.Cuts[j])
					if lo == hi {
						continue
					}
					moved := w.RangeSum(lo, hi) / float64(py)
					bytes := float64(hi-lo)*rowCells*m.BytesPerCell + moved*m.BytesPerParticle
					// The transfer happens between x-adjacent ranks in every
					// row; the worst row pair crosses a node boundary iff any
					// does — model each row pair and keep the slowest.
					for cy := 0; cy < py; cy++ {
						a := cy*px + (j - 1)
						b := cy*px + j
						if c := m.MsgCost(a, b, bytes); c > worst {
							worst = c
						}
					}
					out.Migrations++
					out.BytesMigrated += bytes * float64(py)
				}
				cost += worst
				xb = newX
			}
			if plan.Y != nil {
				// The analytic workload is y-uniform, so a y move is all but
				// impossible; charge it like an x move of the same width and
				// keep the cuts coherent regardless.
				newY := *plan.Y
				colCells := float64(w.L) / float64(px)
				var worst float64
				for j := 1; j < py; j++ {
					lo, hi := min(yb.Cuts[j], newY.Cuts[j]), max(yb.Cuts[j], newY.Cuts[j])
					if lo == hi {
						continue
					}
					moved := w.Total() * float64(hi-lo) / float64(w.L) / float64(px)
					bytes := float64(hi-lo)*colCells*m.BytesPerCell + moved*m.BytesPerParticle
					for cx := 0; cx < px; cx++ {
						a := (j-1)*px + cx
						b := j*px + cx
						if c := m.MsgCost(a, b, bytes); c > worst {
							worst = c
						}
					}
					out.Migrations++
					out.BytesMigrated += bytes * float64(px)
				}
				cost += worst
				yb = newY
			}
			if !plan.Empty() {
				bal.Apply(plan)
			}
			out.Seconds += cost
			out.LBSeconds += cost
		}
	}
	finishRanks2D(w, px, py, xb, &out)
	return out, bal.History()
}

// stepRanks2D charges one step of the block-decomposed implementations:
// every rank moves its particles and exchanges boundary-crossing particles
// with its x-neighbor.
func stepRanks2D(m Machine, w *Workload, px, py int, xb decomp.Bounds, out *Outcome) {
	var maxCost, maxCompute float64
	pyf := float64(py)
	for cx := 0; cx < px; cx++ {
		lo, hi := xb.Lo(cx), xb.Hi(cx)
		load := w.RangeSum(lo, hi) / pyf
		compute := m.TimePerParticle * load
		// Outgoing particles: those in the trailing Speed columns cross to
		// the next block in the drift direction; incoming from the previous.
		width := hi - lo
		span := min(w.Speed, width)
		crossOut := w.RangeSum(hi-span, hi) / pyf
		var nx, pv int
		if w.Dir >= 0 {
			nx, pv = (cx+1)%px, (cx-1+px)%px
		} else {
			nx, pv = (cx-1+px)%px, (cx+1)%px
		}
		plo, phi := xb.Lo(pv), xb.Hi(pv)
		pspan := min(w.Speed, phi-plo)
		crossIn := w.RangeSum(phi-pspan, phi) / pyf
		for cy := 0; cy < py; cy++ {
			me := cy*px + cx
			cost := compute
			cost += m.MsgCost(me, cy*px+nx, crossOut*m.BytesPerParticle)
			cost += m.MsgCost(cy*px+pv, me, crossIn*m.BytesPerParticle)
			// Per-step halo synchronization with the four spatial neighbors
			// (counts are exchanged even when no particles cross).
			cost += m.MsgCost(me, cy*px+(cx+1)%px, m.HaloBytes)
			cost += m.MsgCost(me, cy*px+(cx-1+px)%px, m.HaloBytes)
			if py > 1 {
				cost += m.MsgCost(me, ((cy+1)%py)*px+cx, m.HaloBytes)
				cost += m.MsgCost(me, ((cy-1+py)%py)*px+cx, m.HaloBytes)
			}
			if cost > maxCost {
				maxCost = cost
			}
		}
		if compute > maxCompute {
			maxCompute = compute
		}
	}
	step := maxCost + m.SyncCost(px*py)
	out.Seconds += step
	out.ComputeSeconds += maxCompute
	out.CommSeconds += step - maxCompute
}

func finishRanks2D(w *Workload, px, py int, xb decomp.Bounds, out *Outcome) {
	var maxLoad float64
	for cx := 0; cx < px; cx++ {
		if l := w.RangeSum(xb.Lo(cx), xb.Hi(cx)) / float64(py); l > maxLoad {
			maxLoad = l
		}
	}
	out.MaxFinalLoad = maxLoad
	out.IdealLoad = w.Total() / float64(px*py)
}

// AMPIModelParams tunes the modeled "ampi" implementation.
type AMPIModelParams struct {
	// Overdecompose is d: d·P virtual processors.
	Overdecompose int
	// Every is F: steps between load-balancer invocations.
	Every int
	// Strategy is the balancer; nil means GreedyLB, Charm++'s classic
	// default: a full locality-agnostic reassignment each invocation, the
	// behaviour behind the paper's Figure 5 sensitivity to F and the
	// §V-B fragmentation discussion. RefineLB is available as an ablation.
	Strategy ampi.Strategy
}

// SimulateAMPI models the paper's "ampi" implementation: the §IV-A
// algorithm over-decomposed into d·P VPs, rebalanced every F steps by a
// locality-agnostic runtime strategy. VP-to-core fragmentation and its
// communication penalty emerge from the owner table: after migrations, VPs
// adjacent in the domain may live on different nodes, so their per-step
// boundary traffic pays inter-node cost — the effect the paper blames for
// the strong-scaling gap (§V-B).
func SimulateAMPI(m Machine, w *Workload, p, steps int, params AMPIModelParams) Outcome {
	o, _ := SimulateAMPITraced(m, w, p, steps, params)
	return o
}

// SimulateAMPITraced is SimulateAMPI returning, alongside the outcome, the
// balancing history of the policy — the same balance.StrategyBalancer the
// real driver runs, fed analytic per-VP loads. A topology-aware strategy is
// hinted in a copy; params.Strategy is unchanged.
func SimulateAMPITraced(m Machine, w *Workload, p, steps int, params AMPIModelParams) (Outcome, []string) {
	strategy := params.Strategy
	if strategy == nil {
		strategy = ampi.GreedyLB{}
	}
	px, py := comm.Dims2D(p)
	dx, dy := comm.Dims2D(params.Overdecompose)
	vx, vy := px*dx, py*dy
	if vx > w.L {
		// Clamp over-decomposition to one column of cells per VP.
		vx = w.L
	}
	vxb := decomp.MustUniformBounds(w.L, vx)
	if ta, ok := strategy.(ampi.TopologyAware); ok {
		strategy = ta.WithTopology(ampi.GridNeighbors(vx, vy), m.CoresPerNode)
	}
	bal := balance.NewStrategyBalancer(strategy, params.Every)
	place, err := ampi.BlockPlacement(vx, vy, px, py)
	if err != nil {
		// vx was clamped; fall back to a contiguous striping that is still
		// compact per core.
		place = func(vp int) int {
			gx, gy := vp%vx, vp/vx
			return (gy*py/vy)*px + gx*px/vx
		}
	}
	nvp := vx * vy
	owner := make([]int, nvp)
	for vp := range owner {
		owner[vp] = place(vp)
	}

	out := Outcome{}
	vyf := float64(vy)
	xload := make([]float64, vx)
	coreCost := make([]float64, p)
	coreCompute := make([]float64, p)
	coreNVP := make([]int, p)
	for _, c := range owner {
		coreNVP[c]++
	}
	vpLoads := make([]float64, nvp)

	for s := 1; s <= steps; s++ {
		for i := 0; i < vx; i++ {
			xload[i] = w.RangeSum(vxb.Lo(i), vxb.Hi(i))
		}
		for c := 0; c < p; c++ {
			coreCompute[c] = float64(coreNVP[c]) * m.VPOverheadPerStep
		}
		for vp := 0; vp < nvp; vp++ {
			coreCompute[owner[vp]] += m.TimePerParticle * xload[vp%vx] / vyf
		}
		copy(coreCost, coreCompute)
		// Boundary traffic between x-adjacent VPs, plus per-step halo
		// synchronization with all four VP neighbors: a fragmented owner
		// table turns these into inter-node messages.
		for i := 0; i < vx; i++ {
			width := vxb.Width(i)
			span := min(w.Speed, width)
			cross := w.RangeSum(vxb.Hi(i)-span, vxb.Hi(i)) / vyf
			var ni int
			if w.Dir >= 0 {
				ni = (i + 1) % vx
			} else {
				ni = (i - 1 + vx) % vx
			}
			for j := 0; j < vy; j++ {
				me := owner[j*vx+i]
				if dst := owner[j*vx+ni]; dst != me {
					c := m.MsgCost(me, dst, cross*m.BytesPerParticle)
					coreCost[me] += c
					coreCost[dst] += c
				}
				halo := func(other int) {
					if other != me {
						coreCost[me] += m.MsgCost(me, other, m.HaloBytes)
					}
				}
				halo(owner[j*vx+(i+1)%vx])
				halo(owner[j*vx+(i-1+vx)%vx])
				if vy > 1 {
					halo(owner[((j+1)%vy)*vx+i])
					halo(owner[((j-1+vy)%vy)*vx+i])
				}
			}
		}
		var maxCost, maxCompute float64
		for c := 0; c < p; c++ {
			if coreCost[c] > maxCost {
				maxCost = coreCost[c]
			}
			if coreCompute[c] > maxCompute {
				maxCompute = coreCompute[c]
			}
		}
		step := maxCost + m.SyncCost(p)
		out.Seconds += step
		out.ComputeSeconds += maxCompute
		out.CommSeconds += step - maxCompute

		w.Step()

		if s%params.Every == 0 && p > 1 {
			for i := 0; i < vx; i++ {
				xload[i] = w.RangeSum(vxb.Lo(i), vxb.Hi(i))
			}
			for vp := 0; vp < nvp; vp++ {
				vpLoads[vp] = xload[vp%vx] / vyf
			}
			bal.Observe(balance.Loads{Units: vpLoads, Owner: owner, Cores: p})
			plan := bal.Plan(s)
			cost := m.AllreduceCost(p, float64(8*nvp))
			newOwner := owner
			if plan.Owner != nil {
				newOwner = plan.Owner
			}
			extra := make([]float64, p)
			cellsPerVP := float64(w.L) / float64(vx) * float64(w.L) / vyf
			var intraBytes, interBytes float64
			for vp := 0; vp < nvp; vp++ {
				if newOwner[vp] == owner[vp] {
					continue
				}
				bytes := cellsPerVP*m.BytesPerCell + vpLoads[vp]*m.BytesPerParticle
				c := m.MsgCost(owner[vp], newOwner[vp], bytes)
				extra[owner[vp]] += c
				extra[newOwner[vp]] += c
				coreNVP[owner[vp]]--
				coreNVP[newOwner[vp]]++
				out.Migrations++
				out.BytesMigrated += bytes
				if m.SameNode(owner[vp], newOwner[vp]) {
					intraBytes += bytes
				} else {
					interBytes += bytes
				}
			}
			var worst float64
			for c := 0; c < p; c++ {
				if extra[c] > worst {
					worst = extra[c]
				}
			}
			// A bulk reshuffle is globally limited: the epoch cannot finish
			// faster than the total moved volume over the machine's
			// aggregate migration throughput (node-local moves are
			// memcpy-class, cross-node moves pay the network).
			if agg := m.MigrationEpochTime(p, intraBytes, interBytes); agg > worst {
				worst = agg
			}
			cost += worst
			if plan.Owner != nil {
				owner = plan.Owner
				bal.Apply(plan)
			}
			out.Seconds += cost
			out.LBSeconds += cost
		}
	}

	// Final per-core loads for the paper's §V-B metric.
	for i := 0; i < vx; i++ {
		xload[i] = w.RangeSum(vxb.Lo(i), vxb.Hi(i))
	}
	coreLoad := make([]float64, p)
	for vp := 0; vp < nvp; vp++ {
		coreLoad[owner[vp]] += xload[vp%vx] / vyf
	}
	for _, l := range coreLoad {
		if l > out.MaxFinalLoad {
			out.MaxFinalLoad = l
		}
	}
	out.IdealLoad = w.Total() / float64(p)
	return out, bal.History()
}

// SimulateSerial models the single-core run used as the speedup baseline.
func SimulateSerial(m Machine, w *Workload, steps int) Outcome {
	out := Outcome{}
	for s := 0; s < steps; s++ {
		t := m.TimePerParticle * w.Total()
		out.Seconds += t
		out.ComputeSeconds += t
		w.Step()
	}
	out.MaxFinalLoad = w.Total()
	out.IdealLoad = w.Total()
	return out
}
