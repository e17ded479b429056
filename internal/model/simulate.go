package model

import (
	"fmt"
	"slices"

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
	o, _ := newBlockRun(m, w, p, diffusion.Params{}).simulate(balance.NullBalancer{}, steps)
	return o
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
	return newBlockRun(m, w, p, params).simulate(&balance.DiffusionBalancer{Params: params}, steps)
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
// communication penalty emerge from the host table: after migrations, VPs
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
	r := newVPRun(m, w, p, params.Overdecompose)
	strategy := params.Strategy
	if strategy == nil {
		strategy = ampi.GreedyLB{}
	}
	if ta, ok := strategy.(ampi.TopologyAware); ok {
		strategy = ta.WithTopology(ampi.GridNeighbors(r.g.PX, r.g.PY), m.CoresPerNode)
	}
	return r.simulate(balance.NewStrategyBalancer(strategy, params.Every), steps)
}

// run is one modeled execution in the shape of the driver's stepper: an
// owner grid g, a host table (owner → core) and a per-owner scheduling
// overhead, advanced by one loop under one balancer. The substrate adds
// only what differs between decompositions.
type run struct {
	m        Machine
	w        *Workload
	p        int
	g        *decomp.Grid2D
	host     []int
	overhead float64
	sub      substrate
	out      Outcome

	// xload[i] is owner column i's particle count (the workload is uniform
	// in y, so an owner carries 1/g.PY of its column); owners, compute and
	// cost are per core.
	xload         []float64
	owners        []int
	compute, cost []float64
}

// substrate is what a decomposition adds to the run: the loads its
// balancer observes, the cost of the decision collective, and the price of
// executing a plan, which it also applies to the owner grid or host table.
type substrate interface {
	loads(r *run, needs balance.Needs) balance.Loads
	decisionCost(r *run) float64
	execute(r *run, plan balance.Plan) float64
}

func newRun(m Machine, w *Workload, p int, g *decomp.Grid2D, host []int, overhead float64, sub substrate) *run {
	r := &run{
		m: m, w: w, p: p, g: g, overhead: overhead, sub: sub,
		xload:   make([]float64, g.PX),
		owners:  make([]int, p),
		compute: make([]float64, p),
		cost:    make([]float64, p),
	}
	r.place(host)
	return r
}

// place installs a host table and counts each core's owners.
func (r *run) place(host []int) {
	r.host = host
	clear(r.owners)
	for _, c := range host {
		r.owners[c]++
	}
}

// simulate is the one step loop: charge the step, advance the workload,
// and every bal.Interval() steps observe, plan, price the execution and
// apply it — the cadence of the driver's epochRunner.oneStep.
func (r *run) simulate(bal balance.Balancer, steps int) (Outcome, []string) {
	every, needs := bal.Interval(), bal.Needs()
	for s := 1; s <= steps; s++ {
		r.chargeStep()
		r.w.Step()
		if every > 0 && s%every == 0 && r.p > 1 {
			bal.Observe(r.sub.loads(r, needs))
			plan := bal.Plan(s)
			cost := r.sub.decisionCost(r)
			if !plan.Empty() {
				cost += r.sub.execute(r, plan)
				bal.Apply(plan)
			}
			r.out.Seconds += cost
			r.out.LBSeconds += cost
		}
	}
	// Final per-core loads for the paper's §V-B metric.
	r.measure()
	load := make([]float64, r.p)
	for o, c := range r.host {
		load[c] += r.xload[o%r.g.PX] / float64(r.g.PY)
	}
	r.out.MaxFinalLoad = slices.Max(load)
	r.out.IdealLoad = r.w.Total() / float64(r.p)
	return r.out, bal.History()
}

// measure fills xload from the workload's current state.
func (r *run) measure() {
	for i := range r.xload {
		r.xload[i] = r.w.RangeSum(r.g.X.Lo(i), r.g.X.Hi(i))
	}
}

// chargeStep charges one step: each core's compute (its owners' scheduling
// overhead, then their particle moves), the message from every owner to the
// next one in the drift direction carrying the particles that cross (added
// to both hosts, and only when they differ), the per-step halo
// synchronization with all four neighbor owners (added to the sender; the
// counts are exchanged even when no particles cross), and the step's
// synchronization. A fragmented host table turns these into inter-node
// messages.
func (r *run) chargeStep() {
	m, w, g := &r.m, r.w, r.g
	rows := float64(g.PY)
	r.measure()
	for c, n := range r.owners {
		r.compute[c] = float64(n) * r.overhead
	}
	for o, c := range r.host {
		r.compute[c] += m.TimePerParticle * r.xload[o%g.PX] / rows
	}
	copy(r.cost, r.compute)
	for i := range g.PX {
		span := min(w.Speed, g.X.Width(i))
		cross := w.RangeSum(g.X.Hi(i)-span, g.X.Hi(i)) / rows
		next := (i + 1) % g.PX
		if w.Dir < 0 {
			next = (i - 1 + g.PX) % g.PX
		}
		for j := range g.PY {
			me := r.host[g.Rank(i, j)]
			if dst := r.host[g.Rank(next, j)]; dst != me {
				c := m.MsgCost(me, dst, cross*m.BytesPerParticle)
				r.cost[me] += c
				r.cost[dst] += c
			}
			r.halo(me, g.Rank((i+1)%g.PX, j))
			r.halo(me, g.Rank((i-1+g.PX)%g.PX, j))
			if g.PY > 1 {
				r.halo(me, g.Rank(i, (j+1)%g.PY))
				r.halo(me, g.Rank(i, (j-1+g.PY)%g.PY))
			}
		}
	}
	maxCompute := slices.Max(r.compute)
	step := slices.Max(r.cost) + m.SyncCost(r.p)
	r.out.Seconds += step
	r.out.ComputeSeconds += maxCompute
	r.out.CommSeconds += step - maxCompute
}

// halo charges core me the halo message to the host of owner o.
func (r *run) halo(me, o int) {
	if other := r.host[o]; other != me {
		r.cost[me] += r.m.MsgCost(me, other, r.m.HaloBytes)
	}
}

// blockSubstrate is the block decomposition: the owner grid is the
// near-square rank grid, the host table the identity, and diffusion moves
// the cuts.
type blockSubstrate struct{ params diffusion.Params }

func newBlockRun(m Machine, w *Workload, p int, params diffusion.Params) *run {
	px, py := comm.Dims2D(p)
	g := &decomp.Grid2D{PX: px, PY: py, X: decomp.MustUniformBounds(w.L, px), Y: decomp.MustUniformBounds(w.L, py)}
	host := make([]int, p)
	for i := range host {
		host[i] = i
	}
	return newRun(m, w, p, g, host, 0, blockSubstrate{params})
}

func (b blockSubstrate) loads(r *run, needs balance.Needs) balance.Loads {
	l := balance.Loads{X: r.g.X, Y: r.g.Y, Cores: r.p}
	if needs.Cells {
		l.Cells = r.w.Histogram()
	}
	if needs.Rows {
		l.Rows = r.w.RowHistogram()
	}
	return l
}

// decisionCost: the paper's scheme reduces per-block sums along each column
// of processors and exchanges border column loads with x-neighbors —
// payload O(px + Width), not the full histogram. Two-phase balancing pays
// the analogous row-sum reduction; the model's workload is uniform in y
// (paper §III-E1), so the y-cuts never move and phase 2 contributes only
// decision cost — which is exactly why the paper's experiments restrict
// balancing to the x direction.
func (b blockSubstrate) decisionCost(r *run) float64 {
	cost := r.m.AllreduceCost(r.p, float64(8*(r.g.PX+b.params.Width)))
	if b.params.TwoPhase {
		cost += r.m.AllreduceCost(r.p, float64(8*(r.g.PY+b.params.Width)))
	}
	return cost
}

func (b blockSubstrate) execute(r *run, plan balance.Plan) float64 {
	g, w := r.g, r.w
	var cost float64
	if plan.X != nil {
		cost += r.moveCuts(g.X, *plan.X, g.PY, g.Rank, func(lo, hi int) float64 {
			return w.RangeSum(lo, hi) / float64(g.PY)
		})
		g.X = *plan.X
	}
	if plan.Y != nil {
		// The analytic workload is y-uniform, so a y move is all but
		// impossible; charge it like an x move of the same width and keep
		// the cuts coherent regardless.
		cost += r.moveCuts(g.Y, *plan.Y, g.PX, func(y, x int) int { return g.Rank(x, y) }, func(lo, hi int) float64 {
			return w.Total() * float64(hi-lo) / float64(w.L) / float64(g.PX)
		})
		g.Y = *plan.Y
	}
	return cost
}

// moveCuts prices one axis of a diffusion plan. Each moved cut ships the
// border strip, and the particles moved(lo, hi) in it, between the owners
// it separates, once per owner row across the axis (rank(along, across)
// names an owner). Unlike the AMPI reshuffle, diffusion transfers are
// strictly nearest-neighbor (the subdomains stay compact, §V-B), so
// concurrent pairs do not contend for bisection bandwidth; the axis costs
// the slowest single pair, which crosses a node boundary iff any does.
func (r *run) moveCuts(from, to decomp.Bounds, across int, rank func(along, across int) int, moved func(lo, hi int) float64) float64 {
	m := &r.m
	strip := float64(r.w.L) / float64(across)
	var worst float64
	for j := 1; j < from.N(); j++ {
		lo, hi := min(from.Cuts[j], to.Cuts[j]), max(from.Cuts[j], to.Cuts[j])
		if lo == hi {
			continue
		}
		bytes := float64(hi-lo)*strip*m.BytesPerCell + moved(lo, hi)*m.BytesPerParticle
		for k := range across {
			worst = max(worst, m.MsgCost(r.host[rank(j-1, k)], r.host[rank(j, k)], bytes))
		}
		r.out.Migrations++
		r.out.BytesMigrated += bytes * float64(across)
	}
	return worst
}

// vpSubstrate is the over-decomposed one: the owner grid is a static grid
// of d·P VPs, the host table starts as a compact block placement and the
// strategy rewrites it, and every VP pays the scheduling overhead.
type vpSubstrate struct {
	// units holds the per-VP loads of the last observation, which the
	// moves of its plan ship.
	units []float64
}

func newVPRun(m Machine, w *Workload, p, d int) *run {
	px, py := comm.Dims2D(p)
	dx, dy := comm.Dims2D(d)
	// Clamp over-decomposition to one column (row) of cells per VP.
	vx, vy := min(px*dx, w.L), min(py*dy, w.L)
	place, err := ampi.BlockPlacement(vx, vy, px, py)
	if err != nil {
		// The VP grid was clamped; fall back to a contiguous striping that
		// is still compact per core.
		place = func(vp int) int {
			gx, gy := vp%vx, vp/vx
			return (gy*py/vy)*px + gx*px/vx
		}
	}
	host := make([]int, vx*vy)
	for vp := range host {
		host[vp] = place(vp)
	}
	g := &decomp.Grid2D{PX: vx, PY: vy, X: decomp.MustUniformBounds(w.L, vx), Y: decomp.MustUniformBounds(w.L, vy)}
	return newRun(m, w, p, g, host, m.VPOverheadPerStep, &vpSubstrate{units: make([]float64, len(host))})
}

func (v *vpSubstrate) loads(r *run, _ balance.Needs) balance.Loads {
	r.measure()
	for vp := range v.units {
		v.units[vp] = r.xload[vp%r.g.PX] / float64(r.g.PY)
	}
	return balance.Loads{Units: v.units, Owner: r.host, Cores: r.p}
}

func (v *vpSubstrate) decisionCost(r *run) float64 {
	return r.m.AllreduceCost(r.p, float64(8*len(r.host)))
}

// execute prices the VP moves: each costs both cores one message, and a
// bulk reshuffle is globally limited too — the epoch cannot finish faster
// than the total moved volume over the machine's aggregate migration
// throughput (node-local moves are memcpy-class, cross-node moves pay the
// network).
func (v *vpSubstrate) execute(r *run, plan balance.Plan) float64 {
	m := &r.m
	extra := make([]float64, r.p)
	cellsPerVP := float64(r.w.L) / float64(r.g.PX) * float64(r.w.L) / float64(r.g.PY)
	var intraBytes, interBytes float64
	for vp, to := range plan.Owner {
		from := r.host[vp]
		if to == from {
			continue
		}
		bytes := cellsPerVP*m.BytesPerCell + v.units[vp]*m.BytesPerParticle
		c := m.MsgCost(from, to, bytes)
		extra[from] += c
		extra[to] += c
		r.out.Migrations++
		r.out.BytesMigrated += bytes
		if m.SameNode(from, to) {
			intraBytes += bytes
		} else {
			interBytes += bytes
		}
	}
	r.place(plan.Owner)
	return max(slices.Max(extra), m.MigrationEpochTime(r.p, intraBytes, interBytes))
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
