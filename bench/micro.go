package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/comm/wire"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/decomp"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/grid"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/pup"
)

// The layer microbenchmarks time the public functions of the layers that
// cannot be reached inside a running step (core, comm, comm/wire, pup,
// dist, balance) on inputs shaped like the workload's own step-1 state:
// rank 0's particles after the first step, which the warm-up run captures.

// captureSub copies rank 0's particles out of the warm-up run at the end
// of step 1. The warm-up's timings are discarded, so the copy costs nothing
// that is measured.
type captureSub struct {
	driver.Substrate
	out *[]particle.Particle
}

func (s *captureSub) CheckOwnership(step int) error {
	if step == 1 {
		*s.out = append([]particle.Particle(nil), s.Particles()...)
	}
	return s.Substrate.CheckOwnership(step)
}

// installCapture makes rank 0's substrate a captureSub.
func installCapture(eng *driver.Engine, out *[]particle.Particle) {
	real := eng.Substrate
	eng.Substrate = func(c *comm.Comm, cfg driver.Config) (driver.Substrate, error) {
		sub, err := real(c, cfg)
		if err != nil || c.Rank() != 0 {
			return sub, err
		}
		return &captureSub{Substrate: sub, out: out}, nil
	}
}

// kernelBytesPerParticle is the SoA traffic of one kernel update, computed
// from the column widths: X, Y, VX, VY, Q read (5×8) and X, Y, VX, VY
// written (4×8). Cache misses are not in it.
const kernelBytesPerParticle = 5*8 + 4*8

// payloadParticles caps the Columns payload of the wire and pup
// microbenchmarks: 100 000 particles ≈ 8 MB framed, the size of one
// fastdrift rank-step exchange.
const payloadParticles = 100000

// microCount is the number of timed loops microBench runs, rounded up; a
// --trace 1 invocation divides its microbenchmark time among them.
const microCount = 18

// timeCalls runs call until its timed sections add up to budget (or, when
// the untimed reset dominates, until twice the budget has passed on the
// wall) and returns the median timed section in seconds. call returns the
// duration of its own timed section so resets stay out of the number.
func timeCalls(budget time.Duration, call func() time.Duration) float64 {
	var timed time.Duration
	var samples []float64
	for wall := time.Now(); len(samples) == 0 || (timed < budget && time.Since(wall) < 2*budget); {
		d := call()
		timed += d
		samples = append(samples, d.Seconds())
	}
	return median(samples)
}

func copySoA(dst, src *core.SoA) {
	dst.Resize(src.Len())
	copy(dst.X, src.X)
	copy(dst.Y, src.Y)
	copy(dst.VX, src.VX)
	copy(dst.VY, src.VY)
	copy(dst.Q, src.Q)
	copy(dst.Meta, src.Meta)
}

// ringWidths mirrors driver.Config's unexported displacement ring: a
// particle moves exactly 2K+1 cells in x and |M| in y per step, maxed over
// the schedule's injections.
func ringWidths(cfg driver.Config) (rx, ry int) {
	rx, ry = 2*cfg.K+1, max(cfg.M, -cfg.M)
	for _, ev := range cfg.Schedule {
		if ev.Inject > 0 {
			rx, ry = max(rx, 2*ev.K+1), max(ry, ev.M, -ev.M)
		}
	}
	return rx, ry
}

// microBench runs every layer microbenchmark for one workload and returns
// the metrics by name. ps is rank 0's step-1 state; loads and planStep are
// the first observation the traced run's balancer saw (nil on the baseline
// workloads); budget is the timed duration of each benchmark.
func microBench(w *workload, cfg driver.Config, ps []particle.Particle, loads *balance.Loads, planStep int, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{"core.kernel_bytes_per_particle_computed": kernelBytesPerParticle}
	mesh, L := cfg.Mesh, cfg.Mesh.L

	// Rank 0's rectangle in the P=2 block decomposition is the left half;
	// at step 1 every substrate still has rank 0 there. A particle outside
	// it would index past the block, so drop any (none are expected).
	g, err := decomp.NewUniform2D(L, ranks, 1)
	if err != nil {
		return nil, err
	}
	x0, y0, nx, ny := g.RankRect(0)
	kept := ps[:0:0]
	for i := range ps {
		if cx, cy := mesh.CellOf(ps[i].X, ps[i].Y); g.OwnerOfCell(cx, cy) == 0 {
			kept = append(kept, ps[i])
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("%s: no rank-0 particles captured for the microbenchmarks", w.name)
	}
	ps = kept
	n := float64(len(ps))
	block, err := grid.NewBlock(mesh, x0, y0, nx, ny)
	if err != nil {
		return nil, err
	}
	ot := core.NewOwnerTable(g.X.Cuts, g.Y.Cuts)
	rx, ry := ringWidths(cfg)
	pristine, work := core.NewSoA(ps), &core.SoA{}
	pool := core.NewMovePool(1)
	defer pool.Close()
	var lv core.Leavers

	m["core.move_ns_per_particle"] = 1e9 / n * timeCalls(budget, func() time.Duration {
		copySoA(work, pristine)
		t := time.Now()
		pool.Move(work, block, mesh)
		return time.Since(t)
	})
	m["core.move_classify_ns_per_particle"] = 1e9 / n * timeCalls(budget, func() time.Duration {
		copySoA(work, pristine)
		t := time.Now()
		pool.MoveClassify(work, block, mesh, ot, 0, &lv)
		return time.Since(t)
	})

	var frontier core.Frontier
	var plan core.TilePlan
	var nbr core.NbrSet
	remote := func(o int32) bool { return o != 0 }
	rankOf := func(o int32) int { return int(o) }
	m["core.topology_rebuild_s"] = timeCalls(budget, func() time.Duration {
		t := time.Now()
		tab := core.NewOwnerTable(g.X.Cuts, g.Y.Cuts)
		frontier.Rebuild(tab, L, rx, ry, remote)
		plan.Build(&frontier, x0, y0, nx, ny, driver.DefaultTile)
		nbr.Rebuild(tab, L, rx, ry, 0, ranks, rankOf)
		return time.Since(t)
	})

	nt := plan.NumTiles()
	tid := make([]int32, len(ps))
	starts, cur := make([]int32, nt+1), make([]int32, nt)
	m["core.sort_by_tile_ns_per_particle"] = 1e9 / n * timeCalls(budget, func() time.Duration {
		t := time.Now()
		for i := range tid {
			cx, cy := mesh.CellOf(pristine.X[i], pristine.Y[i])
			tid[i] = plan.TileOf(cx, cy)
		}
		core.SortByTile(work, pristine, tid, nt, starts, cur)
		return time.Since(t)
	})

	// Scatter the step-2 leavers, then append them back as if they were the
	// peer's arrivals (by symmetry of the workloads they are the same size).
	shards := make([]core.Columns, ranks)
	scatter := timeCalls(budget, func() time.Duration {
		copySoA(work, pristine)
		pool.MoveClassify(work, block, mesh, ot, 0, &lv)
		for i := range shards {
			shards[i].Reset()
		}
		t := time.Now()
		work.ScatterRemove(&lv, shards)
		return time.Since(t)
	})
	arrivals := &shards[1]
	if k := arrivals.Len(); k > 0 {
		stayers := work.Len()
		m["core.scatter_remove_ns_per_leaver"] = 1e9 / float64(k) * scatter
		m["core.append_columns_ns_per_arrival"] = 1e9 / float64(k) * timeCalls(budget, func() time.Duration {
			work.Resize(stayers)
			t := time.Now()
			work.AppendColumns(arrivals)
			return time.Since(t)
		})
	}

	m["core.verify_positions_ns_per_particle"] = 1e9 / n * timeCalls(budget, func() time.Duration {
		t := time.Now()
		err = core.VerifyPositions(mesh, ps, 1, core.DefaultTolerance)
		return time.Since(t)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: captured step-1 state does not verify: %w", w.name, err)
	}

	dcfg := distConfig(cfg)
	m["dist.initialize_ns_per_particle"] = 1e9 / float64(cfg.N) * timeCalls(budget, func() time.Duration {
		t := time.Now()
		_, err = dist.Initialize(dcfg)
		return time.Since(t)
	})
	if err != nil {
		return nil, err
	}
	sim, err := core.NewSimulation(dcfg, nil)
	if err != nil {
		return nil, err
	}
	m["core.sim_serial_ns_per_particle_step"] = 1e9 / float64(cfg.N) * timeCalls(budget, func() time.Duration {
		t := time.Now()
		sim.Step()
		return time.Since(t)
	})

	payload := &core.Columns{}
	for i := 0; i < min(pristine.Len(), payloadParticles); i++ {
		payload.AppendFrom(pristine, i)
	}
	mb := float64(payload.FramedBytes()) / 1e6
	var buf []byte
	var kind pup.Kind
	m["pup.pack_columns_mb_per_s"] = mb / timeCalls(budget, func() time.Duration {
		t := time.Now()
		buf, kind, err = pup.EncodePayload(buf[:0], payload)
		return time.Since(t)
	})
	if err != nil {
		return nil, err
	}
	m["pup.unpack_columns_mb_per_s"] = mb / timeCalls(budget, func() time.Duration {
		t := time.Now()
		_, err = pup.DecodePayload(kind, buf)
		return time.Since(t)
	})
	if err != nil {
		return nil, err
	}

	if loads != nil {
		eng, err := w.engine(cfg)
		if err != nil {
			return nil, err
		}
		m["balance."+w.policy+"_decide_s"] = timeCalls(budget, func() time.Duration {
			b := eng.Balancer()
			t := time.Now()
			b.Observe(*loads)
			b.Plan(planStep)
			return time.Since(t)
		})
	}

	if err := commBench(m, false, budget, payload, func(fn func(c *comm.Comm) error) error {
		return comm.NewWorld(ranks).Run(fn)
	}); err != nil {
		return nil, err
	}
	if err := commBench(m, true, budget, payload, runLoopbackTCP); err != nil {
		return nil, err
	}
	return m, nil
}

// runLoopbackTCP runs fn on a P=2 world of wire nodes meshed over loopback
// tcp, one world per node as Engine.Run does for Transport "tcp".
func runLoopbackTCP(fn func(c *comm.Comm) error) error {
	nodes, err := wire.LoopbackCluster("tcp", ranks)
	if err != nil {
		return err
	}
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	wg.Add(len(nodes))
	for i, nd := range nodes {
		go func(i int, nd *wire.Node) {
			defer wg.Done()
			errs[i] = comm.NewTransportWorld(nd).Run(fn)
		}(i, nd)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// commBench times the exchange and allreduce collectives on a P=2 world
// that run starts. Inproc payloads move by pointer, so only the wire world
// also ships the Columns payload and accounts allocation.
func commBench(m map[string]float64, onWire bool, budget time.Duration, payload *core.Columns, run func(func(c *comm.Comm) error) error) error {
	prefix, small := "comm.", "exchange_roundtrip_s"
	if onWire {
		prefix, small = "wire.", "exchange_roundtrip_small_s"
	}
	return run(func(c *comm.Comm) error {
		send, recv := make([]*core.Columns, ranks), make([]*core.Columns, ranks)
		exchange := func() {
			comm.ExchangePtrStart(c, send)
			comm.ExchangePtrFinish(c, send, recv)
		}
		vec := make([]int64, 512)
		allreduce := func() { comm.Allreduce(c, vec, comm.Sum[int64]) }

		record(m, c, prefix+small, collective(c, budget, 200, exchange))
		record(m, c, prefix+"allreduce_s", collective(c, budget, 50, allreduce))
		if !onWire {
			return nil
		}
		send[1-c.Rank()] = payload
		var before, after runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		calls := 0
		big := collective(c, budget, 1, func() { exchange(); calls++ })
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			// Both ranks live in this process and both ship the payload.
			shipped := float64(calls) * ranks * float64(payload.FramedBytes())
			m["wire.exchange_mb_per_s"] = float64(payload.FramedBytes()) / 1e6 / big
			m["wire.alloc_bytes_per_payload_byte"] = float64(after.TotalAlloc-before.TotalAlloc) / shipped
		}
		return nil
	})
}

// record stores v under name from rank 0 only (the map is not shared
// between rank goroutines otherwise).
func record(m map[string]float64, c *comm.Comm, name string, v float64) {
	if c.Rank() == 0 {
		m[name] = v
	}
}

// collective times op, a collective every rank must call the same number of
// times, in batches of batch calls; after each batch rank 0 broadcasts
// whether the budget is spent. It returns the median seconds per call.
func collective(c *comm.Comm, budget time.Duration, batch int, op func()) float64 {
	var timed time.Duration
	var samples []float64
	for more := true; more; {
		t := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		d := time.Since(t)
		timed += d
		samples = append(samples, d.Seconds()/float64(batch))
		more = comm.Bcast(c, 0, timed < budget)
	}
	return median(samples)
}
