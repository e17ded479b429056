package ampi

import (
	"fmt"
	"sort"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/pup"
)

// VP is one virtual processor: a migratable unit of work and data. The
// application defines the concrete type; the runtime only needs its
// identity, its measured load, and the ability to PUP its entire state.
// Arrivals may unpack into a recycled shell of a previously departed VP
// rather than a fresh factory product, so a VP's PUP routine must fully
// overwrite its state when unpacking.
type VP interface {
	// VPID returns the VP's global id in [0, number of VPs).
	VPID() int
	// Load returns the measured load of the most recent steps (for the PIC
	// PRK: the particle count, which is exactly proportional to work).
	Load() float64
	pup.PUPable
}

// tagMigrateBase starts the tag range used for VP migration; VP id is added
// so every in-flight VP has a distinct (src, tag) stream.
const tagMigrateBase = 1 << 20

// Runtime hosts the VPs assigned to one core and coordinates collective
// load balancing with the other cores of the communicator. Methods must be
// called SPMD-style: LoadBalance is collective.
type Runtime struct {
	c       *comm.Comm
	nvp     int
	factory func() VP
	// location[vp] is the core currently hosting vp; identical on all
	// cores (updated in lockstep by LoadBalance).
	location []int
	local    map[int]VP
	// ids caches the sorted local VP ids (LocalIDs is on the per-step hot
	// path); rebuilt lazily into the same buffer and invalidated by Migrate.
	ids      []int
	idsValid bool
	// free holds shells of departed VPs; arrivals unpack into one instead
	// of a fresh factory product, so their retained buffer capacities keep
	// steady-state migration off the allocator. Bounded by the number of
	// VPs this core has ever hosted.
	free []VP
	// loads is the reused local input vector for MeasureLoads.
	loads []float64

	// Stats accumulates migration counters for this core.
	Stats Stats
}

// Stats counts migration activity on one core.
type Stats struct {
	// LBInvocations is the number of LoadBalance calls.
	LBInvocations int
	// VPsSent and VPsReceived count migrations from/to this core.
	VPsSent, VPsReceived int
	// BytesSent and BytesReceived count PUP payload volume.
	BytesSent, BytesReceived int64
}

// NewRuntime creates the runtime on one core. nvp is the global VP count;
// place maps each VP to its initial core; makeLocal constructs the initial
// state of a VP this core owns; factory constructs an empty VP shell for
// unpacking a migrated one.
func NewRuntime(c *comm.Comm, nvp int, place func(vp int) int, makeLocal func(vp int) VP, factory func() VP) (*Runtime, error) {
	if nvp <= 0 {
		return nil, fmt.Errorf("ampi: need at least one VP, got %d", nvp)
	}
	rt := &Runtime{
		c:        c,
		nvp:      nvp,
		factory:  factory,
		location: make([]int, nvp),
		local:    make(map[int]VP),
	}
	for vp := 0; vp < nvp; vp++ {
		core := place(vp)
		if core < 0 || core >= c.Size() {
			return nil, fmt.Errorf("ampi: VP %d placed on invalid core %d", vp, core)
		}
		rt.location[vp] = core
		if core == c.Rank() {
			v := makeLocal(vp)
			if v.VPID() != vp {
				return nil, fmt.Errorf("ampi: makeLocal(%d) returned VP with id %d", vp, v.VPID())
			}
			rt.local[vp] = v
		}
	}
	return rt, nil
}

// Location returns the core currently hosting a VP.
func (rt *Runtime) Location(vp int) int { return rt.location[vp] }

// Local returns the locally-hosted VP with the given id, or nil.
func (rt *Runtime) Local(vp int) VP { return rt.local[vp] }

// LocalIDs returns the ids of locally-hosted VPs in ascending order. The
// returned slice is shared and valid until the next Migrate call; callers
// must not modify or retain it across migrations.
func (rt *Runtime) LocalIDs() []int {
	if !rt.idsValid {
		rt.ids = rt.ids[:0]
		for id := range rt.local {
			rt.ids = append(rt.ids, id)
		}
		sort.Ints(rt.ids)
		rt.idsValid = true
	}
	return rt.ids
}

// ForEach invokes fn on every local VP in ascending id order (the
// deterministic stand-in for the Charm++ scheduler's VP execution loop).
func (rt *Runtime) ForEach(fn func(vp VP)) {
	for _, id := range rt.LocalIDs() {
		fn(rt.local[id])
	}
}

// MeasureLoads is the collective load-measurement step: every core reduces
// its local VPs' loads into the global per-VP load vector. It counts as one
// load-balancer invocation (Stats.LBInvocations), since it is the epoch's
// mandatory collective whether or not anything subsequently moves.
func (rt *Runtime) MeasureLoads() []float64 {
	rt.Stats.LBInvocations++
	if rt.loads == nil {
		rt.loads = make([]float64, rt.nvp)
	}
	for i := range rt.loads {
		rt.loads[i] = 0
	}
	for id, vp := range rt.local {
		rt.loads[id] = vp.Load()
	}
	// Allreduce copies its input before sending, so the reused local vector
	// never escapes; the returned global vector is freshly owned.
	return comm.Allreduce(rt.c, rt.loads, comm.Sum[float64])
}

// Locations returns a copy of the VP-to-core owner table.
func (rt *Runtime) Locations() []int {
	return append([]int(nil), rt.location...)
}

// Migrate moves VPs to match the given owner table, PUP-serializing each
// departing VP over the communicator. Every core must call it with the
// identical table (it is a pure function of globally-reduced loads in all
// strategies). It returns the number of VPs that moved globally.
func (rt *Runtime) Migrate(newOwner []int) (int, error) {
	if len(newOwner) != rt.nvp {
		return 0, fmt.Errorf("ampi: new owner table has %d entries for %d VPs", len(newOwner), rt.nvp)
	}
	me := rt.c.Rank()

	// Send departures first (sends never block), then collect arrivals.
	moves := 0
	for vp := 0; vp < rt.nvp; vp++ {
		from, to := rt.location[vp], newOwner[vp]
		if from == to {
			continue
		}
		moves++
		if to < 0 || to >= rt.c.Size() {
			return 0, fmt.Errorf("ampi: owner table moves VP %d to invalid core %d", vp, to)
		}
		if from == me {
			v, ok := rt.local[vp]
			if !ok {
				return 0, fmt.Errorf("ampi: location table says VP %d is here but it is not", vp)
			}
			buf, err := pup.Pack(v)
			if err != nil {
				return 0, fmt.Errorf("ampi: packing VP %d: %w", vp, err)
			}
			rt.c.Send(to, tagMigrateBase+vp, buf)
			delete(rt.local, vp)
			rt.free = append(rt.free, v)
			rt.Stats.VPsSent++
			rt.Stats.BytesSent += int64(len(buf))
		}
	}
	for vp := 0; vp < rt.nvp; vp++ {
		from, to := rt.location[vp], newOwner[vp]
		if from == to || to != me {
			continue
		}
		data, _ := rt.c.Recv(from, tagMigrateBase+vp)
		buf := data.([]byte)
		var v VP
		if n := len(rt.free); n > 0 {
			v = rt.free[n-1]
			rt.free[n-1] = nil
			rt.free = rt.free[:n-1]
		} else {
			v = rt.factory()
		}
		if err := pup.Unpack(v, buf); err != nil {
			return 0, fmt.Errorf("ampi: unpacking VP %d: %w", vp, err)
		}
		if v.VPID() != vp {
			return 0, fmt.Errorf("ampi: migration stream mismatch: expected VP %d, got %d", vp, v.VPID())
		}
		rt.local[vp] = v
		rt.Stats.VPsReceived++
		rt.Stats.BytesReceived += int64(len(buf))
	}
	rt.location = append(rt.location[:0], newOwner...)
	rt.idsValid = false // the local set changed; LocalIDs rebuilds lazily
	return moves, nil
}

// pupStatBytes serializes an int64 counter through its bit pattern,
// writing back only when unpacking (packing must not mutate).
func pupStatBytes(p *pup.PUPer, v *int64) {
	u := uint64(*v)
	p.Uint64(&u)
	if p.Mode() == pup.Unpacking {
		*v = int64(u)
	}
}

// PUPState serializes the runtime's mutable state through one traversal:
// the owner table, the migration counters, and every locally-hosted VP in
// ascending id order. It is the per-core checkpoint shard of the runtime —
// pack it on every core and the union reconstructs the world. Unpacking
// first retires the current local VPs into the shell freelist (the same
// recycling path Migrate uses, so a restore stays off the allocator once
// warm), then rebuilds the local set from the stream. The owner table is
// validated against the communicator and against each restored VP's id.
func (rt *Runtime) PUPState(p *pup.PUPer) {
	nvp := rt.nvp
	p.Int(&nvp)
	if p.Mode() == pup.Unpacking && nvp != rt.nvp {
		p.Fail(fmt.Errorf("ampi: checkpoint has %d VPs, runtime has %d", nvp, rt.nvp))
		return
	}
	pup.Slice(p, &rt.location, func(p *pup.PUPer, core *int) { p.Int(core) })
	p.Int(&rt.Stats.LBInvocations)
	p.Int(&rt.Stats.VPsSent)
	p.Int(&rt.Stats.VPsReceived)
	pupStatBytes(p, &rt.Stats.BytesSent)
	pupStatBytes(p, &rt.Stats.BytesReceived)

	if p.Mode() == pup.Unpacking {
		if len(rt.location) != rt.nvp {
			p.Fail(fmt.Errorf("ampi: checkpoint owner table has %d entries for %d VPs", len(rt.location), rt.nvp))
			return
		}
		for id, v := range rt.local {
			delete(rt.local, id)
			rt.free = append(rt.free, v)
		}
	}
	n := len(rt.local)
	p.Int(&n)
	if p.Mode() == pup.Unpacking {
		me := rt.c.Rank()
		for i := 0; i < n; i++ {
			var v VP
			if k := len(rt.free); k > 0 {
				v = rt.free[k-1]
				rt.free[k-1] = nil
				rt.free = rt.free[:k-1]
			} else {
				v = rt.factory()
			}
			v.PUP(p)
			if p.Err() != nil {
				return
			}
			id := v.VPID()
			if id < 0 || id >= rt.nvp || rt.location[id] != me {
				p.Fail(fmt.Errorf("ampi: checkpoint VP %d does not belong on core %d", id, me))
				return
			}
			rt.local[id] = v
		}
		rt.idsValid = false
	} else {
		for _, id := range rt.LocalIDs() {
			rt.local[id].PUP(p)
			if p.Err() != nil {
				return
			}
		}
	}
}

// LoadBalance is the collective rebalancing step (the analogue of AMPI's
// MPI_Migrate): MeasureLoads, run the strategy, Migrate. The driver engine
// calls the three pieces separately (the Balancer layer sits between
// measurement and migration); this wrapper serves callers that want the
// classic one-shot semantics. It returns the number of VPs that moved
// globally.
func (rt *Runtime) LoadBalance(s Strategy) (int, error) {
	global := rt.MeasureLoads()
	newOwner := s.Plan(global, rt.location, rt.c.Size())
	if len(newOwner) != rt.nvp {
		return 0, fmt.Errorf("ampi: strategy %s returned %d owners for %d VPs", s.Name(), len(newOwner), rt.nvp)
	}
	return rt.Migrate(newOwner)
}

// BlockPlacement returns an initial VP placement that keeps each core's
// subdomains compact: VPs laid out on a vx×vy grid are assigned to cores on
// a px×py grid by spatial blocks, matching the paper's assumption that "the
// initial assignment of VPs to cores is such that the corresponding
// underlying subdomains of cores are compact" (§V-B). vx must be a multiple
// of px and vy of py.
func BlockPlacement(vx, vy, px, py int) (func(vp int) int, error) {
	if vx%px != 0 || vy%py != 0 {
		return nil, fmt.Errorf("ampi: VP grid %dx%d not divisible by core grid %dx%d", vx, vy, px, py)
	}
	bx, by := vx/px, vy/py
	return func(vp int) int {
		gx, gy := vp%vx, vp/vx
		return (gy/by)*px + gx/bx
	}, nil
}
