// Package model is a deterministic BSP performance model of the PIC PRK on
// a cluster. The repository's real drivers (internal/driver) execute on
// goroutine ranks and validate correctness at any P, but they cannot
// exhibit wall-clock scaling beyond the host's cores — and the paper's
// evaluation runs on 192–3,072 cores of NERSC's Edison (Cray XC30). The
// model reproduces those experiments' *shapes*: it executes the very same
// decomposition and load-balancing decision logic as the drivers
// (diffusion.BalanceStepGuarded, ampi.Strategy plans) against an
// analytically-evolved workload, and charges time for exactly the effects
// the paper discusses — per-particle compute, neighbor particle exchange,
// synchronization, LB decision collectives, migration volume, VP scheduling
// overhead, and the locality (intra-socket / intra-node / inter-node) of
// every message.
//
// The workload evolution is closed-form: the paper's skewed distribution
// shifts right at (2k+1) cells per step and is uniform in y, so per-column
// histograms fully describe it (§III-E1).
package model

import "math"

// Machine describes the modeled cluster. All times are seconds, bandwidths
// bytes/second.
type Machine struct {
	// CoresPerNode and CoresPerSocket define the locality hierarchy
	// (Edison: two 12-core sockets per node).
	CoresPerNode, CoresPerSocket int
	// TimePerParticle is the compute cost of one particle move.
	TimePerParticle float64
	// Message cost parameters by distance class.
	LatencyIntraSocket, LatencyIntraNode, LatencyInterNode float64
	BwIntraSocket, BwIntraNode, BwInterNode                float64
	// SyncPerRound is the per-round cost of the implicit step barrier /
	// exchange coordination; a step pays SyncPerRound·ceil(log2 P).
	SyncPerRound float64
	// VPOverheadPerStep is the scheduler cost per virtual processor per
	// step (user-level context switch + message dispatch in AMPI).
	VPOverheadPerStep float64
	// BytesPerParticle is the particle wire size (matches
	// core.ColumnsBytesPerParticle, the 80 B the exchange frames).
	BytesPerParticle float64
	// BytesPerCell is the migrated mesh data per cell.
	BytesPerCell float64
	// MigrationAggBwPerNode is the effective per-node throughput of a bulk
	// migration epoch. When a locality-agnostic balancer reshuffles most
	// VPs at once, the transfers behave like an all-to-all: they are limited
	// by the machine's global bandwidth (which grows with node count on a
	// dragonfly) and by the runtime's serialization overhead, not by a
	// single link. The paper's Figure 5 F-sweep (180 s at F=20 vs 43 s at
	// F=160 on 8 nodes) implies ≈450 ms per greedy epoch over ≈0.9 GB of
	// VP state, i.e. ≈250 MB/s of effective throughput per node — far below
	// link speed, reflecting PUP serialization and LB framework overhead.
	MigrationAggBwPerNode float64
	// MigrationIntraBwPerNode is the corresponding throughput for VP moves
	// that stay within a node: a PUP pack/unpack plus a memcpy, an order of
	// magnitude faster than cross-network migration.
	MigrationIntraBwPerNode float64
	// HaloBytes is the size of the per-step neighbor synchronization
	// message every rank (or VP) exchanges with each of its four spatial
	// neighbors — the counts/handshake traffic a neighbor exchange pays
	// even when no particles cross. For a compact decomposition these stay
	// intra-node; for a fragmented VP placement they become inter-node
	// latency, the §V-B effect.
	HaloBytes float64
}

// Edison returns machine parameters calibrated to the order of magnitude of
// the paper's platform (Cray XC30: 24-core nodes, Aries interconnect) and
// of this repository's measured kernel (tens of ns per particle move).
// Absolute times are not the point — shapes are — but these values put the
// model's outputs in the same range as the paper's figures.
func Edison() Machine {
	return Machine{
		CoresPerNode:            24,
		CoresPerSocket:          12,
		TimePerParticle:         50e-9,
		LatencyIntraSocket:      0.5e-6,
		LatencyIntraNode:        1.5e-6,
		LatencyInterNode:        8e-6,
		BwIntraSocket:           8e9,
		BwIntraNode:             5e9,
		BwInterNode:             1e9,
		SyncPerRound:            1.2e-6,
		VPOverheadPerStep:       2e-6,
		BytesPerParticle:        92,
		BytesPerCell:            8,
		MigrationAggBwPerNode:   250e6,
		MigrationIntraBwPerNode: 4e9,
		HaloBytes:               64,
	}
}

func (m Machine) nodes(p int) float64 {
	nodes := (p + m.CoresPerNode - 1) / m.CoresPerNode
	if nodes < 1 {
		nodes = 1
	}
	return float64(nodes)
}

// MigrationEpochTime returns the time a bulk migration epoch needs to move
// the given intra-node and inter-node payload volumes: each class is limited
// by its aggregate throughput, which scales with the number of nodes the
// run occupies.
func (m Machine) MigrationEpochTime(p int, intraBytes, interBytes float64) float64 {
	n := m.nodes(p)
	return intraBytes/(m.MigrationIntraBwPerNode*n) + interBytes/(m.MigrationAggBwPerNode*n)
}

// SameNode reports whether two cores share a node.
func (m Machine) SameNode(a, b int) bool { return a/m.CoresPerNode == b/m.CoresPerNode }

// FatNode returns a hypothetical modern fat-node machine: 128 cores per
// node and a faster network. Regenerating the figures against it shows how
// the paper's conclusions shift with the platform: with far fewer node
// boundaries, locality-agnostic VP migration is cheaper and the AMPI
// strong-scaling gap narrows — the PRK doing exactly what it was designed
// for, rating balancers against a machine.
func FatNode() Machine {
	m := Edison()
	m.CoresPerNode = 128
	m.CoresPerSocket = 64
	m.LatencyInterNode = 2e-6
	m.BwInterNode = 10e9
	m.MigrationAggBwPerNode = 2e9
	return m
}

// distanceClass classifies a core pair.
type distanceClass int

const (
	sameCore distanceClass = iota
	intraSocket
	intraNode
	interNode
)

func (m Machine) class(a, b int) distanceClass {
	switch {
	case a == b:
		return sameCore
	case a/m.CoresPerSocket == b/m.CoresPerSocket:
		return intraSocket
	case a/m.CoresPerNode == b/m.CoresPerNode:
		return intraNode
	default:
		return interNode
	}
}

// MsgCost returns the cost of moving `bytes` between two cores as one
// message. Same-core transfers are free (a memcpy the compute term already
// covers).
func (m Machine) MsgCost(a, b int, bytes float64) float64 {
	switch m.class(a, b) {
	case sameCore:
		return 0
	case intraSocket:
		return m.LatencyIntraSocket + bytes/m.BwIntraSocket
	case intraNode:
		return m.LatencyIntraNode + bytes/m.BwIntraNode
	default:
		return m.LatencyInterNode + bytes/m.BwInterNode
	}
}

// SyncCost returns the per-step synchronization overhead for P ranks.
func (m Machine) SyncCost(p int) float64 {
	if p <= 1 {
		return 0
	}
	return m.SyncPerRound * math.Ceil(math.Log2(float64(p)))
}

// AllreduceCost models a tree allreduce of the given payload among P ranks:
// 2·ceil(log2 P) rounds, each paying the worst-case (inter-node) message
// cost for the payload.
func (m Machine) AllreduceCost(p int, bytes float64) float64 {
	if p <= 1 {
		return 0
	}
	rounds := 2 * math.Ceil(math.Log2(float64(p)))
	return rounds * (m.LatencyInterNode + bytes/m.BwInterNode)
}
