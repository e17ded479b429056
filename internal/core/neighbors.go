package core

import "slices"

// NbrSet derives a rank's exchange neighborhood from the owner table: the
// set of peer groups (ranks, or VP-hosting cores) that own at least one
// cell within the displacement ring of a cell this group owns. Those are
// exactly the ranks comm.ExchangePtr needs to talk to, because the kernel's
// per-step displacement bound ((2K+1) cells in x, |M| in y, tile.go's
// preamble) is also a bound on how far a leaver's destination cell sits
// from the cell it left.
//
// The relation is symmetric: group A lists B iff some cell of A and some
// cell of B are within the (wrapped) ring of each other, which is the same
// predicate with A and B swapped, and the ring window [-r, r] is symmetric.
// Every rank therefore derives a mutually consistent schedule from its own
// replicated owner table with no agreement round — the property
// comm.SetExchangeNeighbors requires.
//
// It is the same derivation as the frontier, made in the same pass: the
// class pairs (tile.go's preamble) whose home block is local reach exactly
// the blocks some local cell's window touches, and their owners' groups
// are the peers.
//
// A NbrSet value is reusable: Rebuild keeps the backing storage, so a
// per-rebalance refresh allocates nothing once the buffers are warm.
type NbrSet struct {
	// front is the class-pair pass's state, kept for its storage.
	front  Frontier
	member []bool
	peers  []int
}

// Rebuild recomputes the neighbor set for one group over an L×L domain.
// self is the caller's group index, groups the total group count, and
// groupOf maps an owner-table owner index to its group (identity for the
// block substrate, where owners are ranks; the hosting core for the VP
// substrate, where owners are virtual processors). rx/ry are the
// displacement ring widths. The returned slice is sorted ascending,
// excludes self, and remains valid until the next Rebuild; callers must
// not mutate it.
func (s *NbrSet) Rebuild(ot *OwnerTable, L, rx, ry, self, groups int, groupOf func(owner int32) int) []int {
	if len(s.member) < groups {
		s.member = make([]bool, groups)
	}
	for _, g := range s.peers {
		s.member[g] = false
	}
	s.peers = s.peers[:0]
	s.front.rebuild(ot, L, rx, ry,
		func(o int32) bool { return groupOf(o) != self },
		func(o int32) {
			if g := groupOf(o); g != self && !s.member[g] {
				s.member[g] = true
				s.peers = append(s.peers, g)
			}
		})
	slices.Sort(s.peers) // comm.SetExchangeNeighbors requires ascending order
	return s.peers
}
