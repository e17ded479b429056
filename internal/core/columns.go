package core

// This file is the columnar side of the exchange hot path: leaver particles
// travel between ranks as SoA shards — the container's own six dense slices —
// instead of being materialized one AoS particle at a time.
// Classification happens inside the move loops (hotpath.go) via an
// OwnerTable lookup, the per-chunk results accumulate in a Leavers list, and
// ScatterRemove splits the SoA into per-destination shards with bulk range
// copies. None of it touches the allocator in steady state: every buffer is
// caller-owned and reused across steps.

// Columns is the exchange shard's former name. It exists only because
// bench/micro.go still spells it, and goes with the benchmark change that
// retires the names only bench/ keeps alive.
type Columns = SoA

// AppendFrom appends particle i of src. Its only caller is bench/micro.go,
// which builds a wire payload with it; the exchange fills shards through
// ScatterRemove's extend-then-range-copy instead.
func (s *SoA) AppendFrom(src *SoA, i int) {
	s.X = append(s.X, src.X[i])
	s.Y = append(s.Y, src.Y[i])
	s.VX = append(s.VX, src.VX[i])
	s.VY = append(s.VY, src.VY[i])
	s.Q = append(s.Q, src.Q[i])
	s.Meta = append(s.Meta, src.Meta[i])
}

// extend lengthens every column by n slots, whose contents the caller
// overwrites, and returns the old length. A column whose capacity falls
// short is reallocated once (extended): asked for more than append would
// have grown it to — a cold shard — it gets what is needed and no more,
// instead of climbing the growth chain to it one particle at a time; asked
// for less, it amortises as append always did.
func (s *SoA) extend(n int) int {
	at := s.Len()
	s.Resize(at + n)
	return at
}

// extended returns a with length n, its elements beyond len(a) unspecified.
// A reallocation sizes the new array by append's rule (double a small slice,
// add a quarter and a little to a large one) or to n, whichever is larger.
// The rule is spelled out rather than borrowed through
// append(a, make([]T, more)...): under the race detector the compiler does
// not fuse that pattern, and every growth would allocate twice.
func extended[T any](a []T, n int) []T {
	c := cap(a)
	if n <= c {
		return a[:n]
	}
	if c < 256 {
		c *= 2
	} else {
		c += (c + 3*256) / 4
	}
	b := make([]T, n, max(n, c))
	copy(b, a)
	return b
}

// Wire-size accounting for the columnar exchange. The in-process runtime
// transfers shards by reference, so these constants define the *framed*
// size an equivalent byte-oriented transport would ship: one uint64 length
// per column section (6 sections), then 5 float64 columns (8 bytes each per
// particle) plus the 40-byte metadata record. Telemetry reports exchange
// volume in these units so the numbers survive a transport change.
const (
	// ColumnsFrameBytes is the fixed per-shard framing overhead.
	ColumnsFrameBytes = 6 * 8
	// ColumnsBytesPerParticle is the per-particle wire size: 5 hot float64
	// fields plus the SoAMeta record (8 + 8 + 8 + 4×4 = 40 bytes).
	ColumnsBytesPerParticle = 5*8 + 40
)

// FramedBytes returns the container's wire size under the documented framing.
func (s *SoA) FramedBytes() int64 {
	return ColumnsFrameBytes + int64(s.Len())*ColumnsBytesPerParticle
}

// AppendColumns bulk-appends a received shard to the container.
func (s *SoA) AppendColumns(c *SoA) {
	s.X = append(s.X, c.X...)
	s.Y = append(s.Y, c.Y...)
	s.VX = append(s.VX, c.VX...)
	s.VY = append(s.VY, c.VY...)
	s.Q = append(s.Q, c.Q...)
	s.Meta = append(s.Meta, c.Meta...)
}

// OwnerTable is a dense per-cell owner lookup for a Cartesian-product
// decomposition: owner(cx, cy) = yOwner[cy]*px + xOwner[cx]. It replaces the
// per-particle binary search over the cut arrays on the classification path
// with two array reads. Rebuild it whenever the cuts change (the table is
// small — 2·L int32 — so a rebuild on the rare balancing step is cheap).
type OwnerTable struct {
	xOwner, yOwner []int32
	px             int32
}

// NewOwnerTable builds the table from the two cut arrays of a decomposition
// (block i of the x axis owns cells [xCuts[i], xCuts[i+1]), likewise y).
func NewOwnerTable(xCuts, yCuts []int) *OwnerTable {
	t := &OwnerTable{
		xOwner: make([]int32, xCuts[len(xCuts)-1]),
		yOwner: make([]int32, yCuts[len(yCuts)-1]),
		px:     int32(len(xCuts) - 1),
	}
	for b := 0; b+1 < len(xCuts); b++ {
		for c := xCuts[b]; c < xCuts[b+1]; c++ {
			t.xOwner[c] = int32(b)
		}
	}
	for b := 0; b+1 < len(yCuts); b++ {
		for c := yCuts[b]; c < yCuts[b+1]; c++ {
			t.yOwner[c] = int32(b)
		}
	}
	return t
}

// Owner returns the owner index of cell (cx, cy).
func (t *OwnerTable) Owner(cx, cy int) int32 {
	return t.yOwner[cy]*t.px + t.xOwner[cx]
}

// ColumnsOf reports, per cell column, whether its x-block pairs with an
// owner o with hosted[o] in any y-block; len(hosted) is the owner count.
// With no empty y-block that is whether a hosted owner owns a cell of the
// column. It reads the x axis, O(L + owners), not the L² cells.
func (t *OwnerTable) ColumnsOf(hosted []bool) []bool {
	block := make([]bool, t.px)
	for o, h := range hosted {
		if h {
			block[o%len(block)] = true
		}
	}
	want := make([]bool, len(t.xOwner))
	for cx, b := range t.xOwner {
		want[cx] = block[b]
	}
	return want
}

// hostsRows reports whether hosted[o] holds for every owner of the cells
// (cx, lo) … (cx, hi-1). The rows run through the y-blocks in order, so
// those are the blocks from the first row's to the last's.
func (t *OwnerTable) hostsRows(cx, lo, hi int, hosted []bool) bool {
	bx := t.xOwner[cx]
	for yb := t.yOwner[lo]; yb <= t.yOwner[hi-1]; yb++ {
		if !hosted[yb*t.px+bx] {
			return false
		}
	}
	return true
}

// Leavers records the particles that left their owner during a fused
// move+classify pass, as per-chunk (index, destination) lists: chunk w is
// filled only by worker w, so the parallel pass needs no synchronization,
// and chunks concatenate in index order because chunks are contiguous
// ascending ranges. Reset keeps the backing arrays, so a steady-state pass
// allocates nothing once the lists reached their high-water capacity.
type Leavers struct {
	n        int // active chunk count
	idx, dst [][]int32
	// at is ScatterRemove's per-destination scratch: leaver counts, then
	// write cursors into the shards.
	at []int
}

// Reset prepares the list for a pass with the given chunk count, keeping
// the capacity of every previously used chunk.
func (l *Leavers) Reset(chunks int) {
	if chunks > len(l.idx) {
		idx := make([][]int32, chunks)
		copy(idx, l.idx)
		l.idx = idx
		dst := make([][]int32, chunks)
		copy(dst, l.dst)
		l.dst = dst
	}
	l.n = chunks
	for w := 0; w < chunks; w++ {
		l.idx[w] = l.idx[w][:0]
		l.dst[w] = l.dst[w][:0]
	}
}

// Add records particle i leaving for destination dst, observed by chunk w.
func (l *Leavers) Add(w int, i, dst int32) {
	l.idx[w] = append(l.idx[w], i)
	l.dst[w] = append(l.dst[w], dst)
}

// cursors returns the per-destination scratch, zeroed, for p destinations.
func (l *Leavers) cursors(p int) []int {
	if cap(l.at) < p {
		l.at = make([]int, p)
	}
	l.at = l.at[:p]
	clear(l.at)
	return l.at
}

// ScatterRemove removes the recorded leavers from s — compacting the
// stayers in place with bulk range copies, preserving their order — and
// appends each leaver to out[dst], the per-destination shards, in ascending
// leaver index per destination. Leaver indices must ascend across the
// concatenated chunks (they do, by Leavers' construction) and each must be a
// valid index into s.
//
// Every leaver is placed once and every shard reserved once: the leavers are
// counted per destination from the lists, each destination's six columns are
// lengthened in one step (SoA.extend), and a run of consecutive indices
// bound for one destination then moves as six range copies.
func (s *SoA) ScatterRemove(lv *Leavers, out []SoA) {
	at := lv.cursors(len(out))
	for c := 0; c < lv.n; c++ {
		for _, d := range lv.dst[c] {
			at[d]++
		}
	}
	for d, n := range at {
		if n > 0 {
			at[d] = out[d].extend(n)
		}
	}
	w, read := 0, 0
	for c := 0; c < lv.n; c++ {
		ids, ds := lv.idx[c], lv.dst[c]
		for j := 0; j < len(ids); {
			i, d, n := int(ids[j]), ds[j], 1
			for j+n < len(ids) && ds[j+n] == d && int(ids[j+n]) == i+n {
				n++
			}
			o, a := &out[d], at[d]
			if n == 1 { // six stores beat six one-element memmove calls
				o.X[a], o.Y[a], o.VX[a], o.VY[a], o.Q[a], o.Meta[a] = s.X[i], s.Y[i], s.VX[i], s.VY[i], s.Q[i], s.Meta[i]
			} else {
				copy(o.X[a:a+n], s.X[i:])
				copy(o.Y[a:a+n], s.Y[i:])
				copy(o.VX[a:a+n], s.VX[i:])
				copy(o.VY[a:a+n], s.VY[i:])
				copy(o.Q[a:a+n], s.Q[i:])
				copy(o.Meta[a:a+n], s.Meta[i:])
			}
			at[d] = a + n
			w = s.moveDown(w, read, i)
			read = i + n
			j += n
		}
	}
	s.Truncate(s.moveDown(w, read, s.Len()))
}

// moveDown copies particles [lo, hi) onto slots starting at w ≤ lo and
// returns the slot after them (the compaction step of ScatterRemove).
func (s *SoA) moveDown(w, lo, hi int) int {
	n := hi - lo
	if n > 0 && w != lo {
		copy(s.X[w:w+n], s.X[lo:hi])
		copy(s.Y[w:w+n], s.Y[lo:hi])
		copy(s.VX[w:w+n], s.VX[lo:hi])
		copy(s.VY[w:w+n], s.VY[lo:hi])
		copy(s.Q[w:w+n], s.Q[lo:hi])
		copy(s.Meta[w:w+n], s.Meta[lo:hi])
	}
	return w + n
}
