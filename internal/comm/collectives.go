package comm

import (
	"fmt"
	"sort"
)

// Internal tag space. User tags must be non-negative; collectives use
// negative tags so they can interleave with application point-to-point
// traffic. Consecutive collectives of the same kind are safe because every
// algorithm below has a fixed communication schedule, and message order is
// FIFO per (source, tag) pair — except Gather, which receives from wildcard
// sources and therefore carries a per-call sequence number in its tag.
const (
	tagBarrier     = -1
	tagBcast       = -2
	tagReduce      = -3
	tagGatherBase  = -3000000
	tagScatterBase = -4000000
)

// Barrier blocks until every rank of the communicator has entered it.
// It uses the dissemination algorithm: ⌈log₂P⌉ rounds of token exchange.
func (c *Comm) Barrier() {
	p := c.Size()
	for dist := 1; dist < p; dist *= 2 {
		to := (c.rank + dist) % p
		from := (c.rank - dist + p) % p
		c.Send(to, tagBarrier, nil)
		c.Recv(from, tagBarrier)
	}
}

// Bcast distributes root's value to every rank along a binomial tree and
// returns it. Non-root callers pass the zero value.
func Bcast[T any](c *Comm, root int, v T) T {
	p := c.Size()
	// Work in a rotated rank space where the root is 0. In round k
	// (mask = 1<<k), every rank below mask that already holds the value
	// sends it to rank+mask.
	vr := (c.rank - root + p) % p
	received := vr == 0
	for mask := 1; mask < p; mask <<= 1 {
		if vr < mask {
			peer := vr + mask
			if peer < p {
				if !received {
					panic("comm: bcast internal error")
				}
				c.Send((peer+root)%p, tagBcast, v)
			}
		} else if vr < mask*2 {
			if !received {
				data, _ := c.Recv((vr-mask+root)%p, tagBcast)
				v = cast[T](data, "Bcast")
				received = true
			}
		}
	}
	return v
}

// Reduce combines each rank's slice elementwise with op and delivers the
// result to root (other ranks get nil). All ranks must pass slices of the
// same length. The reduction order is fixed by the binomial tree, so the
// result is deterministic for a given P (bitwise, though not associative
// across different P — same as MPI).
func Reduce[T any](c *Comm, root int, v []T, op func(a, b T) T) []T {
	p := c.Size()
	vr := (c.rank - root + p) % p
	acc := append([]T(nil), v...) // own copy; received slices are owned already
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			c.Send(((vr-mask)+root)%p, tagReduce, acc)
			return nil
		}
		peer := vr + mask
		if peer < p {
			data, _ := c.Recv((peer+root)%p, tagReduce)
			other := cast[[]T](data, "Reduce")
			if len(other) != len(acc) {
				panic(fmt.Sprintf("comm: reduce length mismatch %d vs %d", len(other), len(acc)))
			}
			for i := range acc {
				acc[i] = op(acc[i], other[i])
			}
		}
	}
	return acc
}

// Allreduce combines each rank's slice elementwise with op and returns the
// result on every rank (reduce to rank 0, then broadcast).
func Allreduce[T any](c *Comm, v []T, op func(a, b T) T) []T {
	res := Reduce(c, 0, v, op)
	return Bcast(c, 0, res)
}

// AllreduceScalar is Allreduce for a single value.
func AllreduceScalar[T any](c *Comm, v T, op func(a, b T) T) T {
	return Allreduce(c, []T{v}, op)[0]
}

// Number covers the numeric types used in reductions.
type Number interface {
	~int | ~int32 | ~int64 | ~uint64 | ~float64
}

// Sum is a reduction operator.
func Sum[T Number](a, b T) T { return a + b }

// Max is a reduction operator.
func Max[T Number](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Min is a reduction operator.
func Min[T Number](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// Gather collects one value from every rank at root, indexed by rank.
// Non-root callers receive nil. Linear algorithm: fine for the gather sizes
// the drivers use (per-rank scalars or small structs). The root receives
// from a wildcard source, so the tag carries a per-call sequence number to
// keep consecutive gathers separate when ranks race ahead.
// Scatter is the inverse of Gather: root distributes vs[i] to rank i and
// every rank returns its own element. Non-root callers pass nil. Like
// Gather it is linear from the root — it moves bulk state (checkpoint
// shards), not latency-critical traffic — and carries a per-call sequence
// number in its tag so back-to-back scatters cannot interleave.
func Scatter[T any](c *Comm, root int, vs []T) T {
	c.scatterSeq++
	tag := tagScatterBase - int(c.scatterSeq%1000000)
	if c.rank == root {
		if len(vs) != c.Size() {
			panic(fmt.Sprintf("comm: Scatter root has %d values for %d ranks", len(vs), c.Size()))
		}
		for i, v := range vs {
			if i != root {
				c.Send(i, tag, v)
			}
		}
		return vs[root]
	}
	data, _ := c.Recv(root, tag)
	return cast[T](data, "Scatter")
}

func Gather[T any](c *Comm, root int, v T) []T {
	c.gatherSeq++
	tag := tagGatherBase - int(c.gatherSeq%1000000)
	if c.rank != root {
		c.Send(root, tag, v)
		return nil
	}
	out := make([]T, c.Size())
	out[root] = v
	for i := 0; i < c.Size()-1; i++ {
		data, src := c.Recv(AnySource, tag)
		out[src] = cast[T](data, "Gather")
	}
	return out
}

// Allgather collects one value from every rank on every rank.
func Allgather[T any](c *Comm, v T) []T {
	return Bcast(c, 0, Gather(c, 0, v))
}

// Split partitions the communicator: ranks passing the same color form a new
// communicator, ordered by key (ties broken by parent rank). Every rank must
// call Split; a negative color yields a nil communicator (like
// MPI_COMM_NULL with MPI_UNDEFINED).
func (c *Comm) Split(color, key int) *Comm {
	all := Allgather(c, splitKey{color, key, c.rank})
	c.splits++
	if color < 0 {
		return nil
	}
	var members []splitKey
	for _, e := range all {
		if e.Color == color {
			members = append(members, e)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].Key != members[j].Key {
			return members[i].Key < members[j].Key
		}
		return members[i].Rank < members[j].Rank
	})
	group := make([]int, len(members))
	newRank := -1
	for i, m := range members {
		group[i] = c.group[m.Rank]
		if m.Rank == c.rank {
			newRank = i
		}
	}
	// All members derive the same context id from shared values.
	ctx := mix(c.ctx, c.splits, uint64(color)+1)
	return &Comm{world: c.world, rank: newRank, group: group, ctx: ctx, chaos: c.chaos}
}

func mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
	}
	if h == 0 {
		h = 1 // ctx 0 is reserved for the world communicator
	}
	return h
}

func cast[T any](data any, where string) T {
	v, ok := data.(T)
	if !ok {
		panic(fmt.Sprintf("comm: %s: payload type %T does not match expected %T", where, data, v))
	}
	return v
}
