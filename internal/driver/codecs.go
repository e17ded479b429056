package driver

// Wire codecs for every payload the drivers route through internal/comm, so
// all four engines run unchanged over the socket transport. The traversals
// only write back when unpacking: packing a payload must not mutate it,
// because a chaos-delayed wire Ship serializes while the sending rank may
// still be reading the value it sent.

import (
	"sync"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/pup"
	"github.com/parres/picprk/internal/telemetry"
)

// Driver payload kinds (range 50–69, see pup.Kind). 51 (the rows parcel),
// 53, 54 and 57 (the timeline, stats and exchange-matrix gathers the
// end-of-run report replaced) and 56 (the resume handshake the shard
// scatter replaced) are retired and stay unused.
const (
	kindRectParcel pup.Kind = 50
	kindVPParcels  pup.Kind = 52
	kindRankShard  pup.Kind = 55
	kindRankReport pup.Kind = 58
)

func pupInt64(p *pup.PUPer, v *int64) {
	u := uint64(*v)
	p.Uint64(&u)
	if p.Mode() == pup.Unpacking {
		*v = int64(u)
	}
}

func pupRectParcel(p *pup.PUPer, r *rectParcel) {
	p.Int(&r.X0)
	p.Int(&r.Y0)
	p.Int(&r.W)
	p.Int(&r.H)
	p.Float64s(&r.Data)
}

// decodedShards is the free list the parcel decoder draws its shards from.
// A shard decoded off a socket belongs to the receiving rank alone: the wire
// reader goroutine takes it here, core.PUPColumns overwrites it in full, and
// stepper.finish hands it back once deliver has copied it into a cell — so a
// steady exchange decodes into the same few buffers instead of allocating
// (and zero-filling) a payload-sized shard per message. Only a wire transport
// may return shards: in-process the received pointer is the sender's
// double-buffered shard (colShards) and must never enter the list.
//
// A mutex list rather than a sync.Pool: get and put run on different
// goroutines (reader, rank), where a Pool's per-P private slot misses at
// random, it is emptied by every GC, and under -race it drops a quarter of
// the puts — all of which the whole-run allocation gate would see.
var decodedShards shardList

// maxFreeShards caps the list's length. A peer can run one step ahead, so
// the list settles at about two steps' worth of received parcels — 2 for a
// block rank, tens for a process hosting several over-decomposed ranks;
// beyond the cap a returned shard goes to the garbage collector.
const maxFreeShards = 128

type shardList struct {
	mu   sync.Mutex
	free []*core.SoA
}

func (l *shardList) get() *core.SoA {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(core.SoA)
	}
	c := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return c
}

func (l *shardList) put(c *core.SoA) {
	l.mu.Lock()
	if len(l.free) < maxFreeShards {
		l.free = append(l.free, c)
	}
	l.mu.Unlock()
}

func pupParcel(p *pup.PUPer, e *parcel) {
	p.Int(&e.Owner)
	present := e.Cols != nil
	p.Bool(&present)
	if p.Mode() == pup.Unpacking {
		if present {
			e.Cols = decodedShards.get()
		} else {
			e.Cols = nil
		}
	}
	if present {
		core.PUPColumns(p, e.Cols)
	}
}

// parcelWireBytes is the least a parcel occupies on the wire: its owner and
// its presence flag.
const parcelWireBytes = 8 + 1

// pupParcels is the kindVPParcels codec: the per-destination parcel list
// that carries every particle crossing a socket, on both substrates.
func pupParcels(p *pup.PUPer, v *[]parcel) { pup.Slice(p, v, parcelWireBytes, pupParcel) }

func pupSample(p *pup.PUPer, s *telemetry.Sample) {
	p.Int(&s.Step)
	p.Int(&s.Rank)
	for i := range s.Counters {
		pupInt64(p, &s.Counters[i])
	}
	p.String(&s.Decision)
	pupInt64(p, &s.WallStartNS)
	pupInt64(p, &s.ClockOffsetNS)
}

// sampleWireBytes is the least a sample occupies on the wire: eight bytes
// for each of step, rank, counter-table row, decision length and the two
// clock stamps.
const sampleWireBytes = 8 * (2 + int(telemetry.NumCounters) + 3)

// pupRankReport is the kindRankReport codec. Every slice is sized against
// its element's least wire width, so a corrupt count cannot make the
// decoder allocate more than about the input's length.
func pupRankReport(p *pup.PUPer, r *rankReport) {
	for i := range r.Counters {
		pupInt64(p, &r.Counters[i])
	}
	p.Int(&r.MaxParticles)
	p.Int(&r.Count)
	p.Uint64(&r.IDSum)
	pup.Slice(p, &r.Samples, sampleWireBytes, pupSample)
	pup.Slice(p, &r.PeerBytes, 8, pupInt64)
	pup.Slice(p, &r.PeerMsgs, 8, pupInt64)
	core.PUPColumns(p, &r.State)
}

func pupRankShard(p *pup.PUPer, s *rankShard) {
	p.Int(&s.Rank)
	p.Int(&s.Step)
	p.Uint64(&s.NextID)
	p.Int(&s.MaxParticles)
	pup.Slice(p, &s.Bal, 8, func(p *pup.PUPer, line *string) { p.String(line) })
	p.ByteSlice(&s.Sub)
	pup.Slice(p, &s.Samples, sampleWireBytes, pupSample)
}

func init() {
	pup.RegisterPtrCodec[rectParcel](kindRectParcel, pupRectParcel)
	pup.RegisterPtrCodec[[]parcel](kindVPParcels, pupParcels)
	pup.RegisterCodec[rankShard](kindRankShard, pupRankShard)
	pup.RegisterCodec[rankReport](kindRankReport, pupRankReport)
}
