package driver

// Wire codecs for every payload the drivers route through internal/comm, so
// all four engines run unchanged over the socket transport. The traversals
// only write back when unpacking: packing a payload must not mutate it,
// because a chaos-delayed wire Ship serializes while the sending rank may
// still be reading the value it sent.

import (
	"sync"
	"time"

	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/pup"
	"github.com/parres/picprk/internal/telemetry"
)

// Driver payload kinds (range 50–69, see pup.Kind).
const (
	kindColsParcel pup.Kind = 50
	kindRowsParcel pup.Kind = 51
	kindVPParcels  pup.Kind = 52
	kindTimeline   pup.Kind = 53
	kindRankStats  pup.Kind = 54
	kindRankShard  pup.Kind = 55
	kindResumeInfo pup.Kind = 56
	kindPeerXchg   pup.Kind = 57
)

func pupDuration(p *pup.PUPer, d *time.Duration) {
	u := uint64(*d)
	p.Uint64(&u)
	if p.Mode() == pup.Unpacking {
		*d = time.Duration(u)
	}
}

func pupInt64(p *pup.PUPer, v *int64) {
	u := uint64(*v)
	p.Uint64(&u)
	if p.Mode() == pup.Unpacking {
		*v = int64(u)
	}
}

func pupColsParcel(p *pup.PUPer, c *colsParcel) {
	p.Int(&c.X0)
	p.Int(&c.W)
	p.Float64s(&c.Cols)
}

func pupRowsParcel(p *pup.PUPer, r *rowsParcel) {
	p.Int(&r.Y0)
	p.Int(&r.H)
	p.Float64s(&r.Rows)
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
	free []*core.Columns
}

func (l *shardList) get() *core.Columns {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(core.Columns)
	}
	c := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return c
}

func (l *shardList) put(c *core.Columns) {
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

// pupParcels is the kindVPParcels codec: the per-destination parcel list
// that carries every particle crossing a socket, on both substrates.
func pupParcels(p *pup.PUPer, v *[]parcel) { pup.Slice(p, v, pupParcel) }

func pupSample(p *pup.PUPer, s *telemetry.Sample) {
	p.Int(&s.Step)
	p.Int(&s.Rank)
	for i := range s.Phases {
		pupDuration(p, &s.Phases[i])
	}
	p.Int(&s.Particles)
	p.Int(&s.Migrations)
	pupInt64(p, &s.Bytes)
	pupInt64(p, &s.ExchangeBytes)
	pupDuration(p, &s.ExchangeOverlap)
	p.Int(&s.MsgsSent)
	p.Int(&s.MsgsElided)
	p.String(&s.Decision)
	pupInt64(p, &s.WallStartNS)
	pupInt64(p, &s.ClockOffsetNS)
}

func pupPeerXchg(p *pup.PUPer, x *telemetry.PeerXchg) {
	p.Int(&x.Rank)
	pup.Slice(p, &x.Bytes, pupInt64)
	pup.Slice(p, &x.Msgs, pupInt64)
}

func pupRankTimeline(p *pup.PUPer, t *rankTimeline) {
	pup.Slice(p, &t.Samples, pupSample)
	p.Int(&t.Dropped)
}

func pupRankStats(p *pup.PUPer, s *RankStats) {
	p.Int(&s.Rank)
	pupDuration(p, &s.Compute)
	pupDuration(p, &s.Exchange)
	pupDuration(p, &s.Balance)
	pupDuration(p, &s.Migrate)
	pupDuration(p, &s.Overlap)
	p.Int(&s.FinalParticles)
	p.Int(&s.MaxParticles)
	p.Int(&s.Migrations)
	pupInt64(p, &s.BytesMigrated)
	pupInt64(p, &s.BytesExchanged)
	pupInt64(p, &s.MsgsSent)
	pupInt64(p, &s.MsgsElided)
}

func pupRankShard(p *pup.PUPer, s *rankShard) {
	p.Int(&s.Rank)
	p.Int(&s.Step)
	p.Uint64(&s.NextID)
	p.Int(&s.MaxParticles)
	pup.Slice(p, &s.Bal, func(p *pup.PUPer, line *string) { p.String(line) })
	p.ByteSlice(&s.Sub)
}

func pupResumeInfo(p *pup.PUPer, r *resumeInfo) {
	p.Bool(&r.Resume)
	p.Int(&r.Step)
}

func init() {
	pup.RegisterPtrCodec[colsParcel](kindColsParcel, pupColsParcel)
	pup.RegisterPtrCodec[rowsParcel](kindRowsParcel, pupRowsParcel)
	pup.RegisterPtrCodec[[]parcel](kindVPParcels, pupParcels)
	pup.RegisterCodec[rankTimeline](kindTimeline, pupRankTimeline)
	pup.RegisterCodec[RankStats](kindRankStats, pupRankStats)
	pup.RegisterCodec[rankShard](kindRankShard, pupRankShard)
	pup.RegisterCodec[resumeInfo](kindResumeInfo, pupResumeInfo)
	pup.RegisterCodec[telemetry.PeerXchg](kindPeerXchg, pupPeerXchg)
}
