package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/parres/picprk/internal/pup"
)

// KindColumnsPtr is the wire codec kind for *Columns exchange shards.
const KindColumnsPtr pup.Kind = 40

// PUPColumns is the wire traversal for a Columns shard, producing exactly
// the framed layout the exchange-byte accounting documents (DESIGN.md §5
// and the constants above): six uint64 section lengths (48 bytes of
// framing), the five hot float64 columns, then one 40-byte metadata record
// per particle — ColumnsFrameBytes + n·ColumnsBytesPerParticle in total,
// so Columns.FramedBytes is the encoder's true output size by construction
// (pinned by TestColumnsWireGolden). Shared by the *Columns codec and the
// VP parcel codec in internal/driver.
func PUPColumns(p *pup.PUPer, c *Columns) {
	lens := [6]uint64{
		uint64(len(c.X)), uint64(len(c.Y)), uint64(len(c.VX)),
		uint64(len(c.VY)), uint64(len(c.Q)), uint64(len(c.Meta)),
	}
	for i := range lens {
		p.Uint64(&lens[i])
	}
	if p.Mode() == pup.Unpacking {
		// Each section is checked on its own before the sum, which could
		// otherwise wrap past 2^64 and pass.
		rem, need := uint64(p.Remaining()), uint64(0)
		for i, width := range [6]uint64{8, 8, 8, 8, 8, soaMetaBytes} {
			if lens[i] > rem/width {
				p.Fail(fmt.Errorf("core: columns shard section %d claims %d elements, %d bytes remain", i, lens[i], rem))
				return
			}
			need += lens[i] * width
		}
		if need > rem {
			p.Fail(fmt.Errorf("core: columns shard claims %d bytes, %d remain", need, rem))
			return
		}
		n := lens[0]
		for _, l := range lens[1:] {
			if l != n {
				p.Fail(fmt.Errorf("core: ragged columns shard (%d/%d/%d/%d/%d/%d)",
					lens[0], lens[1], lens[2], lens[3], lens[4], lens[5]))
				return
			}
		}
		// A recycled shard (see driver's decodedShards) keeps its columns:
		// every element is overwritten below, so capacity that suffices is
		// reused as is, with no zero-fill. One that falls short grows by
		// append's rule rather than to fit (SoA.Resize's way): an exchange's
		// shard sizes wander by a fraction of a percent from step to step,
		// and fitting exactly would reallocate on every new maximum.
		c.X = extended(c.X[:0], int(n))
		c.Y = extended(c.Y[:0], int(n))
		c.VX = extended(c.VX[:0], int(n))
		c.VY = extended(c.VY[:0], int(n))
		c.Q = extended(c.Q[:0], int(n))
		c.Meta = extended(c.Meta[:0], int(n))
	}
	p.Float64Column(c.X)
	p.Float64Column(c.Y)
	p.Float64Column(c.VX)
	p.Float64Column(c.VY)
	p.Float64Column(c.Q)
	pupMetaColumn(p, c.Meta)
}

// PUPSoA serializes a whole SoA container — the block substrate's
// checkpoint payload and a migrating VP's particles. Each column is
// length-prefixed independently (the traversal reuses the container's
// existing capacity when unpacking, like every other PUP path), and a ragged
// container fails cleanly rather than producing a silently corrupt particle
// set.
func PUPSoA(p *pup.PUPer, s *SoA) {
	p.Float64s(&s.X)
	p.Float64s(&s.Y)
	p.Float64s(&s.VX)
	p.Float64s(&s.VY)
	p.Float64s(&s.Q)
	if !pup.SliceLen(p, &s.Meta, soaMetaBytes) {
		return
	}
	pupMetaColumn(p, s.Meta)
	if p.Err() == nil && p.Mode() == pup.Unpacking {
		n := len(s.X)
		if len(s.Y) != n || len(s.VX) != n || len(s.VY) != n || len(s.Q) != n || len(s.Meta) != n {
			p.Fail(fmt.Errorf("core: ragged SoA columns (%d/%d/%d/%d/%d/%d)",
				len(s.X), len(s.Y), len(s.VX), len(s.VY), len(s.Q), len(s.Meta)))
		}
	}
}

// soaMetaBytes is the encoded size of one metadata record: 8 ID + 2×8
// origin + 4×4 trajectory ints.
const soaMetaBytes = 40

// pupMetaColumn serializes m's records back to back through one window —
// the only place the record's field order and widths are spelled (pinned by
// TestColumnsWireGolden and TestBulkCodecsMatchPerElementReference). Like
// pup.Float64Column it writes no length: the caller fixed len(m).
func pupMetaColumn(p *pup.PUPer, m []SoAMeta) {
	b := p.Window(soaMetaBytes * len(m))
	if b == nil {
		return
	}
	le := binary.LittleEndian
	switch p.Mode() {
	case pup.Packing:
		for i := range m {
			e, r := &m[i], b[soaMetaBytes*i:soaMetaBytes*(i+1)]
			le.PutUint64(r[0:], e.ID)
			le.PutUint64(r[8:], math.Float64bits(e.X0))
			le.PutUint64(r[16:], math.Float64bits(e.Y0))
			le.PutUint32(r[24:], uint32(e.K))
			le.PutUint32(r[28:], uint32(e.M))
			le.PutUint32(r[32:], uint32(e.Dir))
			le.PutUint32(r[36:], uint32(e.Born))
		}
	case pup.Unpacking:
		for i := range m {
			e, r := &m[i], b[soaMetaBytes*i:soaMetaBytes*(i+1)]
			e.ID = le.Uint64(r[0:])
			e.X0 = math.Float64frombits(le.Uint64(r[8:]))
			e.Y0 = math.Float64frombits(le.Uint64(r[16:]))
			e.K = int32(le.Uint32(r[24:]))
			e.M = int32(le.Uint32(r[28:]))
			e.Dir = int32(le.Uint32(r[32:]))
			e.Born = int32(le.Uint32(r[36:]))
		}
	}
}

func init() {
	pup.RegisterPtrCodec[Columns](KindColumnsPtr, PUPColumns)
}
