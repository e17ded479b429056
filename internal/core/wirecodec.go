package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/parres/picprk/internal/pup"
)

// KindColumnsPtr is the wire codec kind for *SoA exchange shards.
const KindColumnsPtr pup.Kind = 40

// PUPColumns is the one byte traversal of a particle container, producing
// exactly the framed layout the exchange-byte accounting documents
// (DESIGN.md §5 and the constants above): six uint64 section lengths (48
// bytes of framing), the five hot float64 columns, then one 40-byte metadata
// record per particle — ColumnsFrameBytes + n·ColumnsBytesPerParticle in
// total, so SoA.FramedBytes is the encoder's true output size by construction
// (pinned by TestColumnsWireGolden). The *SoA codec, the exchange parcels, a
// block rank's checkpoint and a migrating VP all go through it.
func PUPColumns(p *pup.PUPer, c *SoA) {
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
		// A recycled shard (see driver's decodedShards) or VP shell keeps
		// its columns: every element is overwritten below, so capacity that
		// suffices is reused as is, with no zero-fill. One that falls short
		// grows by append's rule rather than to fit (SoA.Resize): an
		// exchange's shard sizes wander by a fraction of a percent from step
		// to step, and fitting exactly would reallocate on every new maximum.
		c.Reset()
		c.Resize(int(n))
	}
	p.Float64Column(c.X)
	p.Float64Column(c.Y)
	p.Float64Column(c.VX)
	p.Float64Column(c.VY)
	p.Float64Column(c.Q)
	pupMetaColumn(p, c.Meta)
}

// soaMetaBytes is the encoded size of one metadata record: 8 ID + 2×8
// origin + 4×4 trajectory ints.
const soaMetaBytes = 40

// pupMetaColumn serializes m's records back to back — the only place the
// record's field order and widths are spelled (pinned by
// TestColumnsWireGolden and TestBulkCodecsMatchPerElementReference). Like
// pup.Float64Column it writes no length: the caller fixed len(m). SoAMeta's
// memory is the record (same field order, no padding: TestSoAMetaLayout),
// so a little-endian host ships the column as is (pup.Column); the loops
// below are the portable path.
func pupMetaColumn(p *pup.PUPer, m []SoAMeta) {
	if pup.Column(p, m) {
		return
	}
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
	pup.RegisterPtrCodec[SoA](KindColumnsPtr, PUPColumns)
}
