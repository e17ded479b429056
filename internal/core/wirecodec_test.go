package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/parres/picprk/internal/pup"
)

// TestColumnsWireGolden pins the documented exchange wire layout byte for
// byte: 48 bytes of framing (six little-endian uint64 section lengths)
// followed by 80 bytes per particle — the five hot float64 columns, then
// the 40-byte metadata record. This is the format DESIGN.md documents and
// Columns.FramedBytes accounts; if it drifts, fix the encoder, not the test.
func TestColumnsWireGolden(t *testing.T) {
	c := &Columns{
		X: []float64{1.5}, Y: []float64{-2.25},
		VX: []float64{3.0}, VY: []float64{-0.5},
		Q:    []float64{7.75},
		Meta: []SoAMeta{{ID: 0x0102030405060708, X0: 0.25, Y0: -8.5, K: 2, M: -3, Dir: 1, Born: 4}},
	}
	sz := pup.NewSizer()
	PUPColumns(sz, c)
	pk := pup.NewPacker(sz.Size())
	PUPColumns(pk, c)
	if pk.Err() != nil {
		t.Fatal(pk.Err())
	}
	got := pk.Bytes()

	if int64(len(got)) != c.FramedBytes() {
		t.Fatalf("encoded %d bytes, FramedBytes says %d", len(got), c.FramedBytes())
	}
	if len(got) != ColumnsFrameBytes+1*ColumnsBytesPerParticle {
		t.Fatalf("encoded %d bytes, want %d frame + %d per particle",
			len(got), ColumnsFrameBytes, ColumnsBytesPerParticle)
	}

	var want bytes.Buffer
	le := binary.LittleEndian
	u64 := func(v uint64) { _ = binary.Write(&want, le, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	i32 := func(v int32) { _ = binary.Write(&want, le, v) }
	for i := 0; i < 6; i++ { // six section lengths
		u64(1)
	}
	f64(1.5)
	f64(-2.25)
	f64(3.0)
	f64(-0.5)
	f64(7.75)
	u64(0x0102030405060708)
	f64(0.25)
	f64(-8.5)
	i32(2)
	i32(-3)
	i32(1)
	i32(4)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("columns encoding drifted:\n got % x\nwant % x", got, want.Bytes())
	}

	// Round trip through the registered *Columns codec, including typed nil.
	body, kind, err := pup.EncodePayload(nil, c)
	if err != nil || kind != KindColumnsPtr {
		t.Fatalf("encode payload: kind=%d err=%v", kind, err)
	}
	back, err := pup.DecodePayload(kind, body)
	if err != nil {
		t.Fatal(err)
	}
	bc := back.(*Columns)
	if bc.Len() != 1 || bc.X[0] != 1.5 || bc.Meta[0] != c.Meta[0] {
		t.Fatalf("columns did not round-trip: %+v", bc)
	}
	nilBody, kind, err := pup.EncodePayload(nil, (*Columns)(nil))
	if err != nil {
		t.Fatal(err)
	}
	back, err = pup.DecodePayload(kind, nilBody)
	if err != nil {
		t.Fatal(err)
	}
	if pc, ok := back.(*Columns); !ok || pc != nil {
		t.Fatalf("nil shard did not round-trip: %#v", back)
	}
}

func TestColumnsWireRejectsOversizedLengths(t *testing.T) {
	// A frame claiming huge sections must fail before allocating.
	var hdr bytes.Buffer
	for i := 0; i < 6; i++ {
		_ = binary.Write(&hdr, binary.LittleEndian, uint64(1<<40))
	}
	u := pup.NewUnpacker(hdr.Bytes())
	var c Columns
	PUPColumns(u, &c)
	if u.Err() == nil {
		t.Fatal("oversized section lengths were accepted")
	}
}

// The per-element reference: the traversals as they were written before the
// bulk column paths, one p.Uint64/Float64/Int32 call per field. The bulk
// paths must produce these bytes and decode them to these bit patterns.

func refPUPMeta(p *pup.PUPer, m *SoAMeta) {
	p.Uint64(&m.ID)
	p.Float64(&m.X0)
	p.Float64(&m.Y0)
	p.Int32(&m.K)
	p.Int32(&m.M)
	p.Int32(&m.Dir)
	p.Int32(&m.Born)
}

func refPUPColumns(p *pup.PUPer, c *Columns) {
	lens := [6]uint64{
		uint64(len(c.X)), uint64(len(c.Y)), uint64(len(c.VX)),
		uint64(len(c.VY)), uint64(len(c.Q)), uint64(len(c.Meta)),
	}
	for i := range lens {
		p.Uint64(&lens[i])
	}
	cols := [5]*[]float64{&c.X, &c.Y, &c.VX, &c.VY, &c.Q}
	if p.Mode() == pup.Unpacking {
		for i, col := range cols {
			*col = make([]float64, lens[i])
		}
		c.Meta = make([]SoAMeta, lens[5])
	}
	for _, col := range cols {
		for i := range *col {
			p.Float64(&(*col)[i])
		}
	}
	for i := range c.Meta {
		refPUPMeta(p, &c.Meta[i])
	}
}

func refPUPSoA(p *pup.PUPer, s *SoA) {
	for _, col := range [5]*[]float64{&s.X, &s.Y, &s.VX, &s.VY, &s.Q} {
		n := len(*col)
		p.Int(&n)
		if p.Mode() == pup.Unpacking {
			*col = make([]float64, n)
		}
		for i := range *col {
			p.Float64(&(*col)[i])
		}
	}
	n := len(s.Meta)
	p.Int(&n)
	if p.Mode() == pup.Unpacking {
		s.Meta = make([]SoAMeta, n)
	}
	for i := range s.Meta {
		refPUPMeta(p, &s.Meta[i])
	}
}

func packWith[T any](t *testing.T, fn func(*pup.PUPer, *T), v *T) []byte {
	t.Helper()
	sz := pup.NewSizer()
	fn(sz, v)
	pk := pup.NewPacker(sz.Size())
	fn(pk, v)
	if sz.Err() != nil || pk.Err() != nil {
		t.Fatalf("pack: %v / %v", sz.Err(), pk.Err())
	}
	return pk.Bytes()
}

func unpackWith[T any](t *testing.T, fn func(*pup.PUPer, *T), buf []byte) *T {
	t.Helper()
	v := new(T)
	u := pup.NewUnpacker(buf)
	fn(u, v)
	if u.Err() != nil || !u.Done() {
		t.Fatalf("unpack: err %v, done %v", u.Err(), u.Done())
	}
	return v
}

// edgeFloats are the bit patterns a value-level comparison would miss: both
// zeros, quiet and signalling NaNs with payloads, infinities, subnormals.
var edgeFloats = []uint64{
	0, 1 << 63, 0x7ff8000000000001, 0xfff8dead0000beef, 0x7ff0000000000001,
	0x7ff0000000000000, 0xfff0000000000000, 1, 0x000fffffffffffff, 0x7fefffffffffffff,
}

func randomShard(rng *rand.Rand, n int) *Columns {
	f := func() float64 {
		if rng.Intn(3) == 0 {
			return math.Float64frombits(edgeFloats[rng.Intn(len(edgeFloats))])
		}
		return math.Float64frombits(rng.Uint64())
	}
	i32 := func() int32 {
		return [...]int32{0, -1, math.MinInt32, math.MaxInt32, int32(rng.Uint32())}[rng.Intn(5)]
	}
	c := &Columns{
		X: make([]float64, n), Y: make([]float64, n), VX: make([]float64, n),
		VY: make([]float64, n), Q: make([]float64, n), Meta: make([]SoAMeta, n),
	}
	for i := 0; i < n; i++ {
		c.X[i], c.Y[i], c.VX[i], c.VY[i], c.Q[i] = f(), f(), f(), f(), f()
		id := rng.Uint64()
		if rng.Intn(4) == 0 {
			id = math.MaxUint64
		}
		c.Meta[i] = SoAMeta{ID: id, X0: f(), Y0: f(), K: i32(), M: i32(), Dir: i32(), Born: i32()}
	}
	return c
}

// sameBits compares two particle sets by bit pattern (NaN payloads and the
// sign of zero included), which == on float64 cannot.
func sameBits(a, b *Columns) bool {
	cols := func(c *Columns) [5][]float64 { return [5][]float64{c.X, c.Y, c.VX, c.VY, c.Q} }
	ac, bc := cols(a), cols(b)
	for k := range ac {
		if len(ac[k]) != len(bc[k]) {
			return false
		}
		for i := range ac[k] {
			if math.Float64bits(ac[k][i]) != math.Float64bits(bc[k][i]) {
				return false
			}
		}
	}
	if len(a.Meta) != len(b.Meta) {
		return false
	}
	for i := range a.Meta {
		x, y := a.Meta[i], b.Meta[i]
		if x.ID != y.ID || x.K != y.K || x.M != y.M || x.Dir != y.Dir || x.Born != y.Born ||
			math.Float64bits(x.X0) != math.Float64bits(y.X0) || math.Float64bits(x.Y0) != math.Float64bits(y.Y0) {
			return false
		}
	}
	return true
}

// TestBulkCodecsMatchPerElementReference is what makes deleting the
// per-element walk safe: over random shards — empty, one particle, NaN
// payloads, −0.0, max-uint64 IDs, negative and extreme K/M/Dir — the bulk
// PUPColumns and PUPSoA produce exactly the reference's bytes, and each side
// decodes the other's bytes to the same bit patterns.
func TestBulkCodecsMatchPerElementReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 3, 17, 256, 1000} {
		for rep := 0; rep < 5; rep++ {
			c := randomShard(rng, n)
			bulk, ref := packWith(t, PUPColumns, c), packWith(t, refPUPColumns, c)
			if !bytes.Equal(bulk, ref) {
				t.Fatalf("n=%d: PUPColumns bytes differ from the per-element reference", n)
			}
			if !sameBits(unpackWith(t, PUPColumns, ref), c) || !sameBits(unpackWith(t, refPUPColumns, bulk), c) {
				t.Fatalf("n=%d: Columns round trip changed a bit pattern", n)
			}

			s := &SoA{X: c.X, Y: c.Y, VX: c.VX, VY: c.VY, Q: c.Q, Meta: c.Meta}
			bulk, ref = packWith(t, PUPSoA, s), packWith(t, refPUPSoA, s)
			if !bytes.Equal(bulk, ref) {
				t.Fatalf("n=%d: PUPSoA bytes differ from the per-element reference", n)
			}
			back, rback := unpackWith(t, PUPSoA, ref), unpackWith(t, refPUPSoA, bulk)
			for _, got := range []*SoA{back, rback} {
				if !sameBits(&Columns{X: got.X, Y: got.Y, VX: got.VX, VY: got.VY, Q: got.Q, Meta: got.Meta}, c) {
					t.Fatalf("n=%d: SoA round trip changed a bit pattern", n)
				}
			}
		}
	}
}

// TestPUPSoARejectsOversizedMeta: a metadata count that fits the whole
// buffer but not the bytes left behind it must fail before allocating.
func TestPUPSoARejectsOversizedMeta(t *testing.T) {
	var buf []byte
	for i := 0; i < 5; i++ { // five empty float columns
		buf = binary.LittleEndian.AppendUint64(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, 50) // 50 records claimed …
	buf = append(buf, make([]byte, 2*40)...)        // … two present
	var s SoA
	u := pup.NewUnpacker(buf)
	PUPSoA(u, &s)
	if u.Err() == nil || cap(s.Meta) != 0 {
		t.Fatalf("oversized metadata count: err %v, allocated %d records", u.Err(), cap(s.Meta))
	}
}

// raggedShardFrame is a well-formed frame for a shard whose columns disagree
// on the particle count (two X values, one of everything else). The packer
// writes what it is given; the decoder must refuse it, because ScatterRemove
// and AppendColumns index all six columns by one count.
func raggedShardFrame(t testing.TB) []byte {
	c := randomShard(rand.New(rand.NewSource(3)), 1)
	c.X = append(c.X, 7)
	b, _, err := pup.EncodePayload(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzDecodeColumns feeds arbitrary bytes to the decoder every exchange
// frame reaches from a socket: it must never panic, never allocate more than
// a small multiple of the input, and whatever it accepts must re-encode to
// the bytes it came from (the presence flag normalised to 0/1).
func FuzzDecodeColumns(f *testing.F) {
	good, _, _ := pup.EncodePayload(nil, randomShard(rand.New(rand.NewSource(1)), 2))
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1})
	huge := []byte{1}
	for i := 0; i < 6; i++ {
		huge = binary.LittleEndian.AppendUint64(huge, 1<<40)
	}
	f.Add(huge)
	wrap := []byte{1} // section lengths whose byte total wraps past 2^64
	for i := 0; i < 6; i++ {
		wrap = binary.LittleEndian.AppendUint64(wrap, 1<<61)
	}
	f.Add(wrap)
	f.Add(raggedShardFrame(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := pup.DecodePayload(KindColumnsPtr, data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(data)+1<<16); got > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if c := v.(*Columns); c != nil {
			if n := len(c.X); len(c.Y) != n || len(c.VX) != n || len(c.VY) != n || len(c.Q) != n || len(c.Meta) != n {
				t.Fatalf("accepted a ragged shard (%d/%d/%d/%d/%d/%d)", n, len(c.Y), len(c.VX), len(c.VY), len(c.Q), len(c.Meta))
			}
		}
		again, _, err := pup.EncodePayload(nil, v)
		if err != nil {
			t.Fatalf("accepted shard failed to re-encode: %v", err)
		}
		if len(again) != len(data) || again[0] != min(data[0], 1) || !bytes.Equal(again[1:], data[1:]) {
			t.Fatalf("re-encoding changed the bytes:\n in % x\nout % x", data, again)
		}
	})
}

func benchShard() *Columns { return randomShard(rand.New(rand.NewSource(7)), 100000) }

// BenchmarkPUPColumnsPack is the in-package form of the benchmark's
// pup.pack_columns_mb_per_s: a 100k-particle shard (8 MB framed) through
// EncodePayload into a reused buffer.
func BenchmarkPUPColumnsPack(b *testing.B) {
	c := benchShard()
	var buf []byte
	b.SetBytes(c.FramedBytes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, _, err = pup.EncodePayload(buf[:0], c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPUPColumnsUnpack is pup.unpack_columns_mb_per_s: DecodePayload
// of the same shard, allocating the decoded columns as a receive does.
func BenchmarkPUPColumnsUnpack(b *testing.B) {
	c := benchShard()
	buf, kind, err := pup.EncodePayload(nil, c)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(c.FramedBytes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pup.DecodePayload(kind, buf); err != nil {
			b.Fatal(err)
		}
	}
}
