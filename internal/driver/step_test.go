package driver

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/memtest"
	"github.com/parres/picprk/internal/pup"
	"github.com/parres/picprk/internal/trace"
)

// TestBlockIsOneCellVP pins the claim the shared step rests on: a block rank
// is a rank hosting one cell. The baseline engine and the VP substrate at one
// VP per core that never migrates must agree on everything the step produces
// — the final state bit for bit, and, in-process, the exchange volume and the
// per-peer byte and message matrices of every rank.
func TestBlockIsOneCellVP(t *testing.T) {
	const p = 4
	cfg := testConfig(t, 16, 3000, 24)
	cfg.K, cfg.M = 1, 1
	cfg.Transport = TransportInproc
	cfg.Telemetry = true
	cfg.Schedule = dist.Schedule{
		{Step: 6, Region: dist.Rect{X0: 2, X1: 10, Y0: 2, Y1: 10}, Inject: 300, M: 1},
		{Step: 11, Region: dist.Rect{X0: 0, X1: 8, Y0: 0, Y1: 16}, Remove: true},
		{Step: 17, Region: dist.Rect{X0: 6, X1: 16, Y0: 0, Y1: 5}, Inject: 200, K: 1},
	}
	block, err := NewBaselineEngine(cfg).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := must(NewAMPIEngine(p, cfg, AMPIParams{Overdecompose: 1, Every: 5, Strategy: ampi.NullLB{}})).Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !block.Verified || !vp.Verified {
		t.Fatalf("verified: block %v, vp %v", block.Verified, vp.Verified)
	}
	assertBitwiseEqual(t, block.Particles, vp.Particles, "vp d=1 vs block")
	var shipped int64
	for r := range block.PerRank {
		b, v := block.PerRank[r], vp.PerRank[r]
		if b.BytesExchanged != v.BytesExchanged || b.MsgsSent != v.MsgsSent || b.MsgsElided != v.MsgsElided {
			t.Errorf("rank %d: block exchanged %d B in %d msgs (%d elided), vp %d B in %d msgs (%d elided)",
				r, b.BytesExchanged, b.MsgsSent, b.MsgsElided, v.BytesExchanged, v.MsgsSent, v.MsgsElided)
		}
		shipped += b.BytesExchanged
	}
	if shipped == 0 {
		t.Fatal("nothing was exchanged; the comparison is trivial")
	}
	if !reflect.DeepEqual(block.Timeline.PeerXchg, vp.Timeline.PeerXchg) {
		t.Errorf("per-peer exchange matrices differ:\nblock %+v\nvp    %+v", block.Timeline.PeerXchg, vp.Timeline.PeerXchg)
	}
}

// TestExchangeIsIdempotent pins what Substrate.Exchange is on both
// substrates: a sweep that ships what is out of place. Called twice with no
// step in between — or once right after a step, which leaves everything at
// home — it ships nothing and conserves the population.
func TestExchangeIsIdempotent(t *testing.T) {
	for _, h := range ownershipHarnesses() {
		t.Run(h.name, func(t *testing.T) {
			cfg := testConfig(t, 16, 2000, 0)
			cfg.Dist, cfg.K = nil, 1
			onTwoRanks(t, h, cfg, func(c *comm.Comm, s Substrate) error {
				rec := &trace.Recorder{}
				for step := 1; step <= 3; step++ {
					if err := s.MoveExchange(rec); err != nil {
						return err
					}
				}
				local := s.Count()
				b, m, _, _ := s.PeerExchange()
				shipped, sent := append([]int64(nil), b...), append([]int64(nil), m...)
				if slices.Max(shipped) == 0 {
					return fmt.Errorf("three steps exchanged nothing; the test is trivial")
				}
				for call := 1; call <= 2; call++ {
					if err := s.Exchange(rec); err != nil {
						return err
					}
					if got := s.Count(); got != local {
						return fmt.Errorf("Exchange call %d: %d local particles, had %d", call, got, local)
					}
					b, m, _, _ := s.PeerExchange()
					if !reflect.DeepEqual(b, shipped) {
						return fmt.Errorf("Exchange call %d shipped bytes with every particle at home: %v, had %v", call, b, shipped)
					}
					if !reflect.DeepEqual(m, sent) {
						return fmt.Errorf("Exchange call %d sent payload messages: %v, had %v", call, m, sent)
					}
					if err := s.CheckOwnership(3); err != nil {
						return err
					}
				}
				if total := comm.Allreduce(c, []int{s.Count()}, comm.Sum[int])[0]; total != cfg.N {
					return fmt.Errorf("population %d after two rehome exchanges, want %d", total, cfg.N)
				}
				return nil
			})
		})
	}
}

// parcelListFixture is a real two-parcel list: what one rank sends another
// in one step of an over-decomposed run.
func parcelListFixture() *[]parcel {
	mk := func(owner, n int) parcel {
		cols := &core.SoA{}
		for i := 0; i < n; i++ {
			f := float64(owner*100 + i)
			cols.X = append(cols.X, f+0.25)
			cols.Y = append(cols.Y, f+0.5)
			cols.VX = append(cols.VX, 1)
			cols.VY = append(cols.VY, -1)
			cols.Q = append(cols.Q, 1/(f+1))
			cols.Meta = append(cols.Meta, core.SoAMeta{ID: uint64(owner*1000 + i + 1), X0: f, Y0: f, K: 1, M: -1, Dir: 1, Born: int32(i)})
		}
		return parcel{Owner: owner, Cols: cols}
	}
	return &[]parcel{mk(3, 2), mk(5, 1)}
}

// normalizedFlags returns data with every presence flag the decoder read —
// the list pointer's and each parcel's — set to 0 or 1: the decoder takes any
// non-zero byte for true, so those are the only bytes an accepted input does
// not have to round-trip exactly.
func normalizedFlags(data []byte, list *[]parcel) []byte {
	out := append([]byte(nil), data...)
	out[0] = min(out[0], 1)
	if list == nil {
		return out
	}
	pos := 1 + 8 // pointer flag, list length
	for _, pc := range *list {
		out[pos+8] = min(out[pos+8], 1) // behind the owner index
		pos += 8 + 1
		if c := pc.Cols; c != nil {
			pos += core.ColumnsFrameBytes + 8*(len(c.X)+len(c.Y)+len(c.VX)+len(c.VY)+len(c.Q)) + 40*len(c.Meta)
		}
	}
	return out
}

// FuzzDecodeParcels fuzzes the kindVPParcels codec — the payload every
// particle that crosses a socket travels in. Whatever the bytes, decoding
// must not panic, must not allocate more than a small multiple of the input
// (a length prefix must never size an allocation on its own say-so), and what
// it accepts must re-encode to the bytes it came from. The stream decoder
// the wire reader runs must accept exactly the same inputs, decode them to
// the same values and keep to the same allocation bound, fed one byte per
// read or with the data and io.EOF together.
func FuzzDecodeParcels(f *testing.F) {
	good, kind, err := pup.EncodePayload(nil, parcelListFixture())
	if err != nil || kind != kindVPParcels {
		f.Fatalf("encode fixture: kind %d, err %v", kind, err)
	}
	for n := 0; n <= len(good); n++ {
		f.Add(good[:n])
	}
	// A shard whose columns disagree on the particle count: in bounds
	// section by section, and fatal to the next move loop if accepted.
	ragged := parcelListFixture()
	(*ragged)[1].Cols.X = append((*ragged)[1].Cols.X, 7)
	bad, _, err := pup.EncodePayload(nil, ragged)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(2*len(data) + 64<<10)
		var v any
		var err error
		if got := memtest.Least(limit, nil, func() { v, err = pup.DecodePayload(kindVPParcels, data) }); got > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		var streamed []any
		for _, reader := range []func(io.Reader) io.Reader{iotest.OneByteReader, iotest.DataErrReader} {
			var d pup.Decoder
			var r io.Reader
			var sv any
			var serr error
			arm := func() { d, r = pup.Decoder{}, reader(bytes.NewReader(data)) }
			if got := memtest.Least(limit, arm, func() { sv, serr = d.Decode(kindVPParcels, r, len(data)) }); got > limit {
				t.Fatalf("stream-decoding %d bytes allocated %d", len(data), got)
			}
			if (serr == nil) != (err == nil) {
				t.Fatalf("the stream decoder says %v where the buffer decoder says %v", serr, err)
			}
			streamed = append(streamed, sv)
		}
		if err != nil {
			return
		}
		if list := v.(*[]parcel); list != nil {
			for i, pc := range *list {
				if c := pc.Cols; c != nil {
					if n := len(c.X); len(c.Y) != n || len(c.VX) != n || len(c.VY) != n || len(c.Q) != n || len(c.Meta) != n {
						t.Fatalf("parcel %d: accepted a ragged shard (%d/%d/%d/%d/%d/%d)", i, n, len(c.Y), len(c.VX), len(c.VY), len(c.Q), len(c.Meta))
					}
				}
			}
		}
		again, _, err := pup.EncodePayload(nil, v)
		if err != nil {
			t.Fatalf("accepted parcel list failed to re-encode: %v", err)
		}
		if want := normalizedFlags(data, v.(*[]parcel)); !bytes.Equal(again, want) {
			t.Fatalf("re-encoding changed the bytes:\n in % x\nout % x", data, again)
		}
		for _, sv := range streamed {
			if sagain, _, err := pup.EncodePayload(nil, sv); err != nil || !bytes.Equal(sagain, again) {
				t.Fatalf("the stream decoder decoded different values (%v)", err)
			}
		}
	})
}

// randomCuts returns blocks+1 strictly ascending cuts from 0 to L.
func randomCuts(rng *rand.Rand, L, blocks int) []int {
	inner := rng.Perm(L - 1)[:blocks-1]
	sort.Ints(inner)
	cuts := []int{0}
	for _, c := range inner {
		cuts = append(cuts, c+1)
	}
	return append(cuts, L)
}

// TestStepKeepsStayerOrder pins the order the one-pass step keeps: across
// every step, the particles a cell holds both before and after it keep their
// relative order, on both substrates. The skew input at L = 32 with a ring
// of one cell leaves every rank interior as well as frontier particles, so
// a step that reordered either group, or moved one group behind the other,
// fails here.
func TestStepKeepsStayerOrder(t *testing.T) {
	const p, steps = 2, 12
	cfg := testConfig(t, 32, 6000, steps)
	cfg.K, cfg.M = 0, 1
	for _, tc := range []struct {
		name string
		mk   func(c *comm.Comm) (Substrate, error)
	}{
		{"block", func(c *comm.Comm) (Substrate, error) { return newBlockSubstrate(c, cfg, p, 1) }},
		{"vp", func(c *comm.Comm) (Substrate, error) { return newVPSubstrate(c, cfg, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := comm.NewWorld(p).Run(func(c *comm.Comm) error {
				sub, err := tc.mk(c)
				if err != nil {
					return err
				}
				defer sub.Close()
				s := stepperOf(sub)
				rec := &trace.Recorder{}
				kept := 0
				for step := 1; step <= steps; step++ {
					before := make(map[int]map[uint64]int, len(s.cells))
					for _, cl := range s.cells {
						at := make(map[uint64]int, cl.soa.Len())
						for i, m := range cl.soa.Meta {
							at[m.ID] = i
						}
						before[cl.id] = at
					}
					if err := sub.MoveExchange(rec); err != nil {
						return err
					}
					for _, cl := range s.cells {
						last := -1
						for _, m := range cl.soa.Meta {
							i, ok := before[cl.id][m.ID]
							if !ok {
								continue
							}
							if i < last {
								return fmt.Errorf("step %d rank %d cell %d: particle %d was at %d, behind a stayer that was at %d",
									step, c.Rank(), cl.id, m.ID, i, last)
							}
							last = i
							kept++
						}
					}
				}
				if kept == 0 {
					return fmt.Errorf("rank %d: no particle stayed in its cell", c.Rank())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShortRingFailsLoudly pins what a displacement ring narrower than the
// kernel's step becomes: an error, never a mishomed particle. A 2×2 block
// run with M = 1 whose ry is forced to 0 leaves the other row's ranks out
// of every neighbor schedule; once comm's full-ring fence has run out, the
// first particle crossing a row boundary is a payload for a rank outside
// the schedule, and the run must fail naming it, with no Result.
func TestShortRingFailsLoudly(t *testing.T) {
	for _, tr := range []string{TransportInproc, TransportTCP} {
		cfg := testConfig(t, 16, 2000, 8)
		cfg.K, cfg.M = 0, 1
		cfg.Transport = tr
		eng := NewBaselineEngine(cfg)
		mk := eng.Substrate
		eng.Substrate = func(c *comm.Comm, cfg Config) (Substrate, error) {
			sub, err := mk(c, cfg)
			if err != nil {
				return nil, err
			}
			b := sub.(*blockSubstrate)
			b.ry = 0
			b.rebuildTopology()
			return b, nil
		}
		res, err := eng.Run(4)
		if err == nil || !strings.Contains(err.Error(), "outside the neighbor schedule") {
			t.Fatalf("%s: run with a short ring returned %v, want an error naming the neighbor schedule", tr, err)
		}
		if res != nil {
			t.Fatalf("%s: failed run returned a Result", tr)
		}
	}
}
