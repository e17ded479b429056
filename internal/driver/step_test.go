package driver

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/dist"
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
	block, err := RunBaseline(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := RunAMPI(p, cfg, AMPIParams{Overdecompose: 1, Every: 5, Strategy: ampi.NullLB{}})
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
				if s.ExchangeBytes() == 0 {
					return fmt.Errorf("three steps exchanged nothing; the test is trivial")
				}
				local, xbytes := s.Count(), s.ExchangeBytes()
				_, msgs := s.PeerExchange()
				sent := append([]int64(nil), msgs...)
				for call := 1; call <= 2; call++ {
					if err := s.Exchange(rec); err != nil {
						return err
					}
					if got := s.Count(); got != local {
						return fmt.Errorf("Exchange call %d: %d local particles, had %d", call, got, local)
					}
					if got := s.ExchangeBytes(); got != xbytes {
						return fmt.Errorf("Exchange call %d shipped %d bytes with every particle at home", call, got-xbytes)
					}
					if _, msgs := s.PeerExchange(); !reflect.DeepEqual(msgs, sent) {
						return fmt.Errorf("Exchange call %d sent payload messages: %v, had %v", call, msgs, sent)
					}
					if err := s.CheckOwnership(3); err != nil {
						return err
					}
				}
				if total := comm.AllreduceScalar(c, s.Count(), comm.Sum[int]); total != cfg.N {
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
		cols := &core.Columns{}
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
// it accepts must re-encode to the bytes it came from.
func FuzzDecodeParcels(f *testing.F) {
	good, kind, err := pup.EncodePayload(nil, parcelListFixture())
	if err != nil || kind != kindVPParcels {
		f.Fatalf("encode fixture: kind %d, err %v", kind, err)
	}
	for n := 0; n <= len(good); n++ {
		f.Add(good[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := pup.DecodePayload(kindVPParcels, data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(data)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		again, _, err := pup.EncodePayload(nil, v)
		if err != nil {
			t.Fatalf("accepted parcel list failed to re-encode: %v", err)
		}
		if want := normalizedFlags(data, v.(*[]parcel)); !bytes.Equal(again, want) {
			t.Fatalf("re-encoding changed the bytes:\n in % x\nout % x", data, again)
		}
	})
}
