package driver

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/parres/picprk/internal/ampi"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/core"
	"github.com/parres/picprk/internal/dist"
	"github.com/parres/picprk/internal/grid"
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

// TestPartitionSkippedOnlyWithoutInterior pins the one thing that decides
// whether a step runs PartitionFrontier. Over random cut arrays, ring widths
// and owner placements, the flag rebuildTopology records equals a brute-force
// reading of the definition — some mesh cell hosted here has no remotely
// hosted cell within the ring, wrapped — computed without the mask. Then one
// run on each side of the flag, on both substrates, matches the serial
// reference bit for bit.
func TestPartitionSkippedOnlyWithoutInterior(t *testing.T) {
	const L, p = 16, 3
	mesh := grid.MustMesh(L, grid.DefaultCharge)
	var with, without int
	err := comm.NewWorld(p).Run(func(c *comm.Comm) error {
		me := c.Rank()
		rng := rand.New(rand.NewSource(41)) // same draws on every rank
		for trial := 0; trial < 200; trial++ {
			px, py := 1+rng.Intn(4), 1+rng.Intn(4)
			s := &stepper{c: c, cfg: Config{Mesh: mesh}, rx: rng.Intn(L/2 + 2), ry: rng.Intn(L/2 + 2)}
			s.ot = core.NewOwnerTable(randomCuts(rng, L, px), randomCuts(rng, L, py))
			s.host = make([]int, px*py)
			for o := range s.host {
				s.host[o] = rng.Intn(p)
				if rng.Intn(3) == 0 {
					s.host[o] = 0 // lopsided placements: whole rows of one rank
				}
				if s.host[o] == me {
					s.cells = append(s.cells, &cell{id: o})
				}
			}
			s.rebuildTopology()

			hostedAt := func(cx, cy int) int {
				return s.host[s.ot.Owner(grid.WrapIndex(cx, L), grid.WrapIndex(cy, L))]
			}
			want := false
			for cy := 0; cy < L; cy++ {
				for cx := 0; cx < L; cx++ {
					if hostedAt(cx, cy) != me {
						continue
					}
					reach := false
					for dy := -s.ry; dy <= s.ry; dy++ {
						for dx := -s.rx; dx <= s.rx; dx++ {
							reach = reach || hostedAt(cx+dx, cy+dy) != me
						}
					}
					want = want || !reach
				}
			}
			if s.interior != want {
				return fmt.Errorf("trial %d rank %d (%d×%d owners, ring %d,%d, hosts %v): interior recorded %v, brute force %v",
					trial, me, px, py, s.rx, s.ry, s.host, s.interior, want)
			}
			if me == 0 && want {
				with++
			} else if me == 0 {
				without++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if without < 20 || with < 20 {
		t.Fatalf("trials landed %d without and %d with interior; the comparison is one-sided", without, with)
	}

	for _, k := range []int{0, 4} { // ring 1 of 16 cells: interior; ring 9: none
		cfg := testConfig(t, L, 3000, 12)
		cfg.K, cfg.M = k, 1
		ref := sequentialReference(t, cfg)
		block := NewBaselineEngine(cfg)
		vp, err := NewAMPIEngine(2, cfg, AMPIParams{Overdecompose: 4, Every: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range []*Engine{block, vp} {
			var interior [2]bool
			mk := eng.Substrate
			eng.Substrate = func(c *comm.Comm, cfg Config) (Substrate, error) {
				s, err := mk(c, cfg)
				switch s := s.(type) {
				case *blockSubstrate:
					interior[c.Rank()] = s.interior
				case *vpSubstrate:
					interior[c.Rank()] = s.interior
				}
				return s, err
			}
			res, err := eng.Run(2)
			if err != nil || !res.Verified {
				t.Fatalf("%s k=%d: run failed or unverified: %v", eng.Name, k, err)
			}
			if want := k == 0; interior != [2]bool{want, want} {
				t.Fatalf("%s k=%d: interior flags %v, want %v on both ranks", eng.Name, k, interior, want)
			}
			assertBitwiseEqual(t, ref, res.Particles, fmt.Sprintf("%s k=%d", eng.Name, k))
		}
	}
}
