package driver

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/memtest"
	"github.com/parres/picprk/internal/pup"
	"github.com/parres/picprk/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the substrate checkpoint goldens")

// checkpointFixture is one substrate of the checkpoint goldens: a tiny fixed
// run on one rank, checkpointed after goldenSteps steps.
type checkpointFixture struct {
	name string
	mk   func(c *comm.Comm, cfg Config) (Substrate, error)
}

const goldenSteps = 3

func checkpointFixtures() []checkpointFixture {
	return []checkpointFixture{
		{"block", func(c *comm.Comm, cfg Config) (Substrate, error) { return newBlockSubstrate(c, cfg, 1, 1) }},
		{"vp", func(c *comm.Comm, cfg Config) (Substrate, error) { return newVPSubstrate(c, cfg, 2) }},
	}
}

func goldenConfig(t testing.TB) Config {
	cfg := testConfig(t, 8, 10, 0)
	cfg.K, cfg.M, cfg.Verify = 1, 1, false
	return cfg
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "checkpoint_"+name+".golden")
}

// undump is the inverse of hex.Dump: the bytes of every line's hex columns.
func undump(t testing.TB, dump []byte) []byte {
	t.Helper()
	var out []byte
	for _, line := range strings.Split(string(dump), "\n") {
		if len(line) < 10 {
			continue
		}
		cols, _, _ := strings.Cut(line[10:], "|")
		b, err := hex.DecodeString(strings.Join(strings.Fields(cols), ""))
		if err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		out = append(out, b...)
	}
	return out
}

func stepN(s Substrate, n int) error {
	rec := &trace.Recorder{}
	for i := 0; i < n; i++ {
		if err := s.MoveExchange(rec); err != nil {
			return err
		}
	}
	return nil
}

// TestSubstrateCheckpointGolden pins the bytes a checkpointing run commits
// for each substrate (one format, PICPRKS4): a fixed tiny run's
// checkpoint must match testdata/checkpoint_*.golden exactly. Drift means
// every stored checkpoint changed format — bump the magic and regenerate
// with -update rather than silently breaking restores. The golden bytes
// themselves are then restored onto a fresh substrate and stepped, and must
// stay equal to the uninterrupted run.
func TestSubstrateCheckpointGolden(t *testing.T) {
	cfg := goldenConfig(t)
	for _, tc := range checkpointFixtures() {
		t.Run(tc.name, func(t *testing.T) {
			path := goldenPath(tc.name)
			err := comm.NewWorld(1).Run(func(c *comm.Comm) error {
				ref, err := tc.mk(c, cfg)
				if err != nil {
					return err
				}
				defer ref.Close()
				if err := stepN(ref, goldenSteps); err != nil {
					return err
				}
				blob, err := ref.Checkpoint()
				if err != nil {
					return err
				}
				if *updateGolden {
					if err := os.WriteFile(path, []byte(hex.Dump(blob)), 0o644); err != nil {
						return err
					}
				}
				dump, err := os.ReadFile(path)
				if err != nil {
					return fmt.Errorf("%v (run with -update to record the golden bytes)", err)
				}
				if got := hex.Dump(blob); got != string(dump) {
					return fmt.Errorf("checkpoint bytes drifted from %s:\ngot:\n%s\nwant:\n%s", path, got, dump)
				}

				fresh, err := tc.mk(c, cfg)
				if err != nil {
					return err
				}
				defer fresh.Close()
				if err := fresh.Restore(undump(t, dump)); err != nil {
					return err
				}
				if err := stepN(ref, goldenSteps); err != nil {
					return err
				}
				if err := stepN(fresh, goldenSteps); err != nil {
					return err
				}
				want, got := ref.Particles(), fresh.Particles()
				if len(got) != len(want) || len(want) == 0 {
					return fmt.Errorf("restored run has %d particles, uninterrupted %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						return fmt.Errorf("particle %d differs from the uninterrupted run:\nwant %+v\ngot  %+v", i, want[i], got[i])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRestoreRefusesForeignLedger: the exchange ledger closes the
// checkpoint. A row for another world size (or an implausible one)
// is refused before the row is read, and so is a fence comm could not owe.
func TestRestoreRefusesForeignLedger(t *testing.T) {
	cfg := goldenConfig(t)
	// On one rank the ledger is seven words: two rows of one count, each
	// behind its length, the two message totals and the fence.
	const words = 7
	cases := []struct {
		word int // from the ledger's start
		val  uint64
		want string
	}{
		{0, 0, "exchange ledger has a row for 0 ranks"},
		{0, 2, "exchange ledger has a row for 2 ranks"},
		{2, 1 << 62, "exchange ledger has a row for"},
		{6, 3, "owes 3 full-ring exchanges"},
		{6, 1 << 63, "full-ring exchanges"},
	}
	for _, tc := range checkpointFixtures() {
		dump, err := os.ReadFile(goldenPath(tc.name))
		if err != nil {
			t.Fatal(err)
		}
		golden := undump(t, dump)
		for _, c := range cases {
			blob := bytes.Clone(golden)
			binary.LittleEndian.PutUint64(blob[len(blob)-(words-c.word)*8:], c.val)
			err := comm.NewWorld(1).Run(func(cm *comm.Comm) error {
				s, err := tc.mk(cm, cfg)
				if err != nil {
					return err
				}
				defer s.Close()
				return s.Restore(blob)
			})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: ledger word %d = %d restored with %v, want %q", tc.name, c.word, c.val, err, c.want)
			}
		}
	}
}

// FuzzRestoreCheckpoint feeds arbitrary bytes to Substrate.Restore on both
// substrates — what a rank reads back from its commit store. Whatever the
// bytes, restoring must not panic, must not allocate more than a small
// multiple of the input beyond building the substrate itself (a length prefix
// must never size an allocation on its own say-so), a blob a substrate
// accepts must check-point back to exactly those bytes, and the step after
// an accepted restore must not panic.
func FuzzRestoreCheckpoint(f *testing.F) {
	for _, tc := range checkpointFixtures() {
		dump, err := os.ReadFile(goldenPath(tc.name))
		if err != nil {
			f.Fatal(err)
		}
		golden := undump(f, dump)
		f.Add(golden) // restored by both substrates: the other's blob included
		for _, n := range []int{0, 7, 8, 16, len(golden) / 2, len(golden) - 1} {
			f.Add(golden[:n])
		}
		old := bytes.Clone(golden)
		old[0] = '3' // the magic's version digit (little-endian, so first): PICPRKS3
		f.Add(old)
	}
	cfg := goldenConfig(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tc := range checkpointFixtures() {
			var restoreErr error
			var alloc uint64
			var again []byte
			limit := uint64(4*len(data) + 64<<10)
			err := comm.NewWorld(1).Run(func(c *comm.Comm) error {
				// Every try restores into a substrate fresh from mk.
				var s Substrate
				var err error
				defer func() {
					if s != nil {
						s.Close()
					}
				}()
				arm := func() {
					if s != nil {
						s.Close()
						s = nil
					}
					var fresh Substrate
					if fresh, err = tc.mk(c, cfg); err == nil {
						s = fresh
					}
				}
				alloc = memtest.Least(limit, arm, func() {
					if s != nil {
						restoreErr = s.Restore(data)
					}
				})
				if err != nil {
					return err
				}
				if restoreErr != nil {
					return nil
				}
				if again, err = s.Checkpoint(); err != nil {
					return err
				}
				// The step may refuse what it finds (a particle faster than
				// the displacement ring), but must not panic on it.
				_ = stepN(s, 1)
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if alloc > limit {
				t.Fatalf("%s: restoring %d bytes allocated %d", tc.name, len(data), alloc)
			}
			if restoreErr == nil && !bytes.Equal(again, data) {
				t.Fatalf("%s: an accepted checkpoint packs back differently:\n in % x\nout % x", tc.name, data, again)
			}
		}
	})
}

// TestRestoreRefusesAnotherRanksState restores each rank of a 2-rank block
// run from the other rank's checkpoint. The cut arrays agree, so only the
// particles give it away: they sit in the other rank's rectangle, and
// accepted, the next step would read their charges outside this rank's
// block.
func TestRestoreRefusesAnotherRanksState(t *testing.T) {
	cfg := testConfig(t, 16, 400, 0)
	cfg.Verify = false
	err := comm.NewWorld(2).Run(func(c *comm.Comm) error {
		s, err := newBlockSubstrate(c, cfg, 2, 1)
		if err != nil {
			return err
		}
		defer s.Close()
		if err := stepN(s, 2); err != nil {
			return err
		}
		blob, err := s.Checkpoint()
		if err != nil {
			return err
		}
		blobs := comm.Bcast(c, 0, comm.Gather(c, 0, blob))
		fresh, err := newBlockSubstrate(c, cfg, 2, 1)
		if err != nil {
			return err
		}
		defer fresh.Close()
		if err := fresh.Restore(blobs[1-c.Rank()]); err == nil {
			return fmt.Errorf("rank %d restored rank %d's checkpoint", c.Rank(), 1-c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesForeignVP: the static VP grid fixes every VP's
// rectangle, so neither path that carries a VP into a rank takes another
// VP's state under its id. A migration parcel whose header gives VP 0 VP
// 1's rectangle is refused by its header check; a checkpoint in which VP 0
// holds VP 1's particles is refused by the particle sweep. Accepted, the
// next step would read VP 0's particles' charges outside its block.
func TestRestoreRefusesForeignVP(t *testing.T) {
	cfg := testConfig(t, 16, 400, 0)
	cfg.Verify = false
	err := comm.NewWorld(1).Run(func(c *comm.Comm) error {
		s, err := newVPSubstrate(c, cfg, 4)
		if err != nil {
			return err
		}
		defer s.Close()
		v0, v1 := s.vps[0], s.vps[1]
		if v1.soa.Len() == 0 {
			return fmt.Errorf("fixture: VP 1 holds no particles")
		}
		buf, err := pup.Pack(v1)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf, 0) // the header's first word is the id
		if err := pup.Unpack(s.shell(), buf); err == nil || !strings.Contains(err.Error(), "the VP grid gives it") {
			return fmt.Errorf("VP 0 with VP 1's rectangle unpacked with %v", err)
		}

		v0.soa, v1.soa = v1.soa, v0.soa
		blob, err := s.Checkpoint()
		if err != nil {
			return err
		}
		fresh, err := newVPSubstrate(c, cfg, 4)
		if err != nil {
			return err
		}
		defer fresh.Close()
		if err := fresh.Restore(blob); err == nil || !strings.Contains(err.Error(), "not owned by VP 0") {
			return fmt.Errorf("VP 0 holding VP 1's particles restored with %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesOtherSubstrate: both substrates write one format, so
// nothing but the decomposition keeps one substrate's checkpoint out of the
// other, and the refusal names what differs. The goldens disagree on the
// owner grid's shape. On two ranks, one VP per rank has the rank grid's
// shape, cuts and hosts: there a block checkpoint is refused once the
// diffusion cuts have moved (the VP grid is static), and a VP checkpoint
// once a VP has moved (a block rank hosts only itself).
func TestRestoreRefusesOtherSubstrate(t *testing.T) {
	cfg := goldenConfig(t)
	fixtures := checkpointFixtures()
	for i, tc := range fixtures {
		dump, err := os.ReadFile(goldenPath(tc.name))
		if err != nil {
			t.Fatal(err)
		}
		other := fixtures[1-i]
		err = comm.NewWorld(1).Run(func(c *comm.Comm) error {
			s, err := other.mk(c, cfg)
			if err != nil {
				return err
			}
			defer s.Close()
			return s.Restore(undump(t, dump))
		})
		if err == nil || !strings.Contains(err.Error(), "owner grid") {
			t.Errorf("%s golden restored into the %s substrate with %v, want a refusal naming the owner grid", tc.name, other.name, err)
		}
	}

	cfg = testConfig(t, 16, 2000, 0)
	cfg.Verify = false
	cases := []struct {
		name  string
		from  func(c *comm.Comm) (Substrate, error)
		plan  func(s Substrate) balance.Plan
		into  func(c *comm.Comm) (Substrate, error)
		wants string
	}{
		{"moved cuts into vp",
			func(c *comm.Comm) (Substrate, error) { return newBlockSubstrate(c, cfg, 2, 1) },
			func(s Substrate) balance.Plan {
				x := s.(*blockSubstrate).g.X.Clone()
				x.Cuts[1]++
				return balance.Plan{X: &x}
			},
			func(c *comm.Comm) (Substrate, error) { return newVPSubstrate(c, cfg, 1) },
			"are not the VP grid's"},
		{"moved vp into block",
			func(c *comm.Comm) (Substrate, error) { return newVPSubstrate(c, cfg, 1) },
			func(Substrate) balance.Plan { return balance.Plan{Owner: []int{1, 1}} },
			func(c *comm.Comm) (Substrate, error) { return newBlockSubstrate(c, cfg, 2, 1) },
			"hosts rank 0's rectangle on rank 1"},
	}
	for _, tc := range cases {
		err := comm.NewWorld(2).Run(func(c *comm.Comm) error {
			from, err := tc.from(c)
			if err != nil {
				return err
			}
			defer from.Close()
			into, err := tc.into(c)
			if err != nil {
				return err
			}
			defer into.Close()
			// Before the move the two checkpoints are one state.
			blob, err := from.Checkpoint()
			if err != nil {
				return err
			}
			if err := into.Restore(blob); err != nil {
				return fmt.Errorf("unmoved: %w", err)
			}
			rehome, err := from.Execute(tc.plan(from))
			if err == nil && rehome {
				err = from.Exchange(&trace.Recorder{})
			}
			if err != nil {
				return err
			}
			if blob, err = from.Checkpoint(); err != nil {
				return err
			}
			if err := into.Restore(blob); err == nil || !strings.Contains(err.Error(), tc.wants) {
				return fmt.Errorf("rank %d restored with %v, want %q", c.Rank(), err, tc.wants)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestRestoreRefusesUnsteppableParticles corrupts one restored particle at
// a time in ways the checkpoint format cannot see — off its cell centre, a
// velocity or charge that is not finite — and requires the restore to
// refuse each, since the next step's move kernel could not take it.
func TestRestoreRefusesUnsteppableParticles(t *testing.T) {
	cfg := goldenConfig(t)
	for name, spoil := range map[string]func(s *blockSubstrate){
		"off centre":   func(s *blockSubstrate) { s.soa.X[0] += 0.25 },
		"outside":      func(s *blockSubstrate) { s.soa.Y[0] = -0.5 },
		"NaN velocity": func(s *blockSubstrate) { s.soa.VX[0] = math.NaN() },
		"huge charge":  func(s *blockSubstrate) { s.soa.Q[0] = math.MaxFloat64 },
	} {
		err := comm.NewWorld(1).Run(func(c *comm.Comm) error {
			s, err := newBlockSubstrate(c, cfg, 1, 1)
			if err != nil {
				return err
			}
			defer s.Close()
			spoil(s)
			blob, err := s.Checkpoint()
			if err != nil {
				return err
			}
			fresh, err := newBlockSubstrate(c, cfg, 1, 1)
			if err != nil {
				return err
			}
			defer fresh.Close()
			if err := fresh.Restore(blob); err == nil {
				return fmt.Errorf("%s: restored", name)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
