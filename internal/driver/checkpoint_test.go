package driver

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/parres/picprk/internal/comm"
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
// for each substrate (PICPRKB2 block, PICPRKV2 VP): a fixed tiny run's
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

// FuzzRestoreCheckpoint feeds arbitrary bytes to Substrate.Restore on both
// substrates — what a rank reads back from its commit store. Whatever the
// bytes, restoring must not panic, must not allocate more than a small
// multiple of the input beyond building the substrate itself (a length prefix
// must never size an allocation on its own say-so), and a blob a substrate
// accepts must check-point back to exactly those bytes.
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
		old[0] = '1' // the magic's version digit (little-endian, so first): PICPRKB1/V1
		f.Add(old)
	}
	cfg := goldenConfig(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tc := range checkpointFixtures() {
			var restoreErr error
			var alloc uint64
			var again []byte
			err := comm.NewWorld(1).Run(func(c *comm.Comm) error {
				s, err := tc.mk(c, cfg)
				if err != nil {
					return err
				}
				defer s.Close()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				restoreErr = s.Restore(data)
				runtime.ReadMemStats(&after)
				alloc = after.TotalAlloc - before.TotalAlloc
				if restoreErr == nil {
					again, err = s.Checkpoint()
				}
				return err
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if limit := uint64(4*len(data) + 64<<10); alloc > limit {
				t.Fatalf("%s: restoring %d bytes allocated %d", tc.name, len(data), alloc)
			}
			if restoreErr == nil && !bytes.Equal(again, data) {
				t.Fatalf("%s: an accepted checkpoint packs back differently:\n in % x\nout % x", tc.name, data, again)
			}
		}
	})
}
