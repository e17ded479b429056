package driver

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/comm/wire"
	"github.com/parres/picprk/internal/diffusion"
	"github.com/parres/picprk/internal/telemetry"
	"github.com/parres/picprk/internal/trace"
)

// engineFactory builds a fresh Engine per participant — elastic runs need
// one per simulated process (each holds its own store and step hook).
type engineFactory struct {
	name string
	make func(cfg Config, p int) (*Engine, error)
}

func recoveryFactories() []engineFactory {
	return []engineFactory{
		{"baseline", func(cfg Config, p int) (*Engine, error) {
			return NewBaselineEngine(cfg), nil
		}},
		{"diffusion", func(cfg Config, p int) (*Engine, error) {
			return NewDiffusionEngine(cfg, diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2})
		}},
		{"ampi", func(cfg Config, p int) (*Engine, error) {
			return NewAMPIEngine(p, cfg, AMPIParams{Overdecompose: 4, Every: 10})
		}},
		{"worksteal", func(cfg Config, p int) (*Engine, error) {
			return NewWorkStealEngine(cfg, WorkStealParams{Overdecompose: 4, Every: 6})
		}},
	}
}

// TestCheckpointingPreservesResults: arming epochs must not change a single
// bit of the physics or of the counts — every driver produces identical
// particles and counters with checkpointing on and off, and the commit
// count matches the schedule.
func TestCheckpointingPreservesResults(t *testing.T) {
	const ranks = 3
	cfg := testConfig(t, 16, 2000, 40)
	cfg.Telemetry = true
	for _, f := range recoveryFactories() {
		t.Run(f.name, func(t *testing.T) {
			plain, err := f.make(cfg, ranks)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := plain.Run(ranks)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Recovery != nil {
				t.Error("unchckpointed run carries recovery stats")
			}

			ccfg := cfg
			ccfg.CheckpointEvery = 7
			eng, err := f.make(ccfg, ranks)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(ranks)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Fatal("checkpointed run not verified")
			}
			assertBitwiseEqual(t, ref.Particles, res.Particles, f.name+" checkpointed")
			assertSameCounts(t, ref, res, f.name+" checkpointed")
			if res.Recovery == nil {
				t.Fatal("checkpointed run has no recovery stats")
			}
			if want := cfg.Steps / 7; res.Recovery.Commits != want {
				t.Errorf("commits: got %d, want %d", res.Recovery.Commits, want)
			}
			if res.Recovery.Rollbacks != 0 || res.Recovery.Readmits != 0 || res.Recovery.Generations != 1 {
				t.Errorf("uninterrupted run reports recovery activity: %+v", *res.Recovery)
			}
		})
	}
}

// assertSameSampleCounts fails unless got holds want samples, step by step
// and rank by rank the same as ref's in decision and every counter that is
// not a time.
func assertSameSampleCounts(t *testing.T, ref, got *telemetry.Timeline, want int) {
	t.Helper()
	if len(ref.Samples) != want || len(got.Samples) != want {
		t.Fatalf("timelines hold %d and %d samples, want %d", len(ref.Samples), len(got.Samples), want)
	}
	for i, g := range got.Samples {
		r := ref.Samples[i]
		if g.Step != r.Step || g.Rank != r.Rank || g.Decision != r.Decision {
			t.Fatalf("sample %d: step %d rank %d %q, reference step %d rank %d %q", i, g.Step, g.Rank, g.Decision, r.Step, r.Rank, r.Decision)
		}
		for c := range telemetry.NumCounters {
			if c.Kind() != telemetry.KindSpan && g.Counters[c] != r.Counters[c] {
				t.Fatalf("step %d rank %d: %s = %d, reference %d", g.Step, g.Rank, c, g.Counters[c], r.Counters[c])
			}
		}
	}
}

// runKilledAndRecovered runs a world of three "processes" — the
// coordinator and two workers, each with its own Engine from mk and its own
// wire node over real loopback tcp. The victim severs its node with no
// handshake at killStep and never comes back; a replacement is admitted in
// the second generation. live, when non-nil, is the coordinator's alone, as
// in picrun. It returns the coordinator's result after every worker has
// returned.
func runKilledAndRecovered(t *testing.T, mk func() *Engine, live *telemetry.Live, killStep int) *Result {
	t.Helper()
	const ranks = 3
	coord, healthy, victim, replacement := mk(), mk(), mk(), mk()
	coord.Cfg.Live = live
	var wg sync.WaitGroup
	var healthyErr, replacementErr error
	spawn := func(gen int, addr string) error {
		switch gen {
		case 0:
			wg.Add(2)
			go func() {
				defer wg.Done()
				healthyErr = healthy.RunElasticWorker("tcp", addr)
			}()
			go func() {
				defer wg.Done()
				// The victim behaves like a process that is SIGKILLed
				// mid-step: its node drops every connection with no
				// handshake and the "process" never comes back.
				node, err := wire.Join("tcp", addr, wire.JoinOptions{Rank: -1})
				if err != nil {
					return
				}
				victim.StepHook = func(c *comm.Comm, step int) {
					if step == killStep {
						node.Kill()
					}
				}
				_, _ = victim.runWorld(comm.NewTransportWorld(node, victim.Cfg.WorldOptions()))
			}()
		case 1:
			wg.Add(1)
			go func() {
				defer wg.Done()
				replacementErr = replacement.RunElasticWorker("tcp", addr)
			}()
		default:
			return fmt.Errorf("unexpected generation %d", gen)
		}
		return nil
	}
	res, err := coord.RunElastic(ElasticOptions{Network: "tcp", Ranks: ranks, SpawnWorkers: spawn})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if healthyErr != nil {
		t.Fatalf("surviving worker: %v", healthyErr)
	}
	if replacementErr != nil {
		t.Fatalf("replacement worker: %v", replacementErr)
	}
	if !res.Verified {
		t.Fatal("recovered run not verified")
	}
	if want := (RecoveryStats{Generations: 2, Commits: 4, Rollbacks: 1, Readmits: 1}); res.Recovery == nil || *res.Recovery != want {
		t.Fatalf("recovery stats: got %+v, want %+v", res.Recovery, want)
	}
	return res
}

// recoveryConfig is the configuration the kill-and-recover tests share: 3
// ranks, 40 steps, a commit every 10 steps, and the victim killed at step
// 25, between the commits at 20 and 30.
func recoveryConfig(t *testing.T) (cfg Config, killStep int) {
	cfg = testConfig(t, 16, 2000, 40)
	cfg.CheckpointEvery = 10
	cfg.Telemetry = true
	cfg.Recover, cfg.Transport = true, TransportTCP
	return cfg, 25
}

// TestRecoveryBitwiseIdentical is the acceptance pin for the epoch
// lifecycle: a run where one rank's process is abruptly killed mid-epoch
// and a replacement is re-admitted must finish with bitwise-identical
// particles, balance decisions and counts to an uninterrupted run — for all
// four drivers — and its timeline holds every step of every rank with the
// same counts, the steps before the commit it resumed from included.
func TestRecoveryBitwiseIdentical(t *testing.T) {
	const ranks = 3
	rcfg, killStep := recoveryConfig(t)
	cfg := rcfg
	cfg.Recover, cfg.Transport = false, ""

	for _, f := range recoveryFactories() {
		t.Run(f.name, func(t *testing.T) {
			uninterrupted, err := f.make(cfg, ranks)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := uninterrupted.Run(ranks)
			if err != nil {
				t.Fatal(err)
			}
			mk := func() *Engine {
				eng, err := f.make(rcfg, ranks)
				if err != nil {
					t.Fatal(err)
				}
				return eng
			}
			res := runKilledAndRecovered(t, mk, nil, killStep)
			assertBitwiseEqual(t, ref.Particles, res.Particles, f.name+" recovered")
			if got, want := fmt.Sprint(res.BalanceLog), fmt.Sprint(ref.BalanceLog); got != want {
				t.Errorf("balance log diverged:\nref: %s\ngot: %s", want, got)
			}
			assertSameCounts(t, ref, res, f.name+" recovered")
			assertSameSampleCounts(t, ref.Timeline, res.Timeline, ranks*cfg.Steps)
		})
	}
}

// TestRecoveredLiveRepeatsNoSeries: a Live that watched a run through a
// rollback renders the running generation's wire nodes only, so its
// exposition names every series once, the wire families included.
func TestRecoveredLiveRepeatsNoSeries(t *testing.T) {
	cfg, killStep := recoveryConfig(t)
	live := telemetry.NewLive(3)
	runKilledAndRecovered(t, func() *Engine { return NewBaselineEngine(cfg) }, live, killStep)
	var sb strings.Builder
	live.WritePrometheus(&sb)
	seen := map[string]bool{}
	wireSeries := 0
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		if seen[series] {
			t.Errorf("series %s repeated", series)
		}
		seen[series] = true
		if strings.HasPrefix(series, "picprk_wire_") {
			wireSeries++
		}
	}
	if wireSeries == 0 {
		t.Fatalf("no wire series after the recovered run:\n%s", sb.String())
	}
}

// TestEventsStreamSurvivesRollback: the Live and its sample stream outlive
// world generations, so an /events subscriber opened before a run stays
// open across its rollback and receives the re-run steps after the resumed
// commit, through the last one; only the server's shutdown ends it.
func TestEventsStreamSurvivesRollback(t *testing.T) {
	cfg, killStep := recoveryConfig(t)
	live := telemetry.NewLive(3)
	addr, stop, err := telemetry.Serve("127.0.0.1:0", live)
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	steps := make(chan int, 1024)
	go func() {
		defer close(steps)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var s struct{ Step, Rank int }
			if err := json.Unmarshal([]byte(data), &s); err == nil && s.Rank == 0 {
				steps <- s.Step
			}
		}
	}()

	runKilledAndRecovered(t, func() *Engine { return NewBaselineEngine(cfg) }, live, killStep)
	var got []int
	for len(got) == 0 || got[len(got)-1] < cfg.Steps {
		select {
		case s, open := <-steps:
			if !open {
				t.Fatalf("the /events stream ended with the run, after steps %v", got)
			}
			got = append(got, s)
		case <-time.After(10 * time.Second):
			t.Fatalf("no step %d on /events, got %v", cfg.Steps, got)
		}
	}
	// Before the rollback the stream ran past the commit at step 20; after
	// it, it carries steps 21..40 again, each once and in order.
	rolled := 1
	for rolled < len(got) && got[rolled] > got[rolled-1] {
		rolled++
	}
	if rolled == len(got) || got[rolled-1] <= 20 {
		t.Fatalf("no rollback past the commit at step 20 on /events: %v", got)
	}
	for i, s := range got[rolled:] {
		if s != 21+i || len(got)-rolled != cfg.Steps-20 {
			t.Fatalf("steps after the rollback: %v, want 21..%d", got[rolled:], cfg.Steps)
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, open := <-steps:
		if open {
			t.Error("a sample arrived after the last step")
		}
	case <-time.After(10 * time.Second):
		t.Error("the /events stream stayed open after the server stopped")
	}
}

// TestRecoverNeedsWireTransport: Config.validate accepts Recover only where
// a node can be lost and replaced, so Engine.Run refuses it in process and
// runs it under the supervisor over a socket transport.
func TestRecoverNeedsWireTransport(t *testing.T) {
	t.Setenv("PICPRK_TRANSPORT", "")
	cfg := testConfig(t, 16, 500, 10)
	cfg.CheckpointEvery, cfg.Recover = 5, true
	for _, tr := range []string{"", TransportInproc} {
		cfg.Transport = tr
		if _, err := NewBaselineEngine(cfg).Run(2); err == nil || !strings.Contains(err.Error(), "wire transport") {
			t.Errorf("Recover on transport %q: got %v, want a wire-transport error", tr, err)
		}
	}
	cfg.Transport = TransportTCP
	res, err := NewBaselineEngine(cfg).Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Recovery == nil || res.Recovery.Commits != 2 {
		t.Errorf("Recover over tcp: verified %v, recovery %+v", res.Verified, res.Recovery)
	}
}

// TestRollbackReplaysExchangeCounts: a world lost after a commit that left
// the exchange schedule's fence pending (the diffusion plan executed on the
// commit step changes the schedule, and comm owes full-ring exchanges after
// it) resumes in a fresh world, where comm owes nothing, and must still send
// exactly the messages the uninterrupted run sends. The fence travels in
// the exchange ledger. In-process: the lost world is one whose rank panics,
// and the rollback is the next world on the same engine's commit store.
func TestRollbackReplaysExchangeCounts(t *testing.T) {
	const p, every, lost = 4, 10, 15
	cfg := testConfig(t, 32, 4000, 30)
	cfg.CheckpointEvery, cfg.Telemetry = every, true
	mk := func() *Engine {
		return must(NewDiffusionEngine(cfg, diffusion.Params{Every: 5, Threshold: 0.05, Width: 1, MinWidth: 2}))
	}
	ref, err := mk().Run(p)
	if err != nil {
		t.Fatal(err)
	}
	planned := false
	for _, line := range ref.BalanceLog {
		planned = planned || strings.HasPrefix(line, fmt.Sprintf("step=%d ", every))
	}
	if !planned || ref.PerRank[0].MsgsElided == 0 {
		t.Fatalf("no plan on the commit step (%q) or no elided message: the test is trivial", ref.BalanceLog)
	}

	eng := mk()
	if err := eng.start(p); err != nil {
		t.Fatal(err)
	}
	eng.StepHook = func(c *comm.Comm, step int) {
		if step == lost && c.Rank() == 1 {
			panic("rank lost")
		}
	}
	if _, err := eng.runWorld(comm.NewWorld(p, cfg.WorldOptions())); err == nil {
		t.Fatal("the world survived its lost rank")
	}
	eng.StepHook = nil
	res, err := eng.runWorld(comm.NewWorld(p, cfg.WorldOptions()))
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, ref.Particles, res.Particles, "rolled back")
	assertSameCounts(t, ref, res, "rolled back")
}

// TestRunElasticValidation: the supervisor runs a world without Recover
// too — a lost peer then fails the run with comm.ErrPeerLost after the one
// generation, with no rollback — and rejects a transport with no processes
// to lose.
func TestRunElasticValidation(t *testing.T) {
	const killStep = 8
	cfg := testConfig(t, 16, 500, 20)
	cfg.CheckpointEvery = 5
	eng := NewBaselineEngine(cfg)
	var wg sync.WaitGroup
	var gens []int
	var workerErr error
	spawn := func(gen int, addr string) error {
		gens = append(gens, gen)
		if gen > 0 {
			return nil
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			workerErr = NewBaselineEngine(cfg).RunElasticWorker("tcp", addr)
		}()
		go func() {
			defer wg.Done()
			node, err := wire.Join("tcp", addr, wire.JoinOptions{Rank: -1})
			if err != nil {
				return
			}
			victim := NewBaselineEngine(cfg)
			victim.StepHook = func(c *comm.Comm, step int) {
				if step == killStep {
					node.Kill()
				}
			}
			_, _ = victim.runWorld(comm.NewTransportWorld(node, cfg.WorldOptions()))
		}()
		return nil
	}
	_, err := eng.RunElastic(ElasticOptions{Network: "tcp", Ranks: 3, SpawnWorkers: spawn})
	wg.Wait()
	var pl comm.ErrPeerLost
	if !errors.As(err, &pl) {
		t.Fatalf("RunElastic without Recover: got %v, want comm.ErrPeerLost", err)
	}
	if !errors.As(workerErr, &pl) {
		t.Errorf("surviving worker without Recover: got %v, want comm.ErrPeerLost", workerErr)
	}
	if fmt.Sprint(gens) != "[0]" {
		t.Errorf("generations spawned: %v, want [0]", gens)
	}
	stats, events, _ := eng.store.summary()
	if stats.Generations != 1 || stats.Rollbacks != 0 || stats.Readmits != 0 {
		t.Errorf("recovery stats after an unrecovered loss: %+v", stats)
	}
	for _, ev := range events {
		if ev.Kind == telemetry.EventRollback {
			t.Errorf("rollback event without Recover: %+v", ev)
		}
	}

	cfg.Recover = true
	eng = NewBaselineEngine(cfg)
	if _, err := eng.RunElastic(ElasticOptions{Network: "inproc", Ranks: 2}); err == nil {
		t.Error("RunElastic accepted the inproc transport")
	}
}

// TestEpochNonBoundaryStepAllocationFree pins that the epoch refactor kept
// the steady-state step allocation-free with checkpointing armed: all
// checkpoint work is confined to boundary steps, so a non-boundary step
// through the lifecycle's step path allocates nothing.
func TestEpochNonBoundaryStepAllocationFree(t *testing.T) {
	cfg := testConfig(t, 16, 4000, 0)
	cfg.Verify = false
	cfg.Dist = nil // uniform: both ranks stay busy
	cfg.CheckpointEvery = 1 << 30
	eng := NewBaselineEngine(cfg)
	const runs = 10
	w := comm.NewWorld(2)
	err := w.Run(func(c *comm.Comm) error {
		r := &epochRunner{e: eng, c: c, cfg: cfg}
		if err := r.init(); err != nil {
			return err
		}
		defer r.sub.Close()
		step := 0
		stepFn := func() {
			step++
			if err := r.oneStep(step); err != nil {
				panic(err)
			}
			if r.sub.Count() == 0 {
				panic("no local particles — the step under test is trivial")
			}
		}
		for i := 0; i < 40; i++ {
			stepFn()
		}
		if c.Rank() == 0 {
			if avg := testing.AllocsPerRun(runs, stepFn); avg != 0 {
				return fmt.Errorf("non-boundary epoch step: %v allocs/step, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				stepFn()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSubstrateCheckpointRoundTrip: each substrate's checkpoint blob
// restores onto a freshly built substrate of the same Config, and the
// restored rank continues stepping with identical state (the particles
// match field-for-field). Cross-config blobs are rejected with an error
// naming the mismatch.
func TestSubstrateCheckpointRoundTrip(t *testing.T) {
	cfg := testConfig(t, 16, 3000, 0)
	cfg.Verify = false
	subs := []struct {
		name string
		mk   func(c *comm.Comm, cfg Config) (Substrate, error)
	}{
		{"block", func(c *comm.Comm, cfg Config) (Substrate, error) {
			return newBlockSubstrate(c, cfg, 2, 1)
		}},
		{"vp", func(c *comm.Comm, cfg Config) (Substrate, error) {
			return newVPSubstrate(c, cfg, 4)
		}},
	}
	for _, tc := range subs {
		t.Run(tc.name, func(t *testing.T) {
			w := comm.NewWorld(2)
			err := w.Run(func(c *comm.Comm) error {
				s, err := tc.mk(c, cfg)
				if err != nil {
					return err
				}
				defer s.Close()
				rec := &trace.Recorder{}
				for i := 0; i < 5; i++ {
					if err := s.MoveExchange(rec); err != nil {
						return err
					}
				}
				blob, err := s.Checkpoint()
				if err != nil {
					return err
				}
				want := s.Particles()

				fresh, err := tc.mk(c, cfg)
				if err != nil {
					return err
				}
				defer fresh.Close()
				if err := fresh.Restore(blob); err != nil {
					return err
				}
				got := fresh.Particles()
				if len(got) != len(want) {
					return fmt.Errorf("restored %d particles, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						return fmt.Errorf("particle %d differs after restore:\nwant %+v\ngot  %+v", i, want[i], got[i])
					}
				}
				// Restored substrate keeps stepping in lockstep with the
				// original — derived structures were rebuilt correctly.
				for i := 0; i < 3; i++ {
					if err := s.MoveExchange(rec); err != nil {
						return err
					}
					if err := fresh.MoveExchange(rec); err != nil {
						return err
					}
				}
				a, b := s.Particles(), fresh.Particles()
				for i := range a {
					if a[i] != b[i] {
						return fmt.Errorf("diverged at particle %d after restored stepping", i)
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

// TestSubstrateCheckpointRejectsMismatch: blobs from the wrong substrate
// family or a different mesh fail loudly.
func TestSubstrateCheckpointRejectsMismatch(t *testing.T) {
	cfg := testConfig(t, 16, 500, 0)
	cfg.Verify = false
	w := comm.NewWorld(1)
	err := w.Run(func(c *comm.Comm) error {
		block, err := newBlockSubstrate(c, cfg, 1, 1)
		if err != nil {
			return err
		}
		defer block.Close()
		vp, err := newVPSubstrate(c, cfg, 2)
		if err != nil {
			return err
		}
		defer vp.Close()

		blockBlob, err := block.Checkpoint()
		if err != nil {
			return err
		}
		vpBlob, err := vp.Checkpoint()
		if err != nil {
			return err
		}
		if err := block.Restore(vpBlob); err == nil {
			return fmt.Errorf("block substrate accepted a VP checkpoint")
		}
		if err := vp.Restore(blockBlob); err == nil {
			return fmt.Errorf("VP substrate accepted a block checkpoint")
		}
		if err := block.Restore([]byte("garbage")); err == nil {
			return fmt.Errorf("block substrate accepted garbage")
		}

		// A different mesh resolution is a different world.
		other := testConfig(t, 32, 500, 0)
		other.Verify = false
		block32, err := newBlockSubstrate(c, other, 1, 1)
		if err != nil {
			return err
		}
		defer block32.Close()
		if err := block32.Restore(blockBlob); err == nil {
			return fmt.Errorf("block substrate accepted a checkpoint for another mesh")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResumeScattersCheckedShards pins what the generation-start scatter
// sends: one empty shard per rank when nothing is committed (no store
// included), the committed shards as they are, and an error instead of a
// scatter when the epoch has the wrong shard count, a shard of another step
// or one without a checkpoint.
func TestResumeScattersCheckedShards(t *testing.T) {
	var none *commitStore
	for _, s := range []*commitStore{none, {}} {
		shards, err := s.resume(3)
		if err != nil || len(shards) != 3 {
			t.Fatalf("no commit: %d shards, %v; want 3 empty ones", len(shards), err)
		}
		for _, sh := range shards {
			if len(sh.Sub) != 0 {
				t.Fatalf("no commit: shard carries a %d-byte checkpoint", len(sh.Sub))
			}
		}
	}
	epoch := func() []rankShard {
		return []rankShard{{Rank: 0, Step: 10, Sub: []byte{1}}, {Rank: 1, Step: 10, Sub: []byte{2}}}
	}
	s := &commitStore{}
	s.commit(10, epoch(), 0)
	if shards, err := s.resume(2); err != nil || len(shards) != 2 || shards[1].Sub[0] != 2 {
		t.Fatalf("committed epoch: %v, %v", shards, err)
	}
	for _, tc := range []struct {
		name string
		p    int
		edit func([]rankShard)
		want string
	}{
		{"shard count", 3, func([]rankShard) {}, "2 shards for 3 ranks"},
		{"step", 2, func(sh []rankShard) { sh[1].Step = 9 }, "shard 1 is of step 9"},
		{"no checkpoint", 2, func(sh []rankShard) { sh[0].Sub = nil }, "shard 0 is of step 10 with a 0-byte checkpoint"},
	} {
		sh := epoch()
		tc.edit(sh)
		s := &commitStore{}
		s.commit(10, sh, 0)
		if _, err := s.resume(tc.p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resume returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
