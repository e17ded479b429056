package telemetry

import (
	"testing"
	"time"
)

func TestNilSinksAreNoOps(t *testing.T) {
	var l *Live
	l.Observe(Sample{Step: 1}) // must not panic
}

func TestNewSortsByStepThenRank(t *testing.T) {
	rank1 := []Sample{{Step: 1, Rank: 1}, {Step: 2, Rank: 1}}
	rank0 := []Sample{{Step: 1, Rank: 0}, {Step: 2, Rank: 0}}
	tl := New("x", 2, 2, rank1, rank0)
	want := [][2]int{{1, 0}, {1, 1}, {2, 0}, {2, 1}}
	for i, s := range tl.Samples {
		if s.Step != want[i][0] || s.Rank != want[i][1] {
			t.Fatalf("sample %d is (step %d, rank %d), want %v", i, s.Step, s.Rank, want[i])
		}
	}
}

// fixtureTimeline is the deterministic two-rank, three-step run the golden
// and analysis tests share: rank 1 is overloaded, a balancing decision
// fires at step 2 and evens the loads out by step 3.
func fixtureTimeline() *Timeline {
	mk := func(step, rank int, c, e, b, m time.Duration, particles, migrations int, bytes, xbytes int64, decision string) Sample {
		s := Sample{Step: step, Rank: rank, Decision: decision}
		s.Counters[Particles] = int64(particles)
		s.Counters[Migrations] = int64(migrations)
		s.Counters[MigratedBytes] = bytes
		s.Counters[ExchangeBytes] = xbytes
		s.Counters[Compute] = c.Nanoseconds()
		s.Counters[Exchange] = e.Nanoseconds()
		s.Counters[Balance] = b.Nanoseconds()
		s.Counters[Migrate] = m.Nanoseconds()
		return s
	}
	ms := time.Millisecond
	rank0 := []Sample{
		mk(1, 0, 2*ms, 1*ms, 0, 0, 100, 0, 0, 4096, ""),
		mk(2, 0, 2*ms, 1*ms, 1*ms, 3*ms, 150, 1, 2048, 2128, "step=2 x=[0 5 8]"),
		mk(3, 0, 3*ms, 1*ms, 0, 0, 200, 0, 0, 128, ""),
	}
	rank1 := []Sample{
		mk(1, 1, 6*ms, 1*ms, 0, 0, 300, 0, 0, 8192, ""),
		mk(2, 1, 5*ms, 1*ms, 1*ms, 2*ms, 250, 1, 1024, 1648, "step=2 x=[0 5 8]"),
		mk(3, 1, 3*ms, 1*ms, 0, 0, 200, 0, 0, 128, ""),
	}
	// Wall stamps on a fixed epoch: rank 1's process clock runs 150µs behind
	// rank 0's, so its corrected stamps carry the offset and its steps start
	// 200µs after rank 0's (visible skew in the wall-clock trace).
	const wallBase = int64(1_700_000_000_000_000_000)
	for i := range rank0 {
		rank0[i].WallStartNS = wallBase + int64(i)*10_000_000
	}
	for i := range rank1 {
		rank1[i].WallStartNS = wallBase + int64(i)*10_000_000 + 200_000
		rank1[i].ClockOffsetNS = 150_000
	}
	// Each exchange posts one message and elides none (P=2: the only peer is
	// always a neighbor).
	for i := range rank0 {
		rank0[i].Counters[MsgsSent], rank1[i].Counters[MsgsSent] = 1, 1
	}
	tl := New("diffusion", 2, 3, rank0, rank1)
	// One committed epoch at step 2 — exercises the event lines.
	tl.Events = []Event{
		{Kind: EventCommit, Step: 2, Gen: 0, Rank: -1, WallNS: wallBase + 15_000_000},
	}
	// Per-peer exchange matrix rows — exercises the matrix lines.
	tl.PeerXchg = []PeerXchg{
		{Rank: 0, Bytes: []int64{0, 6352}, Msgs: []int64{0, 3}},
		{Rank: 1, Bytes: []int64{9968, 0}, Msgs: []int64{3, 0}},
	}
	return tl
}

func TestStepStats(t *testing.T) {
	ss := fixtureTimeline().StepStats()
	if len(ss) != 3 {
		t.Fatalf("%d step stats, want 3", len(ss))
	}
	// Step 1: rank 1 totals 7ms, rank 0 totals 3ms → wall 7ms.
	if ss[0].Wall != 7*time.Millisecond {
		t.Errorf("step 1 wall %v, want 7ms", ss[0].Wall)
	}
	if ss[0].Load.Max != 300 || ss[0].Load.Mean != 200 {
		t.Errorf("step 1 load %+v", ss[0].Load)
	}
	if ss[0].Load.Imbalance != 1.5 {
		t.Errorf("step 1 imbalance %v, want 1.5", ss[0].Load.Imbalance)
	}
	if ss[1].Decision == "" || ss[1].Counters[Migrations] != 2 || ss[1].Counters[MigratedBytes] != 3072 {
		t.Errorf("step 2 decision/migrations/bytes: %+v", ss[1])
	}
	// Exchange bytes sum over ranks per step.
	if x := [3]int64{ss[0].Counters[ExchangeBytes], ss[1].Counters[ExchangeBytes], ss[2].Counters[ExchangeBytes]}; x != [3]int64{12288, 3776, 256} {
		t.Errorf("exchange bytes per step: %v; want [12288 3776 256]", x)
	}
	// A gauge sums to the global level: the population.
	if ss[0].Counters[Particles] != 400 {
		t.Errorf("step 1 particles %d, want 400", ss[0].Counters[Particles])
	}
	if ss[2].Load.Imbalance != 1 {
		t.Errorf("step 3 imbalance %v, want 1 (balanced)", ss[2].Load.Imbalance)
	}
	// Span sums over ranks.
	if ss[0].Counters[Compute] != 8_000_000 {
		t.Errorf("step 1 compute sum %d ns, want 8ms", ss[0].Counters[Compute])
	}
}

// TestSpanTotals: a span's run total is the sum of its row over every
// step, as picstat reports it.
func TestSpanTotals(t *testing.T) {
	var tot [NumCounters]int64
	for _, st := range fixtureTimeline().StepStats() {
		for c := range tot {
			tot[c] += st.Counters[c]
		}
	}
	if tot[Compute] != 21_000_000 {
		t.Errorf("compute total %d ns, want 21ms", tot[Compute])
	}
	if tot[Exchange] != 6_000_000 {
		t.Errorf("exchange total %d ns, want 6ms", tot[Exchange])
	}
	if tot[Migrate] != 5_000_000 {
		t.Errorf("migrate total %d ns, want 5ms", tot[Migrate])
	}
}

func TestWorstSteps(t *testing.T) {
	ss := fixtureTimeline().StepStats()
	worst := WorstSteps(ss, 2)
	if len(worst) != 2 {
		t.Fatalf("%d worst steps, want 2", len(worst))
	}
	// Step 2 rank 1: 5+1+1+2 = 9ms wall; step 1: 7ms.
	if worst[0].Step != 2 || worst[1].Step != 1 {
		t.Errorf("worst order %d, %d; want 2, 1", worst[0].Step, worst[1].Step)
	}
	if got := WorstSteps(ss, 10); len(got) != 3 {
		t.Errorf("over-asking returned %d steps", len(got))
	}
	// Input order is preserved.
	if ss[0].Step != 1 || ss[1].Step != 2 {
		t.Error("WorstSteps mutated its input")
	}
}

// TestSamplingDisabledAllocationFree pins the tentpole constraint: the
// per-step telemetry path must not allocate when telemetry is disabled —
// no sample is kept, a nil Live swallows it, and a sample is the difference
// of two counter readings, a value copy — so enabling the engine's sampling
// hooks costs nothing on unsampled runs.
func TestSamplingDisabledAllocationFree(t *testing.T) {
	const keep = false
	var samples []Sample
	var live *Live
	var prev, cur [NumCounters]int64
	cur[Compute] = time.Second.Nanoseconds()
	if avg := testing.AllocsPerRun(100, func() {
		cur[Exchange] += time.Millisecond.Nanoseconds()
		cur[Particles] = 42
		s := Sample{Step: 1, Rank: 0}
		for c := range NumCounters {
			s.Counters[c] = cur[c] - prev[c]
		}
		prev = cur
		if keep {
			samples = append(samples, s)
		}
		live.Observe(s)
	}); avg != 0 {
		t.Errorf("disabled telemetry: %v allocs per step, want 0", avg)
	}
}

// TestSamplingEnabledAllocationFree goes further: even with telemetry on,
// the step stays off the allocator, because samples append into a slice
// sized to the step count up front (Live is atomic stores throughout).
func TestSamplingEnabledAllocationFree(t *testing.T) {
	const runs = 100
	samples := make([]Sample, 0, runs+1) // AllocsPerRun adds one warm-up call
	live := NewLive(1)
	var prev, cur [NumCounters]int64
	if avg := testing.AllocsPerRun(runs, func() {
		cur[Compute] += time.Millisecond.Nanoseconds()
		s := Sample{Step: len(samples) + 1, Rank: 0}
		for c := range NumCounters {
			s.Counters[c] = cur[c] - prev[c]
		}
		prev = cur
		samples = append(samples, s)
		live.Observe(s)
	}); avg != 0 {
		t.Errorf("enabled telemetry: %v allocs per step, want 0", avg)
	}
	if len(samples) != runs+1 {
		t.Errorf("kept %d samples, want %d", len(samples), runs+1)
	}
}
