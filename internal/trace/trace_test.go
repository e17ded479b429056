package trace

import (
	"strings"
	"testing"
	"time"
)

func TestTimeAccumulates(t *testing.T) {
	var r Recorder
	r.Time(Compute, func() { time.Sleep(2 * time.Millisecond) })
	r.Time(Compute, func() { time.Sleep(2 * time.Millisecond) })
	if r.Get(Compute) < 4*time.Millisecond {
		t.Errorf("compute time %v", r.Get(Compute))
	}
	if r.Get(Exchange) != 0 {
		t.Errorf("exchange should be zero, got %v", r.Get(Exchange))
	}
}

func TestAddAndGet(t *testing.T) {
	var r Recorder
	r.Add(Compute, time.Second)
	r.Add(Exchange, 2*time.Second)
	r.Add(Balance, 3*time.Second)
	if r.Get(Compute) != time.Second || r.Get(Exchange) != 2*time.Second || r.Get(Balance) != 3*time.Second || r.Get(Migrate) != 0 {
		t.Errorf("phases %v %v %v %v", r.Get(Compute), r.Get(Exchange), r.Get(Balance), r.Get(Migrate))
	}
}

func TestObserveParticles(t *testing.T) {
	var r Recorder
	r.ObserveParticles(10)
	r.ObserveParticles(5)
	r.ObserveParticles(20)
	r.ObserveParticles(15)
	if r.MaxParticles != 20 {
		t.Errorf("high water %d", r.MaxParticles)
	}
}

func TestPhaseString(t *testing.T) {
	if Compute.String() != "compute" || Exchange.String() != "exchange" || Balance.String() != "balance" {
		t.Error("phase names wrong")
	}
	if !strings.Contains(Phase(9).String(), "9") {
		t.Error("unknown phase should include its number")
	}
	if numPhases.String() != "numPhases" {
		t.Errorf("sentinel renders as %q, want numPhases", numPhases.String())
	}
}

// TestPhases pins the iterator contract: every accountable phase exactly
// once, in index order, each with a proper name (no fallthrough formatting).
func TestPhases(t *testing.T) {
	ps := Phases()
	if len(ps) != NumPhases {
		t.Fatalf("Phases() has %d entries, want %d", len(ps), NumPhases)
	}
	for i, p := range ps {
		if int(p) != i {
			t.Errorf("Phases()[%d] = %v, want index order", i, p)
		}
		if strings.Contains(p.String(), "phase(") {
			t.Errorf("phase %d has no name: %q", i, p.String())
		}
	}
}

func TestStartStepSnapshot(t *testing.T) {
	var r Recorder
	r.Add(Compute, 5*time.Second) // pre-step history
	r.StartStep()
	r.Add(Compute, time.Second)
	r.Add(Migrate, 2*time.Second)
	s := r.Snapshot()
	if s[Compute] != time.Second || s[Migrate] != 2*time.Second || s[Exchange] != 0 {
		t.Errorf("snapshot %v", s)
	}
	// A new step resets the baseline; cumulative totals are unaffected.
	r.StartStep()
	if s := r.Snapshot(); s != (PhaseDurations{}) {
		t.Errorf("fresh step snapshot %v, want zero", s)
	}
	if r.Get(Compute) != 6*time.Second {
		t.Errorf("cumulative compute %v", r.Get(Compute))
	}
}

// TestSnapshotWithoutStartStep documents the zero-baseline behavior.
func TestSnapshotWithoutStartStep(t *testing.T) {
	var r Recorder
	r.Add(Exchange, time.Second)
	if s := r.Snapshot(); s[Exchange] != time.Second {
		t.Errorf("snapshot without StartStep %v", s)
	}
}
