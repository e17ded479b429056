package dist

import (
	"reflect"
	"strings"
	"testing"
)

func TestRectContains(t *testing.T) {
	r := Rect{X0: 2, X1: 5, Y0: 1, Y1: 4}
	if !r.ContainsCell(2, 1) || !r.ContainsCell(4, 3) {
		t.Error("interior cells rejected")
	}
	if r.ContainsCell(5, 1) || r.ContainsCell(2, 4) || r.ContainsCell(1, 1) {
		t.Error("exterior cells accepted")
	}
	if r.Cells() != 9 {
		t.Errorf("Cells = %d", r.Cells())
	}
	if (Rect{X0: 3, X1: 3, Y0: 0, Y1: 2}).Cells() != 0 {
		t.Error("empty rect has non-zero cells")
	}
}

func TestRectContainsPos(t *testing.T) {
	m := mesh(t, 8)
	r := Rect{X0: 2, X1: 4, Y0: 2, Y1: 4}
	if !r.ContainsPos(2.5, 3.5, m) {
		t.Error("center of interior cell rejected")
	}
	if r.ContainsPos(4.5, 3.5, m) {
		t.Error("outside position accepted")
	}
}

func TestScheduleValidate(t *testing.T) {
	m := mesh(t, 8)
	good := Schedule{{Step: 3, Region: Rect{0, 4, 0, 4}, Inject: 10}}
	if err := good.Validate(m); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	bads := []Schedule{
		{{Step: -1, Region: Rect{0, 4, 0, 4}, Inject: 1}},
		{{Step: 0, Region: Rect{0, 4, 0, 4}, Inject: 1}},
		{{Step: 0, Region: Rect{0, 4, 0, 4}, Remove: true}},
		{{Step: 1, Region: Rect{0, 4, 0, 4}, Inject: -1}},
		{{Step: 1, Region: Rect{0, 9, 0, 4}, Inject: 1}},
		{{Step: 1, Region: Rect{2, 2, 0, 4}, Remove: true}},
		{{Step: 1, Region: Rect{0, 4, 0, 4}, Inject: 1, K: -1}},
	}
	for i, s := range bads {
		if err := s.Validate(m); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
	if err := bads[1].Validate(m); err == nil || !strings.Contains(err.Error(), "after a step's move") {
		t.Errorf("step-0 event: got %v, want the refusal to say events fire after a step's move", err)
	}
}

// TestScheduleFired pins the events a run fires, the set verification
// sizes its ID range by and replays: steps 1..steps, in step order, stable.
func TestScheduleFired(t *testing.T) {
	s := Schedule{
		{Step: 7, Inject: 1}, {Step: 0, Inject: 2}, {Step: 3, Inject: 4},
		{Step: 6, Inject: 8}, {Step: 3, Remove: true}, {Step: 1, Inject: 16},
	}
	got := s.Fired(6)
	want := Schedule{{Step: 1, Inject: 16}, {Step: 3, Inject: 4}, {Step: 3, Remove: true}, {Step: 6, Inject: 8}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Fired(6) = %+v, want %+v", got, want)
	}
	if n := got.TotalInjected(); n != 28 {
		t.Errorf("fired injections mint %d IDs, want 28 (not the schedule's %d)", n, s.TotalInjected())
	}
	if got := s.Fired(0); len(got) != 0 {
		t.Errorf("Fired(0) = %+v: a run of no steps fires nothing", got)
	}
}

func TestScheduleSortedAndAt(t *testing.T) {
	s := Schedule{
		{Step: 5, Inject: 1, Region: Rect{0, 1, 0, 1}},
		{Step: 2, Remove: true, Region: Rect{0, 1, 0, 1}},
		{Step: 5, Inject: 2, Region: Rect{0, 1, 0, 1}},
	}
	sorted := s.Sorted()
	if sorted[0].Step != 2 || sorted[1].Step != 5 || sorted[2].Step != 5 {
		t.Errorf("sort order wrong: %+v", sorted)
	}
	// Stable: the Inject:1 event stays before Inject:2.
	if sorted[1].Inject != 1 {
		t.Error("sort not stable")
	}
	at5 := s.At(5)
	if len(at5) != 2 {
		t.Errorf("At(5) returned %d events", len(at5))
	}
	if s.TotalInjected() != 3 {
		t.Errorf("TotalInjected = %d", s.TotalInjected())
	}
}

func TestInjectParticles(t *testing.T) {
	m := mesh(t, 16)
	ev := Event{Step: 7, Region: Rect{4, 8, 2, 6}, Inject: 50, K: 1, M: 2}
	cfg := Config{Mesh: m, Seed: 42, Dir: 1}
	ps := injected(cfg, ev, 1001)
	if len(ps) != 50 {
		t.Fatalf("injected %d", len(ps))
	}
	for i, p := range ps {
		if p.ID != 1001+uint64(i) {
			t.Fatalf("ID sequence broken at %d: %d", i, p.ID)
		}
		cx, cy := m.CellOf(p.X, p.Y)
		if !ev.Region.ContainsCell(cx, cy) {
			t.Fatalf("injected outside region: (%d,%d)", cx, cy)
		}
		if p.Born != 7 || p.K != 1 || p.M != 2 || p.VY != 2 {
			t.Fatalf("bad injected params %+v", p)
		}
	}
	// Deterministic.
	ps2 := injected(cfg, ev, 1001)
	for i := range ps {
		if ps[i] != ps2[i] {
			t.Fatal("injection not deterministic")
		}
	}
	// Zero-injection events produce nothing.
	if got := injected(cfg, Event{Step: 1, Region: Rect{0, 1, 0, 1}}, 1); len(got) != 0 {
		t.Errorf("empty event injected %d particles", len(got))
	}
}
