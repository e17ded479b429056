package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/parres/picprk/internal/model"
)

func TestRenderProducesAlignedTable(t *testing.T) {
	f := &Figure{
		ID: "test", Title: "t", Config: "c", XLabel: "x",
		XTicks: []string{"1", "24"},
		Series: []Series{
			{Name: "a", Unit: "s", Values: []float64{1.5, 2.5}},
			{Name: "b", Values: []float64{10000}},
		},
		Notes: []string{"hello"},
	}
	var sb strings.Builder
	f.Render(&sb)
	out := sb.String()
	for _, want := range []string{"=== test", "a (s)", "1.50", "2.50", "10000", "-", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 6 {
		t.Errorf("render produced %d lines", len(lines))
	}
}

func TestPlot(t *testing.T) {
	f := &Figure{
		ID: "plot-test", XLabel: "cores", XTicks: []string{"1", "2", "4"},
		Series: []Series{
			{Name: "fast", Values: []float64{100, 50, 25}},
			{Name: "slow", Values: []float64{100, 80, 70}},
		},
	}
	var sb strings.Builder
	f.Plot(&sb, 10)
	out := sb.String()
	if !strings.Contains(out, "b = fast") || !strings.Contains(out, "d = slow") {
		t.Errorf("legend missing:\n%s", out)
	}
	// Both series start at the same point: overlap marker on the top row.
	if !strings.Contains(out, "*") {
		t.Errorf("overlap marker missing:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 14 {
		t.Errorf("plot too short: %d lines", len(lines))
	}
	// Degenerate figures must not panic.
	empty := &Figure{ID: "e", XTicks: []string{"1"}, Series: []Series{{Name: "z", Values: []float64{0}}}}
	var sb2 strings.Builder
	empty.Plot(&sb2, 5)
	if !strings.Contains(sb2.String(), "nothing to draw") {
		t.Error("degenerate plot not handled")
	}
}

// quickAll is every Quick figure, computed by one All call the package's
// tests share: the sweeps dominate the package's run time, so none is
// computed twice.
var quickAll = sync.OnceValue(func() []*Figure { return All(model.Edison(), Quick) })

var update = flag.Bool("update", false, "rewrite testdata/quick_figures.golden")

// TestQuickFiguresGolden pins every Quick figure as `picbench -fig all
// -quick` renders it, so a change to the model or a sweep fails with a diff
// instead of passing the shape tests unnoticed. It renders the figures the
// package's tests compute anyway (quickAll) and is skipped under -short,
// which skips the sweeps. Regenerate with
// `go test ./internal/sweep -run TestQuickFiguresGolden -update` and say in
// the change why the figures moved.
func TestQuickFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the Quick sweeps are skipped under -short")
	}
	var got bytes.Buffer
	for _, f := range quickAll() {
		f.Render(&got)
	}
	path := filepath.Join("testdata", "quick_figures.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < max(len(gl), len(wl)) && shown < 20; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n-%s\n+%s", i+1, w, g)
			shown++
		}
	}
	t.Error("the Quick figures moved from testdata/quick_figures.golden (-update rewrites it)")
}

// quickFigure returns the Quick figure with the given ID from quickAll.
// Under -short, which skips the expensive sweeps, it computes just this
// figure with fig instead, so a short run pays only for the figures it
// checks.
func quickFigure(t *testing.T, id string, fig func(model.Machine, Scale) *Figure) *Figure {
	t.Helper()
	if testing.Short() {
		return fig(model.Edison(), Quick)
	}
	for _, f := range quickAll() {
		if f.ID == id {
			return f
		}
	}
	t.Fatalf("All returned no %s", id)
	return nil
}

func TestFig5QuickShapes(t *testing.T) {
	fig := quickFigure(t, "fig5", Fig5)
	if len(fig.Series) != 2 || len(fig.Series[0].Values) != 7 || len(fig.Series[1].Values) != 7 {
		t.Fatalf("fig5 structure wrong: %+v", fig)
	}
	f := fig.Series[0].Values
	// The F-sweep must show the paper's shape: very frequent LB is much
	// slower than the best setting.
	best := f[0]
	for _, v := range f {
		if v < best {
			best = v
		}
	}
	if f[0] < 1.5*best {
		t.Errorf("F=20 (%v) should be >=1.5x the best F (%v)", f[0], best)
	}
	// The d-sweep must show over-decomposition helping then hurting:
	// d=1 is worse than the best d.
	d := fig.Series[1].Values
	bestD := d[0]
	for _, v := range d {
		if v < bestD {
			bestD = v
		}
	}
	if d[0] <= bestD {
		t.Errorf("d=1 (%v) should be worse than the best d (%v)", d[0], bestD)
	}
	if len(fig.Notes) != 2 {
		t.Errorf("fig5 notes: %v", fig.Notes)
	}
}

func TestFig6LeftQuickShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning sweep")
	}
	fig := quickFigure(t, "fig6-left", Fig6Left)
	if len(fig.Series) != 3 {
		t.Fatalf("want 3 series")
	}
	base := fig.Series[0].Values
	diff := fig.Series[1].Values
	am := fig.Series[2].Values
	last := len(base) - 1
	// At the highest core count both balanced implementations beat the
	// baseline (paper §V-B).
	if diff[last] >= base[last] || am[last] >= base[last] {
		t.Errorf("at max cores: base %v diff %v ampi %v — balanced versions should win",
			base[last], diff[last], am[last])
	}
	// Times decrease with cores for every implementation (strong scaling).
	for i := 1; i < len(base); i++ {
		if base[i] >= base[i-1] {
			t.Errorf("baseline not scaling: %v", base)
			break
		}
	}
}

func TestFig7QuickShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning sweep")
	}
	fig := quickFigure(t, "fig7", Fig7)
	base := fig.Series[0].Values
	diff := fig.Series[1].Values
	am := fig.Series[2].Values
	last := len(base) - 1
	if diff[last] >= base[last] || am[last] >= base[last] {
		t.Errorf("weak scaling at max cores: base %v diff %v ampi %v — balanced versions should win",
			base[last], diff[last], am[last])
	}
}

func TestAllReturnsEveryFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sweep")
	}
	ids := map[string]bool{}
	for _, f := range quickAll() {
		ids[f.ID] = true
	}
	for _, want := range []string{"fig5", "fig6-left", "fig6-right", "fig7", "fig-ws"} {
		if !ids[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestFigWorkStealQuickShapes(t *testing.T) {
	fig := quickFigure(t, "fig-ws", FigWorkSteal)
	if len(fig.Series) != 3 {
		t.Fatalf("want 3 strategy series, got %d", len(fig.Series))
	}
	greedy := fig.Series[0].Values
	ws := fig.Series[2].Values
	if len(greedy) != 4 || len(ws) != 4 {
		t.Fatalf("want 4 F points per series: %+v", fig.Series)
	}
	for _, s := range fig.Series {
		for i, v := range s.Values {
			if v <= 0 {
				t.Errorf("%s F-point %d is %v", s.Name, i, v)
			}
		}
	}
	// At the most frequent interval, bounded-volume stealing must beat the
	// full greedy reshuffle — the point of the strategy.
	if ws[0] >= greedy[0] {
		t.Errorf("at F=%s WorkStealLB (%v) should beat GreedyLB (%v)", fig.XTicks[0], ws[0], greedy[0])
	}
	if len(fig.Notes) != 2 {
		t.Errorf("fig-ws notes: %v", fig.Notes)
	}
}
