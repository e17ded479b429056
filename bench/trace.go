package main

import (
	"encoding/json"
	"os"
	"path/filepath"

	"github.com/parres/picprk/internal/balance"
	"github.com/parres/picprk/internal/comm"
	"github.com/parres/picprk/internal/driver"
	"github.com/parres/picprk/internal/particle"
	"github.com/parres/picprk/internal/trace"
)

// Span names: one per call the engine makes into a layer. The traced run
// records them from outside, around the Substrate and Balancer interfaces;
// spans inside the program are a later change.
const (
	spanNewSubstrate   = "driver.new_substrate"
	spanMoveExchange   = "driver.move_exchange"
	spanRehomeExchange = "driver.rehome_exchange"
	spanMeasure        = "driver.measure"
	spanExecute        = "driver.execute"
	spanCheckOwnership = "driver.check_ownership"
	spanCheckpoint     = "driver.checkpoint"
	spanRestore        = "driver.restore"
	spanParticles      = "driver.particles"
	spanObserve        = "balance.observe"
	spanPlan           = "balance.plan"
	spanApply          = "balance.apply"
)

// span is one timed call. Times are stamps-clock nanoseconds. The nesting
// is run → step → call and is recovered from the times when the trace is
// written (a call is a child of the step whose [start, end] contains it,
// else of the run), so recording needs no stack.
type span struct {
	name       string
	step       int
	start, end int64
	// bytes is the size of the blob a checkpoint span produced.
	bytes int64
}

// lane is one rank's span buffer, preallocated and appended to only by that
// rank's goroutine — no shared lock on the step path.
type lane struct {
	st    *stamps
	step  int
	spans []span
	// firstLoads is the first observation this rank's balancer saw and
	// firstPlanStep the step it planned for; the balance.* microbenchmarks
	// replay them.
	firstLoads    *balance.Loads
	firstPlanStep int
}

func (ln *lane) add(name string, start int64) *span {
	ln.spans = append(ln.spans, span{name: name, step: ln.step, start: start, end: ln.st.now()})
	return &ln.spans[len(ln.spans)-1]
}

// tracer holds one traced run's lanes.
type tracer struct {
	st    *stamps
	lanes []*lane
	// handoff carries a rank from the Substrate factory wrapper to the
	// Balancer factory wrapper. Engine.Balancer takes no arguments, so a
	// balancer cannot otherwise learn its rank; the engine calls the two
	// factories back to back on the rank's goroutine (epochRunner.init), and
	// the one-slot channel keeps another rank from slipping in between.
	handoff chan int
}

// callsPerStep bounds the spans one step can record: move_exchange,
// measure, observe, plan, execute, apply, rehome_exchange, check_ownership,
// plus a checkpoint at a commit.
const callsPerStep = 9

func newTracer(st *stamps, steps int) *tracer {
	tr := &tracer{st: st, handoff: make(chan int, 1)}
	for r := 0; r < ranks; r++ {
		tr.lanes = append(tr.lanes, &lane{st: st, spans: make([]span, 0, callsPerStep*steps+8)})
	}
	return tr
}

// install wraps the engine's substrate and balancer factories with the span
// wrappers. stamps.install must follow so its StepHook chains to this one.
func (tr *tracer) install(eng *driver.Engine) {
	realSub, realBal := eng.Substrate, eng.Balancer
	eng.Substrate = func(c *comm.Comm, cfg driver.Config) (driver.Substrate, error) {
		ln := tr.lanes[c.Rank()]
		t := tr.st.now()
		sub, err := realSub(c, cfg)
		ln.add(spanNewSubstrate, t)
		if err != nil {
			return nil, err
		}
		tr.handoff <- c.Rank()
		return &spanSub{Substrate: sub, ln: ln}, nil
	}
	eng.Balancer = func() balance.Balancer { return wrapBalancer(realBal(), tr.lanes[<-tr.handoff]) }
	eng.StepHook = func(c *comm.Comm, step int) { tr.lanes[c.Rank()].step = step }
}

// spanSub times every Substrate method the engine calls on the step,
// commit and finalize paths. ApplyEvents takes an unexported type and is
// promoted untouched; the counters (Count, MigrationStats, ...) are reads.
type spanSub struct {
	driver.Substrate
	ln *lane
}

func (s *spanSub) MoveExchange(rec *trace.Recorder) error {
	t := s.ln.st.now()
	err := s.Substrate.MoveExchange(rec)
	s.ln.add(spanMoveExchange, t)
	return err
}

func (s *spanSub) Exchange(rec *trace.Recorder) error {
	t := s.ln.st.now()
	err := s.Substrate.Exchange(rec)
	s.ln.add(spanRehomeExchange, t)
	return err
}

func (s *spanSub) Measure(n balance.Needs) balance.Loads {
	t := s.ln.st.now()
	l := s.Substrate.Measure(n)
	s.ln.add(spanMeasure, t)
	return l
}

func (s *spanSub) Execute(p balance.Plan) (bool, error) {
	t := s.ln.st.now()
	rehome, err := s.Substrate.Execute(p)
	s.ln.add(spanExecute, t)
	return rehome, err
}

func (s *spanSub) CheckOwnership(step int) error {
	t := s.ln.st.now()
	err := s.Substrate.CheckOwnership(step)
	s.ln.add(spanCheckOwnership, t)
	return err
}

func (s *spanSub) Checkpoint() ([]byte, error) {
	t := s.ln.st.now()
	blob, err := s.Substrate.Checkpoint()
	s.ln.add(spanCheckpoint, t).bytes = int64(len(blob))
	return blob, err
}

func (s *spanSub) Restore(buf []byte) error {
	t := s.ln.st.now()
	err := s.Substrate.Restore(buf)
	s.ln.add(spanRestore, t)
	return err
}

func (s *spanSub) Particles() []particle.Particle {
	t := s.ln.st.now()
	ps := s.Substrate.Particles()
	s.ln.add(spanParticles, t)
	return ps
}

// spanBal times the three calls of the balancing cadence.
type spanBal struct {
	balance.Balancer
	ln *lane
}

func (b *spanBal) Observe(l balance.Loads) {
	if b.ln.firstLoads == nil {
		cp := l
		cp.Cells = append([]int64(nil), l.Cells...)
		cp.Rows = append([]int64(nil), l.Rows...)
		cp.Units = append([]float64(nil), l.Units...)
		cp.Owner = append([]int(nil), l.Owner...)
		b.ln.firstLoads = &cp
	}
	t := b.ln.st.now()
	b.Balancer.Observe(l)
	b.ln.add(spanObserve, t)
}

func (b *spanBal) Plan(step int) balance.Plan {
	if b.ln.firstPlanStep == 0 {
		b.ln.firstPlanStep = step
	}
	t := b.ln.st.now()
	p := b.Balancer.Plan(step)
	b.ln.add(spanPlan, t)
	return p
}

func (b *spanBal) Apply(p balance.Plan) {
	t := b.ln.st.now()
	b.Balancer.Apply(p)
	b.ln.add(spanApply, t)
}

// spanBalRestorer is spanBal for a policy that also implements
// balance.HistoryRestorer: the engine's restore path type-asserts for it,
// so the wrapper must not hide it.
type spanBalRestorer struct {
	spanBal
	balance.HistoryRestorer
}

func wrapBalancer(real balance.Balancer, ln *lane) balance.Balancer {
	b := spanBal{Balancer: real, ln: ln}
	if hr, ok := real.(balance.HistoryRestorer); ok {
		return &spanBalRestorer{spanBal: b, HistoryRestorer: hr}
	}
	return &b
}

// total returns the summed duration and the number of name spans over all
// ranks, in seconds.
func (tr *tracer) total(name string) (sum float64, n int) {
	for _, ln := range tr.lanes {
		for i := range ln.spans {
			if sp := &ln.spans[i]; sp.name == name {
				sum += seconds(sp.end - sp.start)
				n++
			}
		}
	}
	return sum, n
}

// treeSpan is a span placed in the run → step → call tree.
type treeSpan struct {
	span
	rank   int
	parent int // index into the tree slice, -1 for a run span
}

// tree builds the nesting for every rank: one run span, one step span per
// step (from the stamps), and each recorded call under the step whose
// interval contains its start, or under the run when no step does (the
// factory call, a commit's checkpoint, Particles at finalize).
func (tr *tracer) tree() []treeSpan {
	var out []treeSpan
	for r, ln := range tr.lanes {
		run := len(out)
		out = append(out, treeSpan{span: span{name: "run", start: tr.st.called, end: tr.st.returned}, rank: r, parent: -1})
		steps := len(tr.st.start[r]) - 1
		stepAt := make([]int, steps+1)
		for s := 1; s <= steps; s++ {
			stepAt[s] = len(out)
			out = append(out, treeSpan{span: span{name: "step", step: s, start: tr.st.start[r][s], end: tr.st.end[r][s]}, rank: r, parent: run})
		}
		for _, sp := range ln.spans {
			parent := run
			if s := sp.step; s >= 1 && sp.start >= tr.st.start[r][s] && sp.start <= tr.st.end[r][s] {
				parent = stepAt[s]
			}
			out = append(out, treeSpan{span: sp, rank: r, parent: parent})
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part its children
// cover. Children of one parent never overlap here (a rank makes one call
// at a time), so that part is the sum of their durations.
func selfTimes(spans []treeSpan) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].end - spans[i].start
	}
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			self[p] -= spans[i].end - spans[i].start
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the traced run to path in Chrome trace-event format:
// one thread per rank, ids and parents in args so the tree survives tools
// that only nest by time.
func (tr *tracer) writeChrome(path string) error {
	spans := tr.tree()
	self := selfTimes(spans)
	events := make([]chromeEvent, len(spans))
	for i, sp := range spans {
		args := map[string]any{"id": i, "parent": sp.parent, "self_us": float64(self[i]) / 1e3}
		if sp.step > 0 {
			args["step"] = sp.step
		}
		if sp.bytes > 0 {
			args["bytes"] = sp.bytes
		}
		events[i] = chromeEvent{
			Name: sp.name, Ph: "X", Pid: 1, Tid: sp.rank,
			Ts: float64(sp.start) / 1e3, Dur: float64(sp.end-sp.start) / 1e3, Args: args,
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
