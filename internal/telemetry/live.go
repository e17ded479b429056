package telemetry

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/parres/picprk/internal/stats"
)

// Live is the lock-free aggregate behind the /metrics endpoint: each rank
// stores its latest per-step observations into its own atomic slots while
// the HTTP handler reads them all. Observe is allocation-free and a no-op
// on a nil receiver, so it can sit unconditionally on the sampling path.
type Live struct {
	ranks int
	step  atomic.Int64
	// slots holds every rank's accumulated counter-table rows, laid out
	// rank-major: rank r's row is slots[r*NumCounters:(r+1)*NumCounters].
	slots []atomic.Int64

	// Epoch lifecycle counters (checkpointed runs only; stay zero otherwise).
	commits   atomic.Int64
	rollbacks atomic.Int64
	readmits  atomic.Int64

	// stream fans observed samples out to /events subscribers; Publish is a
	// single atomic load when nobody is listening, so Observe stays
	// allocation-free on the sampling path.
	stream Stream

	// mu guards the scrape-time extras: run identity for /healthz and the
	// wire-transport stat source rendered by WritePrometheus.
	mu         sync.Mutex
	info       RunInfo
	wireSource func() WireReport
}

// RunInfo identifies the run behind a Live aggregate, served by /healthz.
type RunInfo struct {
	// Impl is the driver label ("serial", "diffusion", ...).
	Impl string `json:"impl,omitempty"`
	// Transport names the comm substrate ("inproc", "tcp", "unix").
	Transport string `json:"transport,omitempty"`
	// World is the world rank count; LocalRanks how many of them this
	// process hosts (equal in-process, a subset in multi-process runs).
	World      int `json:"world,omitempty"`
	LocalRanks int `json:"local_ranks,omitempty"`
}

// NewLive returns a Live aggregate for the given rank count.
func NewLive(ranks int) *Live {
	if ranks < 1 {
		ranks = 1
	}
	return &Live{ranks: ranks, slots: make([]atomic.Int64, ranks*int(NumCounters))}
}

func (l *Live) counter(rank int, c Counter) *atomic.Int64 {
	return &l.slots[rank*int(NumCounters)+int(c)]
}

// Observe folds one per-step sample into the aggregate. Samples carry
// per-step deltas, so spans and counters accumulate, while gauges (the
// particle count) and the step keep their latest value.
func (l *Live) Observe(s Sample) {
	if l == nil || s.Rank < 0 || s.Rank >= l.ranks {
		return
	}
	l.step.Store(int64(s.Step))
	for c := range NumCounters {
		if c.Kind() == KindGauge {
			l.counter(s.Rank, c).Store(s.Counters[c])
		} else {
			l.counter(s.Rank, c).Add(s.Counters[c])
		}
	}
	l.stream.Publish(s)
}

// ObserveEvent folds one epoch lifecycle event into the recovery counters.
// Events are not published on the sample stream — followers see samples
// only; scrapes see the counters.
func (l *Live) ObserveEvent(e Event) {
	if l == nil {
		return
	}
	switch e.Kind {
	case EventCommit:
		l.commits.Add(1)
	case EventRollback:
		l.rollbacks.Add(1)
	case EventReadmit:
		l.readmits.Add(1)
	}
}

// Stream returns the live sample stream (/events subscribes to it); nil on
// a nil aggregate, which Subscribe and Publish tolerate.
func (l *Live) Stream() *Stream {
	if l == nil {
		return nil
	}
	return &l.stream
}

// Step returns the most recently observed simulation step.
func (l *Live) Step() int64 {
	if l == nil {
		return 0
	}
	return l.step.Load()
}

// SetRunInfo records the run identity served by /healthz.
func (l *Live) SetRunInfo(ri RunInfo) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.info = ri
	l.mu.Unlock()
}

// Info returns the recorded run identity.
func (l *Live) Info() RunInfo {
	if l == nil {
		return RunInfo{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.info
}

// SetWireSource sets the callback WritePrometheus snapshots the wire stats
// from, replacing any earlier one. Safe to call while scrapes run.
func (l *Live) SetWireSource(fn func() WireReport) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.wireSource = fn
	l.mu.Unlock()
}

// WritePrometheus renders the aggregate in the Prometheus text exposition
// format.
func (l *Live) WritePrometheus(w io.Writer) {
	if l == nil {
		return
	}
	fmt.Fprintf(w, "# HELP picprk_step Current simulation step.\n# TYPE picprk_step gauge\npicprk_step %d\n", l.step.Load())

	// Rows sharing a family render as one family, rank-major; a span row
	// carries its phase as a label.
	for lo := Counter(0); lo < NumCounters; {
		d := &counterTable[lo]
		hi := lo + 1
		for hi < NumCounters && counterTable[hi].family == d.family {
			hi++
		}
		typ := "counter"
		if d.kind == KindGauge {
			typ = "gauge"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", d.family, d.help, d.family, typ)
		for rank := 0; rank < l.ranks; rank++ {
			for c := lo; c < hi; c++ {
				v := l.counter(rank, c).Load()
				switch counterTable[c].kind {
				case KindSpan:
					fmt.Fprintf(w, "%s{rank=\"%d\",phase=\"%s\"} %g\n", d.family, rank, c, float64(v)/1e9)
				default:
					fmt.Fprintf(w, "%s{rank=\"%d\"} %d\n", d.family, rank, v)
				}
			}
		}
		lo = hi
	}

	loads := make([]float64, l.ranks)
	for rank := range loads {
		loads[rank] = float64(l.counter(rank, Particles).Load())
	}
	sum := stats.Summarize(loads)
	fmt.Fprintf(w, "# HELP picprk_imbalance_ratio Max over mean particle load (1.0 = perfect balance).\n# TYPE picprk_imbalance_ratio gauge\npicprk_imbalance_ratio %g\n", sum.Imbalance)

	fmt.Fprintf(w, "# HELP picprk_epoch_commits_total Epoch checkpoints committed (all shards gathered to rank 0).\n# TYPE picprk_epoch_commits_total counter\npicprk_epoch_commits_total %d\n", l.commits.Load())
	fmt.Fprintf(w, "# HELP picprk_rollbacks_total Rollbacks to the last committed epoch after a rank loss.\n# TYPE picprk_rollbacks_total counter\npicprk_rollbacks_total %d\n", l.rollbacks.Load())
	fmt.Fprintf(w, "# HELP picprk_readmits_total Replacement workers re-admitted into vacated ranks.\n# TYPE picprk_readmits_total counter\npicprk_readmits_total %d\n", l.readmits.Load())

	l.writeWirePrometheus(w)
}

// wireFamilies lists the per-peer wire families in exposition order, each
// rendered with one sample per peer row of the report.
var wireFamilies = []struct {
	name, typ, help string
	value           func(*PeerWire) int64 // nil for the latency histogram
}{
	{"picprk_wire_frames_sent_total", "counter", "Frames enqueued on the writer toward each peer node.", func(p *PeerWire) int64 { return p.FramesSent }},
	{"picprk_wire_frames_received_total", "counter", "Frames read from each peer node.", func(p *PeerWire) int64 { return p.FramesRecv }},
	{"picprk_wire_writes_total", "counter", "Vectored writes issued toward each peer node (frames_sent/writes = coalescing factor).", func(p *PeerWire) int64 { return p.Writes }},
	{"picprk_wire_send_queue_depth", "gauge", "Writer-queue frames currently pending toward each peer node.", func(p *PeerWire) int64 { return p.QueueDepth }},
	{"picprk_wire_send_queue_peak", "gauge", "High-water mark of the writer queue toward each peer node.", func(p *PeerWire) int64 { return p.QueuePeak }},
	{"picprk_wire_latency_seconds", "histogram", "One-way data-frame latency from each peer node (send stamp vs offset-corrected receive; includes the sender's queue wait).", nil},
}

// writeWirePrometheus renders the wire-transport stats (clock offsets, then
// the per-peer families) when a wire source is set; in-process runs emit
// nothing here. A peer with no latency observations has no histogram.
func (l *Live) writeWirePrometheus(w io.Writer) {
	l.mu.Lock()
	source := l.wireSource
	l.mu.Unlock()
	if source == nil {
		return
	}
	rep := source()
	if len(rep.Peers) == 0 && len(rep.Offsets) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP picprk_wire_clock_offset_seconds Estimated offset of node 0's clock minus this node's (NTP-style min-RTT sample).\n# TYPE picprk_wire_clock_offset_seconds gauge\n")
	nodes := make([]int, 0, len(rep.Offsets))
	for node := range rep.Offsets {
		nodes = append(nodes, node)
	}
	slices.Sort(nodes)
	for _, node := range nodes {
		fmt.Fprintf(w, "picprk_wire_clock_offset_seconds{node=\"%d\"} %g\n", node, float64(rep.Offsets[node])/1e9)
	}
	for _, f := range wireFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for i := range rep.Peers {
			p := &rep.Peers[i]
			labels := fmt.Sprintf("node=\"%d\",peer=\"%d\"", p.Node, p.Peer)
			if f.value != nil {
				fmt.Fprintf(w, "%s{%s} %d\n", f.name, labels, f.value(p))
				continue
			}
			if p.OneWay.Count() == 0 {
				continue
			}
			var cum int64
			for b := 0; b < LatencyBuckets; b++ {
				cum += p.OneWay.Counts[b]
				le := "+Inf"
				if up := LatencyBucketUpperNS(b); up >= 0 {
					le = fmt.Sprintf("%g", float64(up)/1e9)
				}
				fmt.Fprintf(w, "%s_bucket{%s,le=\"%s\"} %d\n", f.name, labels, le, cum)
			}
			fmt.Fprintf(w, "%s_sum{%s} %g\n", f.name, labels, float64(p.OneWay.SumNS)/1e9)
			fmt.Fprintf(w, "%s_count{%s} %d\n", f.name, labels, p.OneWay.Count())
		}
	}
}
