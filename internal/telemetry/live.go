package telemetry

import (
	"fmt"
	"io"
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
	// wire-transport stat sources rendered by WritePrometheus.
	mu          sync.Mutex
	info        RunInfo
	wireSources []func() WireReport
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

// AddWireSource registers a callback that snapshots wire-transport stats
// (typically a wire.Node's WireReport method); WritePrometheus merges every
// source at scrape time. Safe to call while scrapes run.
func (l *Live) AddWireSource(fn func() WireReport) {
	if l == nil || fn == nil {
		return
	}
	l.mu.Lock()
	l.wireSources = append(l.wireSources, fn)
	l.mu.Unlock()
}

// wireReport merges every registered source's snapshot.
func (l *Live) wireReport() WireReport {
	l.mu.Lock()
	sources := l.wireSources
	l.mu.Unlock()
	rep := WireReport{Offsets: map[int]int64{}}
	for _, fn := range sources {
		rep.Merge(fn())
	}
	return rep
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

// writeWirePrometheus renders the wire-transport stats (frame counters,
// writer-queue gauges, one-way latency histograms, clock offsets) when any
// wire source is registered; in-process runs emit nothing here.
func (l *Live) writeWirePrometheus(w io.Writer) {
	rep := l.wireReport()
	if len(rep.Peers) == 0 && len(rep.Offsets) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP picprk_wire_clock_offset_seconds Estimated offset of node 0's clock minus this node's (NTP-style min-RTT sample).\n# TYPE picprk_wire_clock_offset_seconds gauge\n")
	for _, node := range intKeysSorted(rep.Offsets) {
		fmt.Fprintf(w, "picprk_wire_clock_offset_seconds{node=\"%d\"} %g\n", node, float64(rep.Offsets[node])/1e9)
	}
	fmt.Fprintf(w, "# HELP picprk_wire_frames_sent_total Frames enqueued on the writer toward each peer node.\n# TYPE picprk_wire_frames_sent_total counter\n")
	for i := range rep.Peers {
		p := &rep.Peers[i]
		fmt.Fprintf(w, "picprk_wire_frames_sent_total{node=\"%d\",peer=\"%d\"} %d\n", p.Node, p.Peer, p.FramesSent)
	}
	fmt.Fprintf(w, "# HELP picprk_wire_frames_received_total Frames read from each peer node.\n# TYPE picprk_wire_frames_received_total counter\n")
	for i := range rep.Peers {
		p := &rep.Peers[i]
		fmt.Fprintf(w, "picprk_wire_frames_received_total{node=\"%d\",peer=\"%d\"} %d\n", p.Node, p.Peer, p.FramesRecv)
	}
	fmt.Fprintf(w, "# HELP picprk_wire_writes_total Vectored writes issued toward each peer node (frames_sent/writes = coalescing factor).\n# TYPE picprk_wire_writes_total counter\n")
	for i := range rep.Peers {
		p := &rep.Peers[i]
		fmt.Fprintf(w, "picprk_wire_writes_total{node=\"%d\",peer=\"%d\"} %d\n", p.Node, p.Peer, p.Writes)
	}
	fmt.Fprintf(w, "# HELP picprk_wire_send_queue_depth Writer-queue frames currently pending toward each peer node.\n# TYPE picprk_wire_send_queue_depth gauge\n")
	for i := range rep.Peers {
		p := &rep.Peers[i]
		fmt.Fprintf(w, "picprk_wire_send_queue_depth{node=\"%d\",peer=\"%d\"} %d\n", p.Node, p.Peer, p.QueueDepth)
	}
	fmt.Fprintf(w, "# HELP picprk_wire_send_queue_peak High-water mark of the writer queue toward each peer node.\n# TYPE picprk_wire_send_queue_peak gauge\n")
	for i := range rep.Peers {
		p := &rep.Peers[i]
		fmt.Fprintf(w, "picprk_wire_send_queue_peak{node=\"%d\",peer=\"%d\"} %d\n", p.Node, p.Peer, p.QueuePeak)
	}
	fmt.Fprintf(w, "# HELP picprk_wire_latency_seconds One-way data-frame latency from each peer node (send stamp vs offset-corrected receive; includes the sender's queue wait).\n# TYPE picprk_wire_latency_seconds histogram\n")
	for i := range rep.Peers {
		p := &rep.Peers[i]
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
			fmt.Fprintf(w, "picprk_wire_latency_seconds_bucket{node=\"%d\",peer=\"%d\",le=\"%s\"} %d\n", p.Node, p.Peer, le, cum)
		}
		fmt.Fprintf(w, "picprk_wire_latency_seconds_sum{node=\"%d\",peer=\"%d\"} %g\n", p.Node, p.Peer, float64(p.OneWay.SumNS)/1e9)
		fmt.Fprintf(w, "picprk_wire_latency_seconds_count{node=\"%d\",peer=\"%d\"} %d\n", p.Node, p.Peer, p.OneWay.Count())
	}
}

// intKeysSorted yields a map's keys in ascending order (stable scrapes).
func intKeysSorted(m map[int]int64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
