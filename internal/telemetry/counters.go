package telemetry

// Counter names one row of the per-step record a Sample carries: the four
// phase spans, then the counts, gauges and durations beside them. The table
// below is the one place a row is described: the timeline files, the wire
// codec, the live aggregate, Prometheus, the Chrome trace and picstat all
// walk it, so adding a span or a counter is one row here plus the line in
// the engine that produces it — not a schema bump.
type Counter int

// The rows, in table order, which is also the order Prometheus renders them
// in and Chrome lays the spans out in. Every span row precedes every other
// row, and rows sharing a Prometheus family are adjacent
// (TestCounterTableLayout).
const (
	// Compute is the time spent moving particles: the fused move and
	// classify pass and the scatter of leavers into outgoing shards.
	Compute Counter = iota
	// Exchange is the time spent posting and completing particle exchanges,
	// the rehome exchange after a decomposition change included.
	Exchange
	// Balance is the decision side of load balancing: load reductions and
	// plan computation.
	Balance
	// Migrate is the data side of load balancing: executing a plan by moving
	// mesh columns/rows or PUP-serialized VPs between ranks.
	Migrate
	// Particles is the local particle count at the end of the step.
	Particles
	// Migrations is the number of LB data movements this step.
	Migrations
	// MigratedBytes is the LB payload bytes this rank sent this step.
	MigratedBytes
	// ExchangeBytes is the particle-exchange payload bytes this rank sent
	// this step, in the columnar path's framed wire size
	// (core.SoA.FramedBytes) on every transport.
	ExchangeBytes
	// MsgsSent is the number of exchange messages this rank posted this
	// step; MsgsElided the number the sparse neighbor schedule skipped
	// relative to the full P-1 ring (nil sends never posted). Their sum per
	// exchange call is always P-1, so elided/(sent+elided) is the fraction of
	// the all-to-all the topology made unnecessary.
	MsgsSent
	MsgsElided
	// NumCounters sizes per-row arrays.
	NumCounters
)

// Kind says how a counter's per-step value relates to the quantity it
// observes, and how sinks accumulate and render it.
type Kind int

const (
	// KindCount is a per-step delta of a cumulative count.
	KindCount Kind = iota
	// KindGauge is a level read at the end of the step; aggregates keep the
	// latest value instead of a sum.
	KindGauge
	// KindSpan is a per-step delta of cumulative nanoseconds spent in one
	// phase. A step's spans tile its wall time: they are laid end to end in
	// the Chrome trace, and their sum is the step's time on a rank.
	KindSpan
)

// counterDesc is one row of the table: the name the timeline keys the row
// by (also its Chrome span or track, and a span's phase label), its kind,
// and its Prometheus family.
type counterDesc struct {
	name   string
	kind   Kind
	family string
	help   string
}

var counterTable = [NumCounters]counterDesc{
	Compute:       {"compute", KindSpan, "picprk_phase_seconds_total", "Time spent per rank per phase."},
	Exchange:      {"exchange", KindSpan, "picprk_phase_seconds_total", "Time spent per rank per phase."},
	Balance:       {"balance", KindSpan, "picprk_phase_seconds_total", "Time spent per rank per phase."},
	Migrate:       {"migrate", KindSpan, "picprk_phase_seconds_total", "Time spent per rank per phase."},
	Particles:     {"particles", KindGauge, "picprk_particles", "Local particle count per rank."},
	Migrations:    {"migrations", KindCount, "picprk_migrations_total", "LB data movements per rank."},
	MigratedBytes: {"migrated_bytes", KindCount, "picprk_migrated_bytes_total", "LB payload bytes sent per rank."},
	ExchangeBytes: {"exchange_bytes", KindCount, "picprk_exchange_bytes_total", "Particle-exchange payload bytes sent per rank (framed columnar wire size)."},
	MsgsSent:      {"msgs_sent", KindCount, "picprk_exchange_messages_total", "Exchange messages posted per rank (sparse neighbor schedule)."},
	MsgsElided:    {"msgs_elided", KindCount, "picprk_exchange_messages_elided_total", "Exchange messages the sparse neighbor schedule skipped per rank, relative to the full P-1 ring."},
}

// String returns the counter's table name, the key it travels under in a
// timeline file.
func (c Counter) String() string { return counterTable[c].name }

// Kind returns the counter's kind.
func (c Counter) Kind() Kind { return counterTable[c].kind }

// counterByName returns the counter with the given table name.
func counterByName(name string) (Counter, bool) {
	for c := range NumCounters {
		if counterTable[c].name == name {
			return c, true
		}
	}
	return 0, false
}
