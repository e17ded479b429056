package telemetry

import "testing"

// TestCounterTableLayout pins the two orderings the sinks rely on: every
// span row precedes every other row, so Chrome lays a sample's spans end to
// end before its tracks, and rows sharing a Prometheus family are adjacent,
// so WritePrometheus renders each family once. A row added out of place
// would otherwise show only as a golden diff.
func TestCounterTableLayout(t *testing.T) {
	seen := map[string]bool{}
	for c := range NumCounters {
		d := counterTable[c]
		if d.name == "" || d.family == "" || d.help == "" {
			t.Errorf("row %d is incomplete: %+v", c, d)
		}
		if c > 0 && d.kind == KindSpan && counterTable[c-1].kind != KindSpan {
			t.Errorf("span row %s follows non-span row %s", c, c-1)
		}
		if c > 0 && counterTable[c-1].family == d.family {
			continue
		}
		if seen[d.family] {
			t.Errorf("row %s reopens family %s: rows sharing a family must be adjacent", c, d.family)
		}
		seen[d.family] = true
	}
}
