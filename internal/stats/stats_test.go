package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{10, 20, 30, 40})
	if s.N != 4 || s.Min != 10 || s.Max != 40 || s.Mean != 25 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Imbalance-1.6) > 1e-12 {
		t.Errorf("imbalance %v, want 1.6", s.Imbalance)
	}
	wantSD := math.Sqrt((225 + 25 + 25 + 225) / 4.0)
	if math.Abs(s.StdDev-wantSD) > 1e-12 {
		t.Errorf("stddev %v, want %v", s.StdDev, wantSD)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary %+v", s)
	}
	s := Summarize([]float64{0, 0, 0})
	if s.Imbalance != 1 || s.Gini != 0 {
		t.Errorf("all-zero summary %+v", s)
	}
	one := Summarize([]float64{7})
	if one.Imbalance != 1 || one.StdDev != 0 {
		t.Errorf("single summary %+v", one)
	}
}

func TestGiniExtremes(t *testing.T) {
	eq := Summarize([]float64{5, 5, 5, 5})
	if math.Abs(eq.Gini) > 1e-12 {
		t.Errorf("equal loads gini %v", eq.Gini)
	}
	// All load on one of many ranks approaches gini -> 1.
	skew := make([]float64, 100)
	skew[0] = 1000
	g := Summarize(skew).Gini
	if g < 0.95 {
		t.Errorf("maximal skew gini %v", g)
	}
}

func TestGiniInvariantToScale(t *testing.T) {
	f := func(raw []uint16, mul uint8) bool {
		if len(raw) < 2 {
			return true
		}
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		k := float64(mul%9) + 1
		var total float64
		for i, r := range raw {
			a[i] = float64(r)
			b[i] = float64(r) * k
			total += a[i]
		}
		if total == 0 {
			return true
		}
		ga, gb := Summarize(a).Gini, Summarize(b).Gini
		return math.Abs(ga-gb) < 1e-9 && ga >= -1e-12 && ga < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImbalanceAtLeastOne(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			v[i] = float64(r)
			total += v[i]
		}
		if total == 0 {
			return true
		}
		return Summarize(v).Imbalance >= 1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInts(t *testing.T) {
	got := Ints([]int64{1, 2, 3})
	if len(got) != 3 || got[2] != 3 {
		t.Errorf("Ints = %v", got)
	}
}

func TestSummaryString(t *testing.T) {
	if s := Summarize([]float64{1, 2}).String(); s == "" {
		t.Error("empty string")
	}
}
