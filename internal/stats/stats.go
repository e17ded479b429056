// Package stats provides the load-imbalance and timing metrics used to
// evaluate the PIC PRK runs: per-rank load summaries, imbalance ratios, and
// simple series statistics for the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a set of per-rank loads.
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	StdDev   float64
	// Imbalance is max/mean, the canonical load-imbalance factor: 1.0 is
	// perfect balance; the paper's §V-B quotes max particles per core
	// against the ideal (mean) count, which is exactly this ratio.
	Imbalance float64
	// Gini is the Gini coefficient of the load distribution in [0, 1).
	Gini float64
}

// Summarize computes a Summary of the given loads. Empty input returns the
// zero Summary.
func Summarize(loads []float64) Summary {
	if len(loads) == 0 {
		return Summary{}
	}
	s := Summary{N: len(loads), Min: loads[0], Max: loads[0]}
	var sum float64
	for _, l := range loads {
		sum += l
		if l < s.Min {
			s.Min = l
		}
		if l > s.Max {
			s.Max = l
		}
	}
	s.Mean = sum / float64(len(loads))
	var ss float64
	for _, l := range loads {
		d := l - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(loads)))
	if s.Mean > 0 {
		s.Imbalance = s.Max / s.Mean
	} else if s.Max == 0 {
		s.Imbalance = 1
	}
	s.Gini = gini(loads)
	return s
}

func gini(loads []float64) float64 {
	n := len(loads)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), loads...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, l := range sorted {
		cum += float64(i+1) * l
		total += l
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - float64(n+1)/float64(n)
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.0f max=%.0f mean=%.1f imb=%.3f gini=%.3f",
		s.N, s.Min, s.Max, s.Mean, s.Imbalance, s.Gini)
}

// Ints converts integer loads for Summarize.
func Ints[T ~int | ~int32 | ~int64](v []T) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}
