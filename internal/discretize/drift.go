package discretize

import (
	"math"
	"sort"
)

// KSDrift returns the two-sample Kolmogorov–Smirnov statistic between two
// samples of a continuous attribute: the maximum absolute difference of
// their empirical CDFs, in [0, 1]. NaNs (missing values) are ignored. The
// server has no caller: every epoch is discretized on its own rows. It is
// kept for the benchmark's probe, which records how far appended batches
// drift from the rows before them.
//
// Degenerate samples — either side empty after dropping NaNs — report zero
// drift: a batch contributing no observations of an attribute cannot move
// its quantiles.
func KSDrift(a, b []float64) float64 {
	sa := sortedNonNaN(a)
	sb := sortedNonNaN(b)
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	var d float64
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		// Advance past ties on the smaller value so both CDFs are evaluated
		// just after the common jump point.
		v := sa[i]
		if sb[j] < v {
			v = sb[j]
		}
		for i < len(sa) && sa[i] == v {
			i++
		}
		for j < len(sb) && sb[j] == v {
			j++
		}
		diff := math.Abs(float64(i)/float64(len(sa)) - float64(j)/float64(len(sb)))
		if diff > d {
			d = diff
		}
	}
	return d
}

func sortedNonNaN(vals []float64) []float64 {
	s := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	sort.Float64s(s)
	return s
}
