package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before the benchmark reports it: a tail percentile resting on fewer
// samples moves with single outliers and cannot carry a regression bound.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// value at 1-based rank ⌈q·n⌉ of the sorted samples. It refuses a
// percentile with fewer than minBeyond samples ranked above it, except the
// median, which any non-empty sample supports.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, n-rank, n)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// median is the middle of xs, the mean of the two middle values for an
// even count; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, 0.5)
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how run-to-run spreads of this benchmark are judged. Fewer than
// two samples give the single value for both.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
