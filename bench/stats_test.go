package main

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.01, 1}, {0.505, 51}} {
		got, err := percentile(xs, tc.q)
		if err != nil || got != tc.want {
			t.Errorf("p%g of 1..100 = %v, %v; want %v (rank ⌈qn⌉)", tc.q*100, got, err, tc.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want bool // reported
	}{
		{100, 0.9, true}, // rank 90, 10 beyond
		{99, 0.9, false}, // rank 90, 9 beyond
		{100, 0.95, false},
		{200, 0.95, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{3, 0.5, true}, // the median needs no tail
	} {
		_, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.want {
			t.Errorf("p%g of %d samples: err = %v, want reported = %v", tc.q*100, tc.n, err, tc.want)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("median of no samples was reported")
	}
}

// TestRateCountsOnlyRoundTime checks that a rate over several rounds
// divides the successful operations by the rounds' own spans: the time
// between rounds, spent restarting the daemon, is not measured time.
func TestRateCountsOnlyRoundTime(t *testing.T) {
	t0 := time.Unix(1_000, 0)
	round := func(start time.Time, n int, each time.Duration, failed int) []sample {
		var ss []sample
		for i := 0; i < n; i++ {
			s := sample{start: start.Add(time.Duration(i) * each), end: start.Add(time.Duration(i+1) * each)}
			if i < failed {
				s.err = errors.New("refused")
			}
			ss = append(ss, s)
		}
		return ss
	}
	a := round(t0, 10, 100*time.Millisecond, 0)                    // 10 ok in 1 s
	b := round(t0.Add(10*time.Second), 6, 250*time.Millisecond, 1) // 5 ok in 1.5 s
	if got := rate(a, b); math.Abs(got-15/2.5) > 1e-9 {
		t.Errorf("rate over two rounds = %v, want 15 ok / 2.5 s = 6", got)
	}
	if got := rate(a); math.Abs(got-10) > 1e-9 {
		t.Errorf("rate of one round = %v, want 10", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3.5, 1.25, 9, 4, 4.5}, 2.375, 6.75},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
}
