package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBuckets pins the bucket semantics: values land in the
// first bucket whose inclusive upper bound admits them, overflow goes to
// +Inf, and the Prometheus rendering is cumulative with _sum and _count
// agreeing with the +Inf bucket.
func TestHistogramBuckets(t *testing.T) {
	tr := New()
	h := tr.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 99, 1000} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped

	rec := tr.Snapshot().Histograms["lat"]
	if want := []int64{2, 2, 1, 1}; len(rec.Counts) != 4 ||
		rec.Counts[0] != want[0] || rec.Counts[1] != want[1] ||
		rec.Counts[2] != want[2] || rec.Counts[3] != want[3] {
		t.Errorf("bin counts = %v, want %v", rec.Counts, want)
	}
	if rec.Count != 6 {
		t.Errorf("count = %d, want 6", rec.Count)
	}
	if want := 0.5 + 1 + 1.5 + 10 + 99 + 1000; rec.Sum != want {
		t.Errorf("sum = %g, want %g", rec.Sum, want)
	}
	if q := rec.Quantile(0.5); q != 10 {
		t.Errorf("p50 = %g, want 10 (upper-bound estimate)", q)
	}
	// A quantile landing in the +Inf overflow bucket clamps to the highest
	// finite bound so SLO math downstream stays finite.
	if q := rec.Quantile(1); q != 100 {
		t.Errorf("p100 = %g, want 100 (clamped to highest finite bound)", q)
	}

	var b strings.Builder
	if err := WriteExposition(&b, tr.Snapshot().Families(), false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="10"} 4`,
		`lat_bucket{le="100"} 5`,
		`lat_bucket{le="+Inf"} 6`,
		"lat_sum 1112",
		"lat_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramNilAndEdge(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram holds data")
	}
	var tr *Tracer
	if tr.Histogram("x", nil) != nil {
		t.Error("nil tracer returned non-nil histogram")
	}

	// Unsorted, duplicated, +Inf-containing bounds are normalized.
	h2 := newHistogram([]float64{10, 1, 10, math.Inf(+1), 5})
	if len(h2.bounds) != 3 || h2.bounds[0] != 1 || h2.bounds[1] != 5 || h2.bounds[2] != 10 {
		t.Errorf("normalized bounds = %v", h2.bounds)
	}

	// Quantile edge cases: all mass in the overflow bucket still clamps to
	// the highest finite bound; a record with no finite bounds at all (a
	// count/sum-only histogram) has no meaningful quantile and answers NaN.
	overflow := HistogramRecord{Bounds: []float64{1, 5}, Counts: []int64{0, 0, 7}, Count: 7}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := overflow.Quantile(q); got != 5 {
			t.Errorf("overflow-only Quantile(%g) = %g, want 5", q, got)
		}
	}
	unbounded := HistogramRecord{Counts: []int64{3}, Count: 3}
	if got := unbounded.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("boundless Quantile = %g, want NaN", got)
	}

	if got := ExpBuckets(1, 2, 4); len(got) != 4 || got[3] != 8 {
		t.Errorf("ExpBuckets = %v", got)
	}
	if ExpBuckets(0, 2, 4) != nil || ExpBuckets(1, 1, 4) != nil || ExpBuckets(1, 2, 0) != nil {
		t.Error("degenerate ExpBuckets should be nil")
	}
}

// TestHistogramSameInstance checks the registry contract: one histogram
// per name, later bounds ignored.
func TestHistogramSameInstance(t *testing.T) {
	tr := New()
	a := tr.Histogram("h", []float64{1, 2})
	b := tr.Histogram("h", []float64{99})
	if a != b {
		t.Fatal("Histogram must return the same instance per name")
	}
	if len(b.bounds) != 2 {
		t.Errorf("second call's bounds were not ignored: %v", b.bounds)
	}
}

// TestMetricsRaceStress hammers a counter, a max-gauge and a histogram
// from 8 goroutines × 10k ops each and asserts the exact final values;
// `make race` runs it under the race detector.
func TestMetricsRaceStress(t *testing.T) {
	const goroutines, ops = 8, 10000
	tr := New()
	c := tr.Counter("stress.counter")
	h := tr.Histogram("stress.hist", []float64{250, 500, 5000})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				c.Add(1)
				h.Observe(float64(i))
				tr.MaxGauge("stress.max", float64(g*ops+i))
				if i%1000 == 0 {
					tr.SetGauge("stress.last", float64(i))
				}
			}
		}(g)
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*ops {
		t.Errorf("counter = %d, want %d", got, goroutines*ops)
	}
	snap := tr.Snapshot()
	if got := snap.Gauges["stress.max"]; got != goroutines*ops-1 {
		t.Errorf("max gauge = %g, want %d", got, goroutines*ops-1)
	}
	rec := snap.Histograms["stress.hist"]
	if rec.Count != goroutines*ops {
		t.Errorf("histogram count = %d, want %d", rec.Count, goroutines*ops)
	}
	// Each goroutine observes 0..9999: 250 values ≤ 250 (0..249 plus 250
	// itself = 251), then up to 500, then up to 5000, rest overflow.
	want := []int64{251 * goroutines, 250 * goroutines, 4500 * goroutines, 4999 * goroutines}
	for i, w := range want {
		if rec.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d", i, rec.Counts[i], w)
		}
	}
	wantSum := float64(goroutines) * float64(ops-1) * float64(ops) / 2
	if rec.Sum != wantSum {
		t.Errorf("histogram sum = %g, want %g", rec.Sum, wantSum)
	}
}

// TestAbsorb checks the lifetime-tracer merge: counters add, gauges take
// the max, histograms with equal bounds merge bin-wise and mismatched
// bounds are left alone.
func TestAbsorb(t *testing.T) {
	life := New()
	life.Counter("c").Add(5)
	life.SetGauge("g", 10)
	life.Histogram("h", []float64{1, 2}).Observe(1.5)
	life.Histogram("mismatch", []float64{1, 2}).Observe(0.5)

	req := New()
	req.Counter("c").Add(7)
	req.Counter("new").Add(1)
	req.SetGauge("g", 3)
	req.SetGauge("g2", 8)
	req.Histogram("h", []float64{1, 2}).Observe(0.5)
	req.Histogram("mismatch", []float64{9}).Observe(0.5)
	sp := req.Start("span")
	sp.End()

	life.Absorb(req.Snapshot())
	snap := life.Snapshot()
	if snap.Counter("c") != 12 || snap.Counter("new") != 1 {
		t.Errorf("absorbed counters: %v", snap.Counters)
	}
	if snap.Gauges["g"] != 10 || snap.Gauges["g2"] != 8 {
		t.Errorf("absorbed gauges: %v", snap.Gauges)
	}
	if h := snap.Histograms["h"]; h.Count != 2 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("absorbed histogram: %+v", h)
	}
	if h := snap.Histograms["mismatch"]; h.Count != 1 {
		t.Errorf("mismatched-bounds histogram was merged: %+v", h)
	}
	if len(snap.Spans) != 0 {
		t.Errorf("Absorb copied %d spans; spans must not accumulate", len(snap.Spans))
	}

	life.Absorb(nil)            // no-op
	(*Tracer)(nil).Absorb(snap) // no-op
}
