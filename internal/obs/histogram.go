package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution of float64 observations:
// request latencies, batch sizes, support fractions. Buckets are chosen
// at construction (typically log-spaced via ExpBuckets) and never change,
// so Observe is lock-free — a binary search over the bounds plus two
// atomic adds — and safe for concurrent use from mining worker
// goroutines. A nil *Histogram ignores Observe, mirroring the package's
// nil-safe contract.
//
// The exported snapshot follows Prometheus histogram semantics: one
// cumulative count per upper bound plus an implicit +Inf bucket, a total
// observation count and a value sum, which WriteExposition renders as
// the `_bucket`/`_sum`/`_count` series.
type Histogram struct {
	bounds    []float64      // sorted upper bounds (inclusive), excluding +Inf
	bins      []atomic.Int64 // len(bounds)+1; the last bin is the +Inf overflow
	count     atomic.Int64
	sum       atomic.Uint64              // float64 bits, CAS-accumulated
	exemplars []atomic.Pointer[Exemplar] // per-bin latest exemplar, aligned with bins
}

// newHistogram builds a histogram over the given bucket upper bounds.
// Bounds are copied, sorted and deduplicated; an empty slice yields a
// single +Inf bucket (count/sum only).
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	uniq := bs[:0]
	for i, b := range bs {
		if math.IsInf(b, +1) || math.IsNaN(b) {
			continue
		}
		if i > 0 && len(uniq) > 0 && b == uniq[len(uniq)-1] {
			continue
		}
		uniq = append(uniq, b)
	}
	return &Histogram{
		bounds:    uniq,
		bins:      make([]atomic.Int64, len(uniq)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(uniq)+1),
	}
}

// Exemplar ties one histogram observation back to the request that
// produced it, in the OpenMetrics sense: a label value (the request ID),
// the observed value and the observation time. Each bucket retains its
// most recent exemplar.
type Exemplar struct {
	Label    string  `json:"request_id"`
	Value    float64 `json:"value"`
	UnixNano int64   `json:"unix_nano"`
}

// Observe records one value. Values above the largest bound land in the
// implicit +Inf bucket; NaN observations are dropped. No-op on nil.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "", 0) }

// ObserveExemplar records one value like Observe and additionally tags
// the bucket it lands in with an exemplar carrying the given label
// (typically a request ID). The bucket keeps only its latest exemplar;
// the OpenMetrics rendering of WriteExposition puts them on the
// `_bucket` lines. No-op on nil, on NaN, and (exemplar-wise) on an empty
// label.
func (h *Histogram) ObserveExemplar(v float64, label string, now int64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// First bound b with v <= b; len(bounds) means +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.bins[i].Add(1)
	h.count.Add(1)
	if label != "" && i < len(h.exemplars) {
		h.exemplars[i].Store(&Exemplar{Label: label, Value: v, UnixNano: now})
	}
	addFloat(&h.sum, v)
}

// addFloat adds v to the float64 whose bits u holds. The CAS loop makes
// concurrent adds lose no update.
func addFloat(u *atomic.Uint64, v float64) {
	for {
		old := u.Load()
		if u.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot captures the histogram as an immutable record. Bin reads are
// individually atomic but not mutually consistent under concurrent
// Observe; the record is repaired so Count is never below the bin total.
func (h *Histogram) snapshot() HistogramRecord {
	rec := HistogramRecord{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.bins)),
		Sum:    h.Sum(),
	}
	var total int64
	for i := range h.bins {
		c := h.bins[i].Load()
		rec.Counts[i] = c
		total += c
	}
	rec.Count = h.count.Load()
	if rec.Count < total {
		rec.Count = total
	}
	for i := range h.exemplars {
		if ex := h.exemplars[i].Load(); ex != nil {
			if rec.Exemplars == nil {
				rec.Exemplars = make([]*Exemplar, len(h.bins))
			}
			rec.Exemplars[i] = ex
		}
	}
	return rec
}

// add folds another record's bins into the histogram; bounds must match
// exactly (the caller checks). Used by Tracer.Absorb.
func (h *Histogram) add(rec HistogramRecord) {
	for i := range rec.Counts {
		if i < len(h.bins) {
			h.bins[i].Add(rec.Counts[i])
		}
	}
	for i, ex := range rec.Exemplars {
		if ex != nil && i < len(h.exemplars) {
			h.exemplars[i].Store(ex)
		}
	}
	h.count.Add(rec.Count)
	addFloat(&h.sum, rec.Sum)
}

// HistogramRecord is the immutable snapshot of one histogram: per-bucket
// (non-cumulative) counts aligned with Bounds plus the trailing +Inf
// bucket, and the Prometheus-style sum and count.
type HistogramRecord struct {
	// Bounds are the inclusive upper bounds; Counts has len(Bounds)+1
	// entries, the last being the +Inf overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
	// Exemplars, when present, is aligned with Counts: the latest exemplar
	// observed in each bucket, nil for buckets without one.
	Exemplars []*Exemplar `json:"exemplars,omitempty"`
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucketed
// counts, attributing each bucket's mass to its upper bound — the same
// upper-bound estimate Prometheus' histogram_quantile uses. A quantile
// that lands in the +Inf overflow bucket clamps to the highest finite
// bound (again matching histogram_quantile), so downstream SLO and
// burn-rate arithmetic never sees an infinite latency; the clamp is an
// underestimate, which choosing wide enough top buckets avoids. Returns
// NaN on an empty record or on a record with no finite bounds.
func (r HistogramRecord) Quantile(q float64) float64 {
	if r.Count == 0 || len(r.Bounds) == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(r.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range r.Counts {
		cum += c
		if cum >= rank {
			if i < len(r.Bounds) {
				return r.Bounds[i]
			}
			break
		}
	}
	return r.Bounds[len(r.Bounds)-1]
}

// ExpBuckets returns n log-spaced bucket upper bounds starting at min and
// multiplying by factor: min, min·factor, …, min·factor^(n−1). It is the
// bound generator behind the package's default latency/size buckets.
func ExpBuckets(min, factor float64, n int) []float64 {
	if n <= 0 || min <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := min
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls ignore bounds). Returns nil (a
// usable no-op histogram) on a nil tracer. Hot loops should hoist the
// lookup and call Observe on the result.
func (t *Tracer) Histogram(name string, bounds []float64) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		t.histograms[name] = h
	}
	return h
}
