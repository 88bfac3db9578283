package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Windowed is a sliding-window histogram: a rotating ring of fixed-bucket
// epoch histograms merged on read, so quantiles and rates describe the
// *recent* past instead of the process lifetime. The server's SLO engine
// is built on it — a lifetime-cumulative histogram hides a p99 regression
// behind hours of healthy traffic, a 60×1s window ring does not.
//
// The ring holds `epochs` slots of `epoch` duration each. Observe lands
// in the slot of the current epoch (index now/epoch modulo ring size);
// when a slot is revisited after a full ring revolution it is reset under
// a per-slot mutex before reuse, so rotation needs no background
// goroutine and idle windows cost nothing. Observes are lock-free on the
// fast path (the slot already belongs to the current epoch): a binary
// search plus three atomic adds, safe for concurrent use.
//
// Merged(window) folds the slots belonging to the last `window` epochs
// (including the current, partial one) into a HistogramRecord. Under
// concurrent writes the merge is a consistent sample, not a transaction:
// an observation racing a slot reset may land in the freshly reset epoch
// (never lost entirely, at most attributed one ring revolution late).
// Single-writer use — the property tests drive it with a fake clock — is
// exact: merged windows agree bin-for-bin with a plain Histogram fed the
// same in-window observations.
//
// With nil bounds a Windowed degrades to a windowed counter/sum: only
// Count and Sum carry information, which is exactly what availability
// (requests, errors) tracking needs.
//
// A nil *Windowed ignores Observe and reports empty windows, mirroring
// the package's nil-safe contract.
type Windowed struct {
	bounds []float64
	epoch  time.Duration
	now    func() time.Time
	slots  []windowSlot
}

// windowSlot is one epoch's histogram. epoch is the absolute epoch index
// the slot currently accumulates (-1 while still virgin); mu serializes
// the reset when a slot is claimed for a new epoch.
type windowSlot struct {
	mu    sync.Mutex
	epoch atomic.Int64
	bins  []atomic.Int64
	count atomic.Int64
	sum   atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewWindowed builds a sliding-window histogram of `epochs` slots, each
// covering `epoch` of wall time, over the given bucket bounds (nil for a
// count/sum-only window). now overrides the clock for tests; nil means
// time.Now. epoch defaults to one second and epochs to 64 when
// non-positive.
func NewWindowed(bounds []float64, epoch time.Duration, epochs int, now func() time.Time) *Windowed {
	if epoch <= 0 {
		epoch = time.Second
	}
	if epochs <= 0 {
		epochs = 64
	}
	if now == nil {
		now = time.Now
	}
	proto := newHistogram(bounds) // normalizes: sorted, deduplicated, finite
	w := &Windowed{
		bounds: proto.bounds,
		epoch:  epoch,
		now:    now,
		slots:  make([]windowSlot, epochs),
	}
	for i := range w.slots {
		w.slots[i].epoch.Store(-1)
		w.slots[i].bins = make([]atomic.Int64, len(w.bounds)+1)
	}
	return w
}

// Epochs returns the ring size (the maximum merge window), 0 on nil.
func (w *Windowed) Epochs() int {
	if w == nil {
		return 0
	}
	return len(w.slots)
}

// EpochDuration returns the width of one epoch (0 on nil).
func (w *Windowed) EpochDuration() time.Duration {
	if w == nil {
		return 0
	}
	return w.epoch
}

// epochIndex is the absolute epoch the given instant falls in.
func (w *Windowed) epochIndex(t time.Time) int64 {
	return t.UnixNano() / int64(w.epoch)
}

// slot returns the ring slot for epoch e, reset and claimed for e if it
// still holds an older epoch.
func (w *Windowed) slot(e int64) *windowSlot {
	s := &w.slots[e%int64(len(w.slots))]
	if s.epoch.Load() == e {
		return s
	}
	s.mu.Lock()
	if s.epoch.Load() != e {
		for i := range s.bins {
			s.bins[i].Store(0)
		}
		s.count.Store(0)
		s.sum.Store(0)
		s.epoch.Store(e)
	}
	s.mu.Unlock()
	return s
}

// Observe records one value into the current epoch. NaN observations are
// dropped; no-op on nil.
func (w *Windowed) Observe(v float64) {
	if w == nil || math.IsNaN(v) {
		return
	}
	s := w.slot(w.epochIndex(w.now()))
	i := sort.SearchFloat64s(w.bounds, v)
	s.bins[i].Add(1)
	s.count.Add(1)
	addFloat(&s.sum, v)
}

// Add records n unit-less events into the current epoch without touching
// the value distribution — the windowed-counter idiom (each event counts
// 1 toward Count, contributes 0 to Sum and lands in the overflow bin
// only when the window has no bounds). No-op on nil or n <= 0.
func (w *Windowed) Add(n int64) {
	if w == nil || n <= 0 {
		return
	}
	s := w.slot(w.epochIndex(w.now()))
	s.bins[len(s.bins)-1].Add(n)
	s.count.Add(n)
}

// Merged folds the last `window` epochs (clamped to the ring size,
// including the current partial epoch) into an immutable HistogramRecord.
// Returns an empty record on nil.
func (w *Windowed) Merged(window int) HistogramRecord {
	if w == nil {
		return HistogramRecord{}
	}
	if window <= 0 || window > len(w.slots) {
		window = len(w.slots)
	}
	cur := w.epochIndex(w.now())
	rec := HistogramRecord{
		Bounds: append([]float64(nil), w.bounds...),
		Counts: make([]int64, len(w.bounds)+1),
	}
	oldest := cur - int64(window) + 1
	for i := range w.slots {
		s := &w.slots[i]
		e := s.epoch.Load()
		if e < oldest || e > cur {
			continue
		}
		var total int64
		for j := range s.bins {
			c := s.bins[j].Load()
			rec.Counts[j] += c
			total += c
		}
		// Count is repaired from the bin total like Histogram.snapshot, so
		// the record stays internally consistent under concurrent Observe.
		if c := s.count.Load(); c > total {
			total = c
		}
		rec.Count += total
		rec.Sum += math.Float64frombits(s.sum.Load())
	}
	return rec
}

// CountWindow returns the number of observations in the last `window`
// epochs — the cheap path for windowed counters (no bin copying).
func (w *Windowed) CountWindow(window int) int64 {
	if w == nil {
		return 0
	}
	if window <= 0 || window > len(w.slots) {
		window = len(w.slots)
	}
	cur := w.epochIndex(w.now())
	oldest := cur - int64(window) + 1
	var n int64
	for i := range w.slots {
		s := &w.slots[i]
		if e := s.epoch.Load(); e >= oldest && e <= cur {
			n += s.count.Load()
		}
	}
	return n
}
