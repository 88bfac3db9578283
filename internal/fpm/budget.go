package fpm

import (
	"fmt"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Budget bounds the resources one mining run may consume. The
// generalized-itemset lattice is worst-case exponential in the number of
// items; a budget turns "this request would exhaust the machine" into a
// best-effort truncated report instead of an OOM kill or an unbounded
// stall. The zero value means unlimited (no budget checks at all).
//
// Dimensions fall in two classes with different determinism guarantees:
//
//   - MaxCandidates and MaxItemsets check the counts MiningStats
//     reports, so the truncated ranked output is byte-identical across
//     Workers settings: Apriori trims each level's candidate
//     batch to a deterministic prefix, and FP-Growth runs its growth
//     phase serially under these caps (a capped run is bounded by
//     construction, so the lost parallelism is bounded too).
//   - SoftDeadline and MaxHeapBytes are wall-clock and heap watermarks
//     polled cooperatively by the miners; where the run stops depends on
//     timing, so the truncated output is best-effort, not reproducible.
//
// On exhaustion the miner stops expanding the lattice, finishes scoring
// the itemsets it has already admitted, and returns a Result flagged
// Truncated with the exhausted dimension.
type Budget struct {
	// MaxCandidates caps MiningStats.Candidates, the run's count of
	// itemsets admitted for support evaluation. 0 = unlimited.
	MaxCandidates int
	// MaxItemsets caps the number of frequent itemsets kept live. 0 =
	// unlimited.
	MaxItemsets int
	// SoftDeadline bounds the mining wall clock. Unlike a context
	// deadline, expiry truncates the run instead of failing it. 0 =
	// unlimited.
	SoftDeadline time.Duration
	// MaxHeapBytes truncates the run when the live heap (the
	// /memory/classes/heap/objects:bytes runtime metric) exceeds this
	// watermark. The check is process-global and approximate. 0 = off.
	MaxHeapBytes uint64
}

// IsZero reports whether the budget imposes no limits.
func (b Budget) IsZero() bool {
	return b.MaxCandidates == 0 && b.MaxItemsets == 0 && b.SoftDeadline == 0 && b.MaxHeapBytes == 0
}

// Validate rejects negative limits.
func (b Budget) Validate() error {
	if b.MaxCandidates < 0 {
		return fmt.Errorf("fpm: negative candidate budget %d", b.MaxCandidates)
	}
	if b.MaxItemsets < 0 {
		return fmt.Errorf("fpm: negative itemset budget %d", b.MaxItemsets)
	}
	if b.SoftDeadline < 0 {
		return fmt.Errorf("fpm: negative deadline budget %v", b.SoftDeadline)
	}
	return nil
}

// deterministic reports whether the budget includes a deterministic
// dimension, which makes FP-Growth serialize its growth phase so the
// truncation point is independent of Workers.
func (b Budget) deterministic() bool {
	return b.MaxCandidates > 0 || b.MaxItemsets > 0
}

// Budget-exhaustion dimensions, reported in Result.Exhausted.
const (
	ExhaustedCandidates = "candidates"
	ExhaustedItemsets   = "itemsets"
	ExhaustedDeadline   = "deadline"
	ExhaustedHeap       = "heap"
)

// heapSampleEvery throttles heap-watermark reads: one runtime/metrics
// read per this many candidate observations.
const heapSampleEvery = 1 << 12

// heapMetric is the runtime/metrics sample name for live heap bytes.
const heapMetric = "/memory/classes/heap/objects:bytes"

// budgetTracker is the runtime state of one mining run's budget. It
// keeps no counts: the deterministic caps check the run's counter set
// plus the caller's unpublished tally, from deterministic contexts only
// (Apriori's caller goroutine, FP-Growth's serialized growth), where
// that sum is exact. A cap that overflows once admits nothing after, even
// where the caller dropped the partial batch it was offered, so a
// smaller later batch cannot slip under it. The soft flag is an atomic
// written by the deadline timer and the heap sampler and polled from any
// goroutine. A nil tracker (no budget) reports unlimited everywhere.
type budgetTracker struct {
	b         Budget
	counts    *obs.MiningCounters
	exhausted string       // first deterministic dimension exhausted
	candsOut  bool         // the candidate cap overflowed
	itemsOut  bool         // the itemset cap overflowed
	soft      atomic.Value // string: ExhaustedDeadline or ExhaustedHeap
	timer     *time.Timer
	heapTick  atomic.Int64
	heapPeak  atomic.Uint64 // high-water mark of sampled live-heap bytes
}

// newBudgetTracker returns a tracker for b, or nil when b is zero.
// Callers must release a non-nil tracker to stop its deadline timer.
func newBudgetTracker(b Budget, counts *obs.MiningCounters) *budgetTracker {
	if b.IsZero() {
		return nil
	}
	t := &budgetTracker{b: b, counts: counts}
	if b.SoftDeadline > 0 {
		t.timer = time.AfterFunc(b.SoftDeadline, func() {
			t.soft.CompareAndSwap(nil, ExhaustedDeadline)
		})
	}
	return t
}

// release stops the deadline timer. Nil-safe.
func (t *budgetTracker) release() {
	if t != nil && t.timer != nil {
		t.timer.Stop()
	}
}

// allowCandidates admits up to n more candidate evaluations against the
// candidate cap and reports how many of the n are allowed; the caller
// counts those it evaluates in pending. It also advances the heap
// sampler. A nil tracker admits everything.
func (t *budgetTracker) allowCandidates(n int, pending *tally) int {
	if t == nil {
		return n
	}
	t.sampleHeap(n)
	if t.b.MaxCandidates == 0 {
		// No deterministic cap: only the (atomic) heap sampler ran above,
		// which keeps this path safe from parallel branches.
		return n
	}
	return t.admit(n, t.b.MaxCandidates-int(t.counts.Candidates.Load())-pending.candidates, ExhaustedCandidates, &t.candsOut)
}

// allowItemsets admits up to n more frequent itemsets against the itemset
// cap; the caller counts those it emits in pending. A nil tracker admits
// everything.
func (t *budgetTracker) allowItemsets(n int, pending *tally) int {
	if t == nil || t.b.MaxItemsets == 0 {
		return n
	}
	return t.admit(n, t.b.MaxItemsets-int(t.counts.Frequent.Load())-pending.frequent, ExhaustedItemsets, &t.itemsOut)
}

// admit returns how many of n fit in remaining. When not all do, it
// closes the cap (out) and marks dim exhausted; a closed cap admits 0.
func (t *budgetTracker) admit(n, remaining int, dim string, out *bool) int {
	if *out {
		return 0
	}
	if n <= remaining {
		return n
	}
	*out = true
	if t.exhausted == "" {
		t.exhausted = dim
	}
	return max(remaining, 0)
}

// detExhausted reports whether a deterministic dimension has run out,
// telling the miners to stop expanding the lattice. Caller-goroutine
// only; nil-safe.
func (t *budgetTracker) detExhausted() bool {
	return t != nil && t.exhausted != ""
}

// sampleHeap reads the live-heap metric once per heapSampleEvery
// candidate observations and raises the soft flag past the watermark.
func (t *budgetTracker) sampleHeap(n int) {
	if t.b.MaxHeapBytes == 0 {
		return
	}
	before := t.heapTick.Load()
	after := t.heapTick.Add(int64(n))
	if before/heapSampleEvery == after/heapSampleEvery && before != 0 {
		return
	}
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	heap := sample[0].Value.Uint64()
	raise[uint64](&t.heapPeak, heap)
	if heap > t.b.MaxHeapBytes {
		t.soft.CompareAndSwap(nil, ExhaustedHeap)
	}
}

// softExhausted reports the nondeterministic dimension (deadline or heap)
// that fired, if any. Safe from any goroutine; nil-safe.
func (t *budgetTracker) softExhausted() string {
	if t == nil {
		return ""
	}
	if v := t.soft.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// truncated reports whether any dimension was exhausted, and which one
// (deterministic dimensions win the label so the reported reason is
// stable when both fire). Called once, at the end of the run, from the
// caller goroutine.
func (t *budgetTracker) truncated() (bool, string) {
	if t == nil {
		return false, ""
	}
	if t.exhausted != "" {
		return true, t.exhausted
	}
	if dim := t.softExhausted(); dim != "" {
		return true, dim
	}
	return false, ""
}
