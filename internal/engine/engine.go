// Package engine is the sharded data plane under the mining code. It
// partitions the dataset's rows into word-aligned shards (Plan), evaluates
// candidate itemsets shard by shard into mergeable accumulators (Acc), and
// schedules independent tasks across workers (ParallelFor). Decoupling
// candidate *enumeration* (which stays in fpm) from *accumulation* (which
// runs per shard and merges associatively) is the seam future scaling work
// — distributed shards, incremental append, alternate backends — plugs
// into.
//
// Determinism and merge ordering: shard merges happen in ascending shard
// order, and every built-in rate statistic has values in {0, 1}, whose
// partial sums are exact integers in float64 — so merged moments are
// bit-identical to a single-pass scan regardless of the shard count.
// Numeric outcomes with non-integral values may differ from the unsharded
// scan in the last ulp once NumShards > 1; the default plan keeps datasets
// of up to DefaultShardRows rows in a single shard, where the scan order
// is identical to the unsharded code path. Accumulation consumes row sets
// through the bitvec.Set interface (its *Range primitives visit bits in
// ascending order over word-aligned shard ranges), so dense and compressed
// item representations produce identical accumulators.
//
// Pool recycles the data plane's per-run buffers (materialized row
// vectors, partial-count matrices) with explicit ownership rules; see its
// type comment and DESIGN.md §11.
package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/stats"
)

// DefaultShardRows is the row count per shard when the caller does not fix
// a shard count: 65536 rows = 1024 words, large enough that per-shard
// bookkeeping is noise, small enough that wide datasets expose shard-level
// parallelism.
const DefaultShardRows = 1 << 16

// wordBits mirrors the bitvec word size; shard boundaries are always
// word-aligned so shard views never split a word.
const wordBits = 64

// Plan is a word-aligned partition of a dataset's rows into shards.
// The zero value is unusable; build one with NewPlan.
type Plan struct {
	numRows  int
	numWords int
	bounds   []int // word boundaries; shard s covers words [bounds[s], bounds[s+1])
}

// NewPlan partitions numRows rows into the given number of shards on word
// boundaries. shards ≤ 0 selects the default layout: ceil(numRows /
// DefaultShardRows) shards, so small datasets stay single-shard. The shard
// count is clamped to the word count (a shard must hold at least one word)
// and is always at least 1, even for an empty dataset.
func NewPlan(numRows, shards int) Plan {
	if numRows < 0 {
		panic("engine: negative row count")
	}
	numWords := (numRows + wordBits - 1) / wordBits
	if shards <= 0 {
		shards = (numRows + DefaultShardRows - 1) / DefaultShardRows
	}
	if shards > numWords {
		shards = numWords
	}
	if shards < 1 {
		shards = 1
	}
	p := Plan{numRows: numRows, numWords: numWords, bounds: make([]int, shards+1)}
	base, rem := numWords/shards, numWords%shards
	w := 0
	for s := 0; s < shards; s++ {
		p.bounds[s] = w
		w += base
		if s < rem {
			w++
		}
	}
	p.bounds[shards] = numWords
	return p
}

// NumRows returns the number of rows the plan partitions.
func (p Plan) NumRows() int { return p.numRows }

// NumShards returns the number of shards.
func (p Plan) NumShards() int { return len(p.bounds) - 1 }

// WordRange returns the half-open word interval [lo, hi) of shard s, the
// unit bitvec's range primitives operate on.
func (p Plan) WordRange(s int) (lo, hi int) { return p.bounds[s], p.bounds[s+1] }

// RowRange returns the half-open row interval [lo, hi) of shard s.
func (p Plan) RowRange(s int) (lo, hi int) {
	lo = p.bounds[s] * wordBits
	hi = p.bounds[s+1] * wordBits
	if hi > p.numRows {
		hi = p.numRows
	}
	return lo, hi
}

// Acc is the per-shard outcome accumulator: everything the divergence
// statistics need from one shard of a subgroup's rows. Acc values merge
// associatively (integer fields exactly; float sums exactly whenever the
// outcome values are integral, e.g. the 0/1 rate statistics), so shard
// results can be combined in any grouping as long as the final reduction
// visits shards in ascending order.
type Acc struct {
	// Rows is the subgroup's support within the shard (popcount of the row
	// bitset), including rows whose outcome is ⊥.
	Rows int
	// Bottom counts subgroup rows with undefined (⊥) outcome.
	Bottom int
	// Pos and Neg split the defined rows of a boolean outcome by value
	// (1 / 0); both stay 0 for non-boolean outcomes.
	Pos, Neg int
	// Sum and SumSq accumulate the outcome values over defined rows.
	Sum, SumSq float64
}

// Merge folds b into a. Associative and commutative on the integer fields;
// on the float fields it is exact (hence order-independent) whenever the
// outcome values are integral.
func (a *Acc) Merge(b Acc) {
	a.Rows += b.Rows
	a.Bottom += b.Bottom
	a.Pos += b.Pos
	a.Neg += b.Neg
	a.Sum += b.Sum
	a.SumSq += b.SumSq
}

// N returns the number of defined-outcome rows in the accumulator.
func (a Acc) N() int { return a.Rows - a.Bottom }

// Moments converts the accumulator to the stats.Moments triple used by the
// divergence and Welch-t formulas.
func (a Acc) Moments() stats.Moments {
	return stats.Moments{N: a.N(), Sum: a.Sum, SumSq: a.SumSq}
}

// Accumulate computes the Acc of rows∈shard s of the plan for the outcome
// described by (valid, vals, boolean): valid masks rows with a defined
// outcome, vals holds the values, boolean marks outcomes whose defined
// values are all 0 or 1 (making Pos/Neg meaningful and the float sums
// exact). rows may be dense or compressed; the Set contract guarantees an
// identical accumulation order either way.
func Accumulate(p Plan, s int, rows bitvec.Set, valid *bitvec.Vector, vals []float64, boolean bool) Acc {
	lo, hi := p.WordRange(s)
	n, sum, sumSq := rows.AndMomentsRange(valid, vals, lo, hi)
	a := Acc{Rows: rows.CountRange(lo, hi), Sum: sum, SumSq: sumSq}
	a.Bottom = a.Rows - n
	if boolean {
		a.Pos = int(sum)
		a.Neg = n - a.Pos
	}
	return a
}

// AccumulateAll merges the per-shard accumulators of every shard of the
// plan in ascending shard order.
func AccumulateAll(p Plan, rows bitvec.Set, valid *bitvec.Vector, vals []float64, boolean bool) Acc {
	var a Acc
	for s := 0; s < p.NumShards(); s++ {
		a.Merge(Accumulate(p, s, rows, valid, vals, boolean))
	}
	return a
}

// PanicError is a worker panic recovered by ParallelFor (or by a miner's
// serial section): the original panic value plus the stack of the
// panicking goroutine, captured at recovery. Containment layers — the
// miners, the HTTP server — convert these into failed requests instead of
// dying with the process.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack (debug.Stack output).
	Stack string
}

// Error renders the panic value; the stack is carried separately so logs
// can include it without bloating client-facing messages.
func (e *PanicError) Error() string {
	return fmt.Sprintf("recovered panic: %v", e.Value)
}

// RecoverError converts a recover() value into a *PanicError capturing
// the current stack, or returns nil for a nil value. Call it directly
// inside a deferred function so the stack still shows the panic site.
func RecoverError(v any) *PanicError {
	if v == nil {
		return nil
	}
	return &PanicError{Value: v, Stack: string(debug.Stack())}
}

// Workers resolves a worker-count setting: 0 means every core the
// runtime may use, runtime.GOMAXPROCS(0); any other value stands. Every
// layer's Workers option reaches the engine through it (fpm.MineMulti and
// Chunks call it), so an unset count explores on the whole machine and 1
// stays serial.
func Workers(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// Chunks returns how many contiguous chunks of n elements a stage run
// over workers (resolved by Workers) splits into: one per worker, but
// never a chunk shorter than minChunk, and at least one. Below 2*minChunk
// elements the stage therefore stays serial. The count depends on n,
// workers and minChunk only, never on the cores present.
func Chunks(n, workers, minChunk int) int {
	return max(1, min(Workers(workers), n/minChunk))
}

// ChunkRange returns the half-open range [lo, hi) of chunk c when n
// elements are split into chunks contiguous chunks of near-equal length.
func ChunkRange(n, chunks, c int) (lo, hi int) {
	return c * n / chunks, (c + 1) * n / chunks
}

// ParallelFor runs fn(0..n-1) across at most workers goroutines; workers
// ≤ 1 runs inline. The worker count is clamped to both n and
// runtime.GOMAXPROCS(0), so callers may pass arbitrarily large values
// without spawning useless goroutines. Tasks are handed out in index
// order, so a task may wait for tasks of lower index, which have all
// been started; fn invocations must be otherwise independent. When tr is
// non-nil, each worker's completed-task count is recorded under
// obs.CtrWorkerTaskPrefix+index and the clamped worker count under
// obs.GaugeWorkers.
//
// A panic in fn is recovered into a *PanicError (the first one wins;
// obs.CtrPanicsRecovered counts every recovery) instead of crossing the
// goroutine boundary and killing the process. After a panic, remaining
// tasks are abandoned: workers stop pulling new indices, in-flight tasks
// finish, and ParallelFor returns the error. Callers must treat their
// task outputs as incomplete when the returned error is non-nil.
func ParallelFor(n, workers int, tr *obs.Tracer, fn func(i int)) error {
	workers = min(workers, n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		if tr != nil {
			tr.SetGauge(obs.GaugeWorkers, 1)
			tr.Counter(fmt.Sprintf("%s%d", obs.CtrWorkerTaskPrefix, 0)).Add(int64(n))
		}
		for i := 0; i < n; i++ {
			if pe := runTask(fn, i, tr); pe != nil {
				return pe
			}
		}
		return nil
	}
	tr.SetGauge(obs.GaugeWorkers, float64(workers))
	r := &parallelRun{n: n, fn: fn, tr: tr}
	r.wg.Add(workers)
	for range workers {
		go r.work()
	}
	r.wg.Wait()
	if pe := r.panicked.Load(); pe != nil {
		return pe
	}
	return nil
}

// parallelRun is the state ParallelFor's workers share: the task cursor,
// the count of workers started, which numbers them, and the first
// recovered panic.
type parallelRun struct {
	n        int
	fn       func(i int)
	tr       *obs.Tracer
	wg       sync.WaitGroup
	next     atomic.Int64
	started  atomic.Int32
	panicked atomic.Pointer[PanicError]
}

// work pulls tasks until none is left or one panics.
func (r *parallelRun) work() {
	defer r.wg.Done()
	w := int(r.started.Add(1)) - 1
	tasks := 0
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.n {
			break
		}
		if pe := runTask(r.fn, i, r.tr); pe != nil {
			r.panicked.CompareAndSwap(nil, pe)
			// Abandon the remaining tasks: fast-forward the shared cursor
			// so every worker's next pull is out of range.
			r.next.Store(int64(r.n))
			break
		}
		tasks++
	}
	if r.tr != nil {
		r.tr.Counter(fmt.Sprintf("%s%d", obs.CtrWorkerTaskPrefix, w)).Add(int64(tasks))
	}
}

// runTask runs fn(i) and returns its panic, if any, recovered into a
// *PanicError and counted.
func runTask(fn func(i int), i int, tr *obs.Tracer) (pe *PanicError) {
	defer func() {
		if pe = RecoverError(recover()); pe != nil {
			tr.Counter(obs.CtrPanicsRecovered).Add(1)
		}
	}()
	fn(i)
	return nil
}
