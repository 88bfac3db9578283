// Package engine schedules the mining code's independent tasks across
// workers (ParallelFor, with the worker count resolved by Workers and
// contiguous stages split by Chunks), contains their panics (PanicError),
// and recycles their per-run buffers (Pool). The miners accumulate every
// itemset's support and outcome moments in one pass over the rows; the
// only parallel axis is across tasks — Apriori candidates, FP-Growth
// top-level branches, ranking chunks — never across rows.
//
// Pool's ownership rules are in its type comment and DESIGN.md §11.
package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

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
