package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
)

// Pool recycles the row vectors the mining hot path burns through across
// Apriori levels of one mining run. It is keyed by the run's row count, so
// every pooled vector has the same length and a Get can skip all shape
// checks.
//
// Ownership rules (see DESIGN.md §11 for the full lifecycle):
//
//   - A vector obtained from GetVector has unspecified contents; the caller
//     must fully overwrite it (e.g. via Set.AndInto, which writes every
//     word) before reading.
//   - Universe-owned vectors (Universe.Rows) must never be passed to
//     PutVector; only buffers obtained from the pool (or allocated with the
//     run's row count and owned by the caller) may be returned.
//   - A buffer must not be used after PutVector. Returning is optional:
//     dropping a pooled buffer on an error or truncation path is safe, the
//     GC reclaims it.
//
// Hits and misses are counted so obs.Explain can report the reuse rate;
// NoteHit/NoteMiss let satellite caches (e.g. the FP-Growth scratch pool)
// fold their reuse into the same counters. Because sync.Pool is emptied
// under GC pressure, the hit counts are measured — not deterministic — and
// are stripped by Explain.Deterministic.
//
// Pool is safe for concurrent use.
type Pool struct {
	rows         int
	vecs         sync.Pool
	hits, misses atomic.Int64
}

// NewPool returns a pool dispensing vectors of the given row count.
func NewPool(rows int) *Pool {
	return &Pool{rows: rows}
}

// GetVector returns a vector of the pool's row count with unspecified
// contents. The caller must fully overwrite it before reading.
func (pl *Pool) GetVector() *bitvec.Vector {
	if v, ok := pl.vecs.Get().(*bitvec.Vector); ok {
		pl.hits.Add(1)
		return v
	}
	pl.misses.Add(1)
	return bitvec.New(pl.rows)
}

// PutVector returns a vector to the pool. Vectors of another length are
// dropped, so a caller holding mixed-origin buffers can return them
// indiscriminately.
func (pl *Pool) PutVector(v *bitvec.Vector) {
	if v == nil || v.Len() != pl.rows {
		return
	}
	pl.vecs.Put(v)
}

// NoteHit and NoteMiss fold an external cache's reuse outcome into the
// pool's counters, so per-run scratch pools layered on top of Pool report
// through the same engine.pool_* metrics.
func (pl *Pool) NoteHit()  { pl.hits.Add(1) }
func (pl *Pool) NoteMiss() { pl.misses.Add(1) }

// Hits returns the number of Get calls (and noted external lookups)
// satisfied from the pool.
func (pl *Pool) Hits() int64 { return pl.hits.Load() }

// Misses returns the number of Get calls (and noted external lookups)
// that had to allocate.
func (pl *Pool) Misses() int64 { return pl.misses.Load() }
