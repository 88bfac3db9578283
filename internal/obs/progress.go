package obs

import (
	"sync/atomic"
	"time"
)

// MiningCounters is a mining run's one counter set. The miner counts
// each event once, in tallies its goroutines own, and adds them here at
// batch boundaries; the run's MiningStats are the set's final value, its
// budget caps check it, and an attached Progress reads it live. Counts
// only grow.
type MiningCounters struct {
	Level          atomic.Int64 // Apriori's current level; FP-Growth's deepest itemset
	Candidates     atomic.Int64
	PrunedSupport  atomic.Int64
	PrunedPolarity atomic.Int64
	Frequent       atomic.Int64
}

// Progress is a live, lock-free view into a running mining pass. It
// keeps no counts: the miner attaches its run's MiningCounters, the set
// its MiningStats come from, and every Snapshot reads it, so a finished
// run's final snapshot equals its MiningStats. Any number of readers —
// the daemon's GET /v1/progress/{id}, the CLI's -progress ticker —
// snapshot it concurrently; counts advance in the miner's batch steps
// and never decrease.
//
// A nil *Progress accepts every call as a no-op, matching the package's
// nil-safe contract.
type Progress struct {
	startNS int64                          // tracer-independent wall clock origin (UnixNano)
	run     atomic.Pointer[MiningCounters] // once attached
	doneNS  atomic.Int64                   // UnixNano at Finish, 0 while running
}

// NewProgress returns a progress reporter whose clock starts now.
func NewProgress() *Progress {
	return &Progress{startNS: time.Now().UnixNano()}
}

// Attach makes p read c. A miner attaches its counter set once, when its
// run starts. No-op on nil.
func (p *Progress) Attach(c *MiningCounters) {
	if p != nil {
		p.run.Store(c)
	}
}

// Finish freezes the elapsed clock and marks the run done. Later calls
// are no-ops, as is Finish on nil.
func (p *Progress) Finish() {
	if p != nil {
		p.doneNS.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// Snapshot captures the current state. Snapshots of a nil reporter are
// zero-valued with Done false, and so are the counts of one no run has
// attached to.
func (p *Progress) Snapshot() ProgressSnapshot {
	var s ProgressSnapshot
	if p == nil {
		return s
	}
	if c := p.run.Load(); c != nil {
		s.Level, s.Candidates, s.Frequent = int(c.Level.Load()), c.Candidates.Load(), c.Frequent.Load()
		s.Pruned = c.PrunedSupport.Load() + c.PrunedPolarity.Load()
	}
	end := p.doneNS.Load()
	if end != 0 {
		s.Done = true
	} else {
		end = time.Now().UnixNano()
	}
	s.ElapsedMS = (end - p.startNS) / int64(time.Millisecond)
	return s
}

// ProgressSnapshot is one point-in-time reading of a Progress reporter;
// it marshals to the GET /v1/progress/{id} reply body.
type ProgressSnapshot struct {
	// Level is the mining level being processed (Apriori) or the deepest
	// itemset length reached (FP-Growth).
	Level int `json:"level"`
	// Candidates, Pruned and Frequent are running totals; they advance
	// monotonically over the life of a run.
	Candidates int64 `json:"candidates"`
	Pruned     int64 `json:"pruned"`
	Frequent   int64 `json:"frequent"`
	// ElapsedMS is wall time since mining began, frozen once Done.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Done reports whether the run has finished.
	Done bool `json:"done"`
}
