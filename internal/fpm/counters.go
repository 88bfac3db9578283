package fpm

import (
	"sync/atomic"

	"repro/internal/obs"
)

// tally is one goroutine's mining events not yet published. Each mining
// event (a candidate admitted for support evaluation, a support or
// polarity prune, a frequent itemset, a level reached) is counted once,
// as a plain increment of a tally, and tallies are published into the
// run's obs.MiningCounters at batch boundaries: per phase in Apriori,
// per conditional tree in FP-Growth.
type tally struct {
	level, candidates, prunedSupport, prunedPolarity, frequent int
}

// publish adds t into c and clears t.
func (t *tally) publish(c *obs.MiningCounters) {
	raise[int64](&c.Level, int64(t.level))
	addNonZero(&c.Candidates, t.candidates)
	addNonZero(&c.PrunedSupport, t.prunedSupport)
	addNonZero(&c.PrunedPolarity, t.prunedPolarity)
	addNonZero(&c.Frequent, t.frequent)
	*t = tally{}
}

func addNonZero(a *atomic.Int64, n int) {
	if n != 0 {
		a.Add(int64(n))
	}
}

// raise stores v in a when v exceeds a's value.
func raise[T int64 | uint64](a interface {
	Load() T
	CompareAndSwap(old, new T) bool
}, v T) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}

// statsOf returns c's counts as MiningStats.
func statsOf(c *obs.MiningCounters) MiningStats {
	return MiningStats{
		Candidates:     int(c.Candidates.Load()),
		Frequent:       int(c.Frequent.Load()),
		PrunedSupport:  int(c.PrunedSupport.Load()),
		PrunedPolarity: int(c.PrunedPolarity.Load()),
	}
}
