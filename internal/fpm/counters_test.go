package fpm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMiningCountersAgree pins the one-counter-set contract: after a run,
// the live Progress view, Result.Stats and the fpm.* tracer counters all
// report the same counts, for both miners, across worker counts, with and without polarity pruning, and for unbudgeted,
// deterministically capped and soft-deadline runs. The soft deadlines
// cut the run at a timing-dependent point, which is where separately
// kept tallies drift apart. A concurrent reader checks that the live view
// only grows while the run publishes.
func TestMiningCountersAgree(t *testing.T) {
	u, o := randomUniverse(t, 61, 60_000, true)
	budgets := []struct {
		name string
		b    Budget
	}{
		{"none", Budget{}},
		{"max-candidates", Budget{MaxCandidates: 40}},
		{"max-itemsets", Budget{MaxItemsets: 12}},
		{"deadline-200us", Budget{SoftDeadline: 200 * time.Microsecond}},
		{"deadline-1ms", Budget{SoftDeadline: time.Millisecond}},
	}
	for _, alg := range []Algorithm{Apriori, FPGrowth} {
		for _, workers := range []int{1, 4} {
			for _, polarity := range []bool{false, true} {
				for _, bc := range budgets {
					label := fmt.Sprintf("%v/w%d/pol=%v/%s", alg, workers, polarity, bc.name)
					prog := obs.NewProgress()
					tr := obs.New()
					stop, polled := make(chan struct{}), make(chan error)
					go pollMonotonic(prog, stop, polled)
					res, err := Mine(u, o, Options{
						MinSupport: 0.002, Algorithm: alg, Workers: workers,
						PolarityPrune: polarity, Budget: bc.b, Progress: prog, Tracer: tr,
					})
					close(stop)
					if perr := <-polled; perr != nil {
						t.Errorf("%s: %v", label, perr)
					}
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					st := res.Stats
					p := prog.Snapshot()
					if p.Candidates != int64(st.Candidates) {
						t.Errorf("%s: progress candidates %d, Stats.Candidates %d", label, p.Candidates, st.Candidates)
					}
					if p.Pruned != int64(st.PrunedSupport+st.PrunedPolarity) {
						t.Errorf("%s: progress pruned %d, Stats pruned %d+%d", label, p.Pruned, st.PrunedSupport, st.PrunedPolarity)
					}
					if p.Frequent != int64(st.Frequent) || st.Frequent != len(res.Itemsets) {
						t.Errorf("%s: progress frequent %d, Stats.Frequent %d, %d itemsets", label, p.Frequent, st.Frequent, len(res.Itemsets))
					}
					snap := tr.Snapshot()
					if alg == FPGrowth {
						// FP-Growth's level is its deepest itemset, which is also
						// the fpm.max_depth gauge.
						deepest := 0
						for _, m := range res.Itemsets {
							deepest = max(deepest, len(m.Items))
						}
						if p.Level != deepest || snap.Gauges[obs.GaugeMaxDepth] != float64(deepest) {
							t.Errorf("%s: progress level %d, max_depth gauge %v, deepest itemset %d",
								label, p.Level, snap.Gauges[obs.GaugeMaxDepth], deepest)
						}
					}
					for _, c := range []struct {
						name string
						want int
					}{
						{obs.CtrCandidates, st.Candidates},
						{obs.CtrPrunedSupport, st.PrunedSupport},
						{obs.CtrPrunedPolarity, st.PrunedPolarity},
						{obs.CtrItemsetsEmitted, st.Frequent},
					} {
						if got := snap.Counter(c.name); got != int64(c.want) {
							t.Errorf("%s: counter %s = %d, Stats %d", label, c.name, got, c.want)
						}
					}
				}
			}
		}
	}
}

// pollMonotonic reads p while a run publishes into it, until stop is
// closed, and sends on done whether every count only grew.
func pollMonotonic(p *obs.Progress, stop <-chan struct{}, done chan<- error) {
	var prev obs.ProgressSnapshot
	for {
		s := p.Snapshot()
		if s.Candidates < prev.Candidates || s.Pruned < prev.Pruned || s.Frequent < prev.Frequent || s.Level < prev.Level {
			done <- fmt.Errorf("live progress went backwards: %+v after %+v", s, prev)
			return
		}
		prev = s
		select {
		case <-stop:
			done <- nil
			return
		case <-time.After(50 * time.Microsecond):
		}
	}
}
