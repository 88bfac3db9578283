package hdivexplorer

// The allocation and work gates: B/op and allocs/op of the two tracked
// paper artifacts may not grow past allocBudgetSlack × their committed
// values, and their mining counts may not grow at all. Both are
// deterministic for a fixed workload, unlike ns/op, so the gates run in
// the ordinary `go test ./...`. Wall-clock regressions are checked
// separately, on one machine, by the bench/ paper-sweep comparison in CI.

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/experiments"
	"repro/internal/fpm"
)

// allocBudgetSlack is the tolerated growth factor over the committed
// numbers below.
const allocBudgetSlack = 1.25

// Committed per-op allocations of BenchmarkTable3 and BenchmarkFigure2
// (benchCfg sizes, GOMAXPROCS 1, go1.24, linux/amd64). The allocs/op
// values are the baseline an earlier CI allocation check read from a
// committed JSON artifact, at the same bound; this test replaced both.
// The B/op values were lowered to the measurement after FP-Growth's tree
// build stopped allocating table-wide transaction arrays and fixed-size
// emission slabs, the allocs/op values after ranking stopped allocating
// each subgroup's itemset on its own, and Figure 2's pair again after the
// random forest stopped copying a bootstrap table per tree and sorting
// row indices at every node. Lower them when a change cuts
// allocations for good; raising them needs a stated reason.
const (
	table3BytesPerOp   = 13_589_176
	table3AllocsPerOp  = 5_380
	figure2BytesPerOp  = 707_827_576
	figure2AllocsPerOp = 68_994
)

// TestAllocationBudget fails when BenchmarkTable3 or BenchmarkFigure2
// allocates more than allocBudgetSlack × its committed bytes or objects
// per op. It is skipped under the race detector, where sync.Pool drops
// Puts at random and the counts measure the detector, not the code.
func TestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name          string
		bench         func(*testing.B)
		bytes, allocs int64
	}{
		{"BenchmarkTable3", BenchmarkTable3, table3BytesPerOp, table3AllocsPerOp},
		{"BenchmarkFigure2", BenchmarkFigure2, figure2BytesPerOp, figure2AllocsPerOp},
	} {
		r := testing.Benchmark(tc.bench)
		if r.N == 0 {
			t.Fatalf("%s did not run (failed or skipped)", tc.name)
		}
		for _, m := range []struct {
			metric          string
			committed, meas int64
		}{
			{"B/op", tc.bytes, r.AllocedBytesPerOp()},
			{"allocs/op", tc.allocs, r.AllocsPerOp()},
		} {
			ratio := float64(m.meas) / float64(m.committed)
			if ratio > allocBudgetSlack {
				t.Errorf("%s %s: committed %d, measured %d, ratio %.3fx exceeds the %.2fx budget",
					tc.name, m.metric, m.committed, m.meas, ratio, allocBudgetSlack)
			} else {
				t.Logf("%s %s: committed %d, measured %d, ratio %.4fx", tc.name, m.metric, m.committed, m.meas, ratio)
			}
		}
	}
}

// Committed mining counts (Report.Mining) of the Table III explorations,
// the 56 Figure 2 cells and the 28 polarity-pruned Figure 4 cells at
// benchCfg sizes, summed over the explorations. Counts are exact and do not depend on Workers or
// GOMAXPROCS, so they carry no slack. Lower them when a change cuts work
// for good; raising them needs a stated reason.
const (
	workCandidates     = 5_273_722
	workFrequent       = 1_669_874
	workPrunedSupport  = 3_603_848
	workPrunedPolarity = 4_188_395
)

// TestMiningWorkBudget fails when the mining work of Table III, Figure 2
// or Figure 4's polarity-pruned search grows past its committed count,
// and logs when a count shrinks. Like TestAllocationBudget it is skipped
// under the race detector, which would only slow its ~7 s of mining
// down, not change a count.
func TestMiningWorkBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the counts do not depend on -race; the non-race run checks them")
	}
	var got fpm.MiningStats
	add := func(m fpm.MiningStats) {
		got.Candidates += m.Candidates
		got.Frequent += m.Frequent
		got.PrunedSupport += m.PrunedSupport
		got.PrunedPolarity += m.PrunedPolarity
	}
	rows, err := experiments.Table3(benchCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		add(r.Mining)
	}
	points, err := experiments.Figure2(benchCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 28 {
		t.Fatalf("Figure 2 has %d points, want 28 (56 explorations)", len(points))
	}
	for _, p := range points {
		add(p.BaseMining)
		add(p.HierMining)
	}
	// Figure 4's complete search is Figure 2's hierarchical cells; only
	// its polarity-pruned cells are new work.
	for _, name := range experiments.ClassificationNames {
		w, err := experiments.Load(name, benchCfg)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := w.Hierarchies(0.1, discretize.DivergenceGain)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range experiments.SweepSupports {
			rep, err := core.Explore(w.Table, core.Config{
				Outcome: w.Outcome, Hierarchies: hs, MinSupport: s, Mode: core.Hierarchical,
				PolarityPrune: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			add(rep.Mining)
		}
	}
	for _, c := range []struct {
		name            string
		committed, meas int
	}{
		{"candidates", workCandidates, got.Candidates},
		{"frequent", workFrequent, got.Frequent},
		{"pruned_support", workPrunedSupport, got.PrunedSupport},
		{"pruned_polarity", workPrunedPolarity, got.PrunedPolarity},
	} {
		switch {
		case c.meas > c.committed:
			t.Errorf("mining %s: committed %d, measured %d: the work grew", c.name, c.committed, c.meas)
		case c.meas < c.committed:
			t.Logf("mining %s: committed %d, measured %d: the work shrank; lower the constant", c.name, c.committed, c.meas)
		default:
			t.Logf("mining %s: %d, as committed", c.name, c.meas)
		}
	}
}
