package fpm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

func TestBudgetValidate(t *testing.T) {
	for _, b := range []Budget{
		{MaxCandidates: -1},
		{MaxItemsets: -1},
		{SoftDeadline: -time.Second},
	} {
		if err := b.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", b)
		}
	}
	if err := (Budget{}).Validate(); err != nil {
		t.Fatalf("zero budget rejected: %v", err)
	}
	if !(Budget{}).IsZero() {
		t.Fatal("zero budget not IsZero")
	}
	if (Budget{MaxHeapBytes: 1}).IsZero() {
		t.Fatal("heap budget reported IsZero")
	}
}

// TestBudgetGenerousMatchesUnbudgeted pins that merely enabling the
// budget machinery (without exhausting it) changes nothing: results are
// identical to an unbudgeted run and the report is not truncated.
func TestBudgetGenerousMatchesUnbudgeted(t *testing.T) {
	u, o := randomUniverse(t, 7, 400, true)
	for _, alg := range []Algorithm{Apriori, FPGrowth} {
		base, err := Mine(u, o, Options{MinSupport: 0.05, Algorithm: alg, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		big, err := Mine(u, o, Options{
			MinSupport: 0.05, Algorithm: alg, Workers: 4,
			Budget: Budget{MaxCandidates: 1 << 30, MaxItemsets: 1 << 30, SoftDeadline: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		if big.Truncated || big.Exhausted != "" {
			t.Fatalf("%v: generous budget reported truncated (%q)", alg, big.Exhausted)
		}
		sameRanked(t, alg.String(), sortedCopy(big, o), sortedCopy(base, o))
		if big.Stats != base.Stats {
			t.Errorf("%v: stats differ: %+v vs %+v", alg, big.Stats, base.Stats)
		}
	}
}

// TestBudgetTruncationDeterministic is the acceptance property for
// deterministic budgets: for each algorithm, the truncated ranked output
// is identical — bitwise, including moments — across Workers {1, 4},
// and the result is flagged with the exhausted dimension.
func TestBudgetTruncationDeterministic(t *testing.T) {
	u, o := randomUniverse(t, 11, 400, true)
	budgets := []struct {
		name string
		b    Budget
		dim  string
	}{
		{"candidates", Budget{MaxCandidates: 40}, ExhaustedCandidates},
		{"itemsets", Budget{MaxItemsets: 12}, ExhaustedItemsets},
		{"both", Budget{MaxCandidates: 60, MaxItemsets: 9}, ""}, // either dimension may win
	}
	for _, alg := range []Algorithm{Apriori, FPGrowth} {
		for _, bc := range budgets {
			var ref *Result
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%v/%s/w%d", alg, bc.name, workers)
				res, err := Mine(u, o, Options{
					MinSupport: 0.05, Algorithm: alg,
					Workers: workers, Budget: bc.b,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !res.Truncated {
					t.Fatalf("%s: not truncated (budget too generous for the fixture?)", label)
				}
				if bc.dim != "" && res.Exhausted != bc.dim {
					t.Errorf("%s: exhausted %q, want %q", label, res.Exhausted, bc.dim)
				}
				if bc.b.MaxItemsets > 0 && len(res.Itemsets) > bc.b.MaxItemsets {
					t.Errorf("%s: %d itemsets exceed cap %d", label, len(res.Itemsets), bc.b.MaxItemsets)
				}
				if ref == nil {
					ref = res
					continue
				}
				sameRanked(t, label, sortedCopy(res, o), sortedCopy(ref, o))
				if res.Stats != ref.Stats {
					t.Errorf("%s: stats differ: %+v vs %+v", label, res.Stats, ref.Stats)
				}
				if res.Exhausted != ref.Exhausted {
					t.Errorf("%s: exhausted %q vs reference %q", label, res.Exhausted, ref.Exhausted)
				}
			}
			// A truncated run must be a genuine cut, not the full lattice.
			full, err := Mine(u, o, Options{MinSupport: 0.05, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Itemsets) >= len(full.Itemsets) {
				t.Errorf("%v/%s: truncated run found %d itemsets, full run %d",
					alg, bc.name, len(ref.Itemsets), len(full.Itemsets))
			}
		}
	}
}

// TestBudgetSoftDimensions exercises the cooperative (nondeterministic)
// dimensions at the tracker level, where they are deterministic: the
// deadline timer and the heap watermark both raise the soft flag, and
// truncated() reports them.
func TestBudgetSoftDimensions(t *testing.T) {
	dl := newBudgetTracker(Budget{SoftDeadline: time.Millisecond}, &obs.MiningCounters{})
	defer dl.release()
	deadline := time.Now().Add(2 * time.Second)
	for dl.softExhausted() == "" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if dim := dl.softExhausted(); dim != ExhaustedDeadline {
		t.Fatalf("deadline flag = %q", dim)
	}
	if trunc, dim := dl.truncated(); !trunc || dim != ExhaustedDeadline {
		t.Fatalf("truncated() = %v, %q", trunc, dim)
	}

	// Any live process holds more than one byte of heap, so the first
	// sample must trip a 1-byte watermark.
	hp := newBudgetTracker(Budget{MaxHeapBytes: 1}, &obs.MiningCounters{})
	defer hp.release()
	hp.allowCandidates(1, &tally{})
	if dim := hp.softExhausted(); dim != ExhaustedHeap {
		t.Fatalf("heap flag = %q", dim)
	}

	// Deterministic exhaustion wins the label when both fire.
	both := newBudgetTracker(Budget{MaxCandidates: 1, MaxHeapBytes: 1}, &obs.MiningCounters{})
	defer both.release()
	both.allowCandidates(5, &tally{})
	if trunc, dim := both.truncated(); !trunc || dim != ExhaustedCandidates {
		t.Fatalf("mixed truncated() = %v, %q", trunc, dim)
	}
}

// TestMineSoftDeadlineTruncates drives a soft deadline through MineMulti:
// an already-expired deadline must yield a valid, truncated (not failed)
// result whose exhausted dimension is "deadline".
func TestMineSoftDeadlineTruncates(t *testing.T) {
	u, o := randomUniverse(t, 13, 400, true)
	for _, alg := range []Algorithm{Apriori, FPGrowth} {
		res, err := Mine(u, o, Options{
			MinSupport: 0.05, Algorithm: alg, Workers: 4,
			Budget: Budget{SoftDeadline: time.Nanosecond},
		})
		if err != nil {
			t.Fatalf("%v: soft deadline returned error %v", alg, err)
		}
		// The 1ns timer may lose the race against a fast mine; when it
		// does fire, the labelling must be right.
		if res.Truncated && res.Exhausted != ExhaustedDeadline {
			t.Errorf("%v: exhausted %q, want %q", alg, res.Exhausted, ExhaustedDeadline)
		}
	}
}

// TestMineFaultInjection pins the failpoint wiring inside both miners:
// an armed candidate-batch site surfaces as a clean error (never a
// crash), and a panic-armed site is recovered into a *engine.PanicError
// with the recovery counted.
func TestMineFaultInjection(t *testing.T) {
	u, o := randomUniverse(t, 17, 400, true)
	for _, alg := range []Algorithm{Apriori, FPGrowth} {
		t.Cleanup(faultinject.Reset)
		if err := faultinject.Arm(faultinject.SiteCandidateBatch, "error(injected)"); err != nil {
			t.Fatal(err)
		}
		_, err := Mine(u, o, Options{MinSupport: 0.05, Algorithm: alg, Workers: 4})
		var fe *faultinject.Error
		if !errors.As(err, &fe) || fe.Site != faultinject.SiteCandidateBatch {
			t.Fatalf("%v: want injected *faultinject.Error, got %v", alg, err)
		}
		faultinject.Reset()
		// The same call with failpoints disarmed succeeds.
		if _, err := Mine(u, o, Options{MinSupport: 0.05, Algorithm: alg, Workers: 4}); err != nil {
			t.Fatalf("%v: disarmed run failed: %v", alg, err)
		}

		if err := faultinject.Arm(faultinject.SiteCandidateBatch, "panic"); err != nil {
			t.Fatal(err)
		}
		tr := obs.New()
		_, err = Mine(u, o, Options{MinSupport: 0.05, Algorithm: alg, Workers: 4, Tracer: tr})
		var pe *engine.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%v: want *engine.PanicError, got %v", alg, err)
		}
		if pe.Stack == "" {
			t.Errorf("%v: recovered panic carries no stack", alg)
		}
		if c := tr.Snapshot().Counters[obs.CtrPanicsRecovered]; c < 1 {
			t.Errorf("%v: panic recovery not counted", alg)
		}
		faultinject.Reset()
	}
}

// TestBudgetExhaustionCounted pins the obs counter contract: a truncated
// run records fpm.budget_exhausted.<dimension> on the tracer.
func TestBudgetExhaustionCounted(t *testing.T) {
	u, o := randomUniverse(t, 19, 400, true)
	tr := obs.New()
	res, err := Mine(u, o, Options{
		MinSupport: 0.05, Algorithm: FPGrowth, Tracer: tr,
		Budget: Budget{MaxItemsets: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("not truncated")
	}
	if c := tr.Snapshot().Counters[obs.CtrBudgetExhaustedPrefix+res.Exhausted]; c != 1 {
		t.Fatalf("budget_exhausted.%s = %d, want 1", res.Exhausted, c)
	}
}

// TestBudgetCapClosesOnOverflow pins the tracker's cap contract: once a
// batch overflows a cap, the cap admits nothing more, even when the
// caller dropped the partial batch it was offered (as FP-Growth does)
// and a later batch would fit in what the counts leave.
func TestBudgetCapClosesOnOverflow(t *testing.T) {
	bt := newBudgetTracker(Budget{MaxCandidates: 10, MaxItemsets: 3}, &obs.MiningCounters{})
	var pending tally
	if got := bt.allowCandidates(4, &pending); got != 4 {
		t.Fatalf("first batch admitted %d, want 4", got)
	}
	pending.candidates += 4
	if got := bt.allowCandidates(8, &pending); got != 6 {
		t.Fatalf("overflowing batch admitted %d, want 6", got)
	}
	// The caller rejects the partial batch and counts none of it.
	if got := bt.allowCandidates(2, &pending); got != 0 {
		t.Fatalf("batch after overflow admitted %d, want 0", got)
	}
	if got := bt.allowItemsets(5, &pending); got != 3 {
		t.Fatalf("itemsets admitted %d, want 3", got)
	}
	if got := bt.allowItemsets(1, &pending); got != 0 {
		t.Fatalf("itemset after overflow admitted %d, want 0", got)
	}
	if trunc, dim := bt.truncated(); !trunc || dim != ExhaustedCandidates {
		t.Fatalf("truncated() = %v, %q", trunc, dim)
	}
}

// TestBudgetCappedStatsPinned pins the counts of deterministically capped
// runs to reference values, so a change in how the caps are checked
// (FP-Growth drops a conditional batch that does not fit whole) shows up
// as a count change rather than only as a cross-Workers mismatch.
func TestBudgetCappedStatsPinned(t *testing.T) {
	u, o := randomUniverse(t, 11, 400, true)
	cases := []struct {
		alg      Algorithm
		polarity bool
		b        Budget
		want     MiningStats
		dim      string
	}{
		{Apriori, false, Budget{MaxCandidates: 40}, MiningStats{Candidates: 40, Frequent: 38, PrunedSupport: 2}, ExhaustedCandidates},
		{Apriori, true, Budget{MaxCandidates: 40}, MiningStats{Candidates: 40, Frequent: 38, PrunedSupport: 2, PrunedPolarity: 43}, ExhaustedCandidates},
		{Apriori, false, Budget{MaxItemsets: 12}, MiningStats{Candidates: 13, Frequent: 12}, ExhaustedItemsets},
		{Apriori, true, Budget{MaxCandidates: 60, MaxItemsets: 9}, MiningStats{Candidates: 10, Frequent: 9}, ExhaustedItemsets},
		{FPGrowth, false, Budget{MaxCandidates: 40}, MiningStats{Candidates: 38, Frequent: 21, PrunedSupport: 17}, ExhaustedCandidates},
		{FPGrowth, true, Budget{MaxCandidates: 40}, MiningStats{Candidates: 37, Frequent: 20, PrunedSupport: 17, PrunedPolarity: 174}, ExhaustedCandidates},
		{FPGrowth, false, Budget{MaxItemsets: 12}, MiningStats{Candidates: 91, Frequent: 12, PrunedSupport: 59}, ExhaustedItemsets},
		{FPGrowth, true, Budget{MaxItemsets: 12}, MiningStats{Candidates: 85, Frequent: 12, PrunedSupport: 58, PrunedPolarity: 40}, ExhaustedItemsets},
		{FPGrowth, false, Budget{MaxCandidates: 60, MaxItemsets: 9}, MiningStats{Candidates: 59, Frequent: 9, PrunedSupport: 33}, ExhaustedCandidates},
		{FPGrowth, true, Budget{MaxCandidates: 60, MaxItemsets: 9}, MiningStats{Candidates: 58, Frequent: 9, PrunedSupport: 34, PrunedPolarity: 14}, ExhaustedCandidates},
	}
	for _, c := range cases {
		label := fmt.Sprintf("%v/pol=%v/%+v", c.alg, c.polarity, c.b)
		res, err := Mine(u, o, Options{MinSupport: 0.05, Algorithm: c.alg, PolarityPrune: c.polarity, Budget: c.b})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Stats != c.want || len(res.Itemsets) != c.want.Frequent || res.Exhausted != c.dim {
			t.Errorf("%s: stats %+v, %d itemsets, exhausted %q; want %+v, %q",
				label, res.Stats, len(res.Itemsets), res.Exhausted, c.want, c.dim)
		}
	}
}
