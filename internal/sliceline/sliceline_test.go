package sliceline

import (
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/discretize"
	"repro/internal/fpm"
	"repro/internal/outcome"
)

func peakUniverse(t *testing.T, n int) (*fpm.Universe, *outcome.Outcome) {
	t.Helper()
	d := datagen.SyntheticPeak(datagen.Config{N: n, Seed: 1})
	o := outcome.ErrorRate(d.Actual, d.Predicted)
	hs, err := discretize.TreeSet(d.Table, o, discretize.TreeOptions{MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return fpm.BaseUniverse(d.Table, hs, o), o
}

func TestTopKBasics(t *testing.T) {
	u, o := peakUniverse(t, 4000)
	got, err := TopK(u, o, Options{K: 5, MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) > 5 {
		t.Fatalf("got %d slices", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Error("slices not sorted by score")
		}
	}
	for _, s := range got {
		if s.Support < 0.05 {
			t.Errorf("slice %v below support threshold", s.String())
		}
		if s.AvgError < o.GlobalMean() {
			t.Errorf("top slice %v has below-average error", s.String())
		}
	}
}

// §VI-G: SliceLine's best slice (highest error rate under the support
// threshold) matches base DivExplorer's most divergent itemset, because for
// the error outcome ranking by ē_S is ranking by divergence. With α → 1 the
// score is a monotone function of the error rate.
func TestBestSliceMatchesBaseDivExplorer(t *testing.T) {
	u, o := peakUniverse(t, 10_000)
	for _, s := range []float64{0.05, 0.025} {
		got, err := TopK(u, o, Options{K: 1, MinSupport: s, Alpha: 0.99})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatal("no slice")
		}
		res, err := fpm.Mine(u, o, fpm.Options{MinSupport: s})
		if err != nil {
			t.Fatal(err)
		}
		best := res.Itemsets[0]
		for _, m := range res.Itemsets[1:] {
			if o.DivergenceFromMoments(m.M) > o.DivergenceFromMoments(best.M) {
				best = m
			}
		}
		if math.Abs(got[0].AvgError-best.M.Mean()) > 1e-9 {
			t.Errorf("s=%v: SliceLine best %v (err %.4f) != DivExplorer best %v (err %.4f)",
				s, got[0].Itemset, got[0].AvgError, u.Itemset(best.Items), best.M.Mean())
		}
	}
}

func TestAlphaTradesErrorForSize(t *testing.T) {
	u, o := peakUniverse(t, 6000)
	high, err := TopK(u, o, Options{K: 1, MinSupport: 0.02, Alpha: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	low, err := TopK(u, o, Options{K: 1, MinSupport: 0.02, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Lower α penalizes small slices more, so the winner cannot be smaller.
	if low[0].Count < high[0].Count {
		t.Errorf("α=0.5 winner (%d rows) smaller than α=0.99 winner (%d rows)",
			low[0].Count, high[0].Count)
	}
	if high[0].AvgError+1e-12 < low[0].AvgError {
		t.Errorf("α=0.99 winner error %v below α=0.5 winner %v", high[0].AvgError, low[0].AvgError)
	}
}

func TestDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Alpha != 0.95 || o.MinSupport != 0.01 || o.K != 10 {
		t.Errorf("defaults = %+v", o)
	}
	o2 := Options{Alpha: 2}.withDefaults()
	if o2.Alpha != 0.95 {
		t.Error("out-of-range alpha should fall back to default")
	}
}

func TestMaxLen(t *testing.T) {
	u, o := peakUniverse(t, 3000)
	got, err := TopK(u, o, Options{K: 50, MinSupport: 0.02, MaxLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got {
		if len(s.Itemset) > 1 {
			t.Errorf("MaxLen=1 returned %v", s.Itemset)
		}
	}
}

func TestSliceString(t *testing.T) {
	u, o := peakUniverse(t, 2000)
	got, err := TopK(u, o, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got[0].String(), "score=") {
		t.Errorf("String = %q", got[0].String())
	}
}

func TestPropagatesMinerError(t *testing.T) {
	u, o := peakUniverse(t, 500)
	if _, err := TopK(u, o, Options{MinSupport: 2}); err == nil {
		t.Error("invalid support should propagate the miner's error")
	}
}
