package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/fpm"
	"repro/internal/hierarchy"
	"repro/internal/model"
	"repro/internal/outcome"
)

// fixture builds a dataset with a planted divergent subgroup: error rate is
// much higher where x>7 AND group=g1.
func fixture(t *testing.T, n int, seed int64) (*dataset.Table, *outcome.Outcome, *hierarchy.Set) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	g := make([]string, n)
	actual := make([]bool, n)
	pred := make([]bool, n)
	groups := []string{"g0", "g1", "g2"}
	for i := 0; i < n; i++ {
		x[i] = r.Float64() * 10
		g[i] = groups[r.Intn(3)]
		actual[i] = r.Intn(2) == 0
		p := 0.05
		if x[i] > 7 && g[i] == "g1" {
			p = 0.8
		}
		pred[i] = actual[i]
		if r.Float64() < p {
			pred[i] = !pred[i]
		}
	}
	tab := dataset.NewBuilder().AddFloat("x", x).AddCategorical("g", g).MustBuild()
	o := outcome.ErrorRate(actual, pred)
	hs, err := discretize.TreeSet(tab, o, discretize.TreeOptions{MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	hs.Add(hierarchy.FlatCategorical(tab, "g"))
	return tab, o, hs
}

func TestExploreFindsPlantedSubgroup(t *testing.T) {
	tab, o, hs := fixture(t, 3000, 1)
	rep, err := Explore(tab, Config{
		Outcome: o, Hierarchies: hs, MinSupport: 0.05, Mode: Hierarchical,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := rep.Top()
	if top == nil {
		t.Fatal("no subgroups")
	}
	// The top subgroup must involve both x and g, with x's interval around
	// (7, ...] and the g1 group, and a strongly positive divergence.
	s := top.Itemset.String()
	if !strings.Contains(s, "x>") || !strings.Contains(s, "g=g1") {
		t.Errorf("top subgroup %q does not isolate the planted anomaly", s)
	}
	if top.Divergence < 0.3 {
		t.Errorf("top divergence %v too small", top.Divergence)
	}
	if top.T < 5 {
		t.Errorf("top t-value %v too small", top.T)
	}
}

func TestHierarchicalBeatsBase(t *testing.T) {
	tab, o, hs := fixture(t, 3000, 2)
	base, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.05, Mode: Base})
	if err != nil {
		t.Fatal(err)
	}
	hier, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.05, Mode: Hierarchical})
	if err != nil {
		t.Fatal(err)
	}
	if hier.MaxAbsDivergence()+1e-12 < base.MaxAbsDivergence() {
		t.Errorf("hierarchical max |Δ| %v < base %v (superset guarantee violated)",
			hier.MaxAbsDivergence(), base.MaxAbsDivergence())
	}
	if hier.NumItems <= base.NumItems {
		t.Errorf("hierarchical universe (%d) should exceed base (%d)", hier.NumItems, base.NumItems)
	}
}

func TestSubgroupsSortedByAbsDivergence(t *testing.T) {
	tab, o, hs := fixture(t, 1500, 3)
	rep, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rep.Subgroups); i++ {
		if math.Abs(rep.Subgroups[i].Divergence) > math.Abs(rep.Subgroups[i-1].Divergence)+1e-12 {
			t.Fatal("subgroups not sorted by |divergence|")
		}
	}
}

// TestSubgroupItemsetsDoNotAlias pins the clipping of the itemsets a
// report carves from one slab: appending to one subgroup's Itemset must
// leave its neighbour's items alone, in every report of a bundle.
func TestSubgroupItemsetsDoNotAlias(t *testing.T) {
	tab, o, hs := fixture(t, 1500, 3)
	b, err := outcome.NewBundle(o, outcomeOfLen(t, tab.NumRows()))
	if err != nil {
		t.Fatal(err)
	}
	reps, err := ExploreMulti(tab, Config{Hierarchies: hs, MinSupport: 0.05}, b)
	if err != nil {
		t.Fatal(err)
	}
	noAlias(t, "explore", reps)
	// A report built in chunks carves each chunk from a slab of its own;
	// the check must hold across the chunk boundaries too.
	u, res, o := rankFixture(t)
	reps, err = rankReports(u, res, outcome.Single(o), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c := engine.Chunks(len(res.Itemsets), 3, fpm.RankChunkMin); c != 3 {
		t.Fatalf("%d itemsets build in %d chunks; the case needs 3", len(res.Itemsets), c)
	}
	noAlias(t, "3 chunks", reps)
}

// noAlias fails when appending to a subgroup's Itemset changes the next
// subgroup's, in any of reps.
func noAlias(t *testing.T, label string, reps []*Report) {
	t.Helper()
	for k, rep := range reps {
		if len(rep.Subgroups) < 2 {
			t.Fatalf("%s report %d: %d subgroups; the case needs two", label, k, len(rep.Subgroups))
		}
		for i := 0; i+1 < len(rep.Subgroups); i++ {
			cur, next := rep.Subgroups[i].Itemset, rep.Subgroups[i+1].Itemset
			want := slices.Clone(next)
			_ = append(cur, &hierarchy.Item{})
			if !slices.Equal(next, want) {
				t.Fatalf("%s report %d: appending to subgroup %d changed subgroup %d from %s to %s", label, k, i, i+1, want, next)
			}
		}
	}
}

// TestRankReportsWorkersMatchSerial pins parallel ranking to the serial
// order on BenchmarkRank's fixture, whose ties on key, length and count
// (42,326 adjacent pairs of 112,705 itemsets) leave the order to the last
// tie-break: fpm.Rank at workers {2, 3, 8} gives the order of workers 1
// element for element, and rankReports built on those workers equals the
// serial build field for field.
func TestRankReportsWorkersMatchSerial(t *testing.T) {
	u, res, o := rankFixture(t)
	items := res.Itemsets
	order := fpm.Rank(items, 0, o, 1)
	ties := 0
	for i := 1; i < len(order); i++ {
		a, b := &items[order[i-1]], &items[order[i]]
		if math.Abs(o.DivergenceFromMoments(a.M)) == math.Abs(o.DivergenceFromMoments(b.M)) && len(a.Items) == len(b.Items) && a.Count == b.Count {
			ties++
		}
	}
	if ties < 40_000 {
		t.Fatalf("%d adjacent pairs tied on key, length and count; the case needs 40k", ties)
	}
	for _, w := range []int{2, 3, 8} {
		if got := fpm.Rank(items, 0, o, w); !slices.Equal(got, order) {
			t.Fatalf("workers=%d: order differs from workers 1", w)
		}
	}
	bun := outcome.Single(o)
	want, err := rankReports(u, res, bun, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		got, err := rankReports(u, res, bun, 0, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: reports differ from the serial build", w)
		}
	}
}

func TestSupportThresholdHonored(t *testing.T) {
	tab, o, hs := fixture(t, 1000, 4)
	s := 0.08
	rep, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: s})
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range rep.Subgroups {
		if sg.Support < s-1e-12 {
			t.Fatalf("subgroup %v below support threshold", sg.String())
		}
		// Support and count must be consistent.
		if math.Abs(sg.Support-float64(sg.Count)/float64(rep.NumRows)) > 1e-12 {
			t.Fatal("support/count inconsistent")
		}
	}
}

func TestStatisticDivergenceConsistency(t *testing.T) {
	tab, o, hs := fixture(t, 1200, 5)
	rep, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range rep.Subgroups {
		if math.Abs(sg.Statistic-rep.Global-sg.Divergence) > 1e-12 {
			t.Fatalf("f(S) - f(D) != Δ for %v", sg.String())
		}
		// Cross-check against a direct recomputation from the itemset.
		rows := sg.Itemset.Rows(tab)
		if rows.Count() != sg.Count {
			t.Fatalf("count mismatch for %v", sg.String())
		}
		if math.Abs(o.DivergenceOf(rows)-sg.Divergence) > 1e-9 {
			t.Fatalf("divergence mismatch for %v", sg.String())
		}
		if math.Abs(o.TValueOf(rows)-sg.T) > 1e-9 {
			t.Fatalf("t mismatch for %v", sg.String())
		}
	}
}

func TestExploreConfigErrors(t *testing.T) {
	tab, o, hs := fixture(t, 200, 6)
	if _, err := Explore(tab, Config{Hierarchies: hs, MinSupport: 0.1}); err == nil {
		t.Error("nil outcome should fail")
	}
	if _, err := Explore(tab, Config{Outcome: o, MinSupport: 0.1}); err == nil {
		t.Error("nil hierarchies should fail")
	}
	if _, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.1, Mode: Mode(9)}); err == nil {
		t.Error("unknown mode should fail")
	}
	if _, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0}); err == nil {
		t.Error("zero support should fail")
	}
	bad := hierarchy.NewSet()
	h := hierarchy.NewRooted("x", hierarchy.ContinuousItem("x", math.Inf(-1), math.Inf(1)))
	h.AddChild(0, hierarchy.ContinuousItem("x", math.Inf(-1), 1))
	h.AddChild(0, hierarchy.ContinuousItem("x", 2, math.Inf(1))) // gap
	bad.Add(h)
	if _, err := Explore(tab, Config{Outcome: o, Hierarchies: bad, MinSupport: 0.1}); err == nil {
		t.Error("invalid hierarchy should fail")
	}
}

// TestExploreUniverseNilOutcome checks the prebuilt-universe entry point
// rejects a missing outcome with the same error Explore returns, rather
// than dereferencing it inside the miner.
func TestExploreUniverseNilOutcome(t *testing.T) {
	tab, o, hs := fixture(t, 200, 6)
	u := fpm.GeneralizedUniverse(tab, hs, o)
	_, err := ExploreUniverse(u, Config{MinSupport: 0.1})
	if err == nil || !strings.Contains(err.Error(), "Config.Outcome is nil") {
		t.Errorf("ExploreUniverse with nil outcome: err = %v, want the nil-outcome error", err)
	}
}

func TestReportHelpers(t *testing.T) {
	tab, o, hs := fixture(t, 1500, 7)
	rep, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.TopK(3); len(got) != 3 {
		t.Errorf("TopK(3) = %d", len(got))
	}
	if got := rep.TopK(10_000); len(got) != len(rep.Subgroups) {
		t.Error("TopK should clamp")
	}
	if rep.MaxDivergence() <= 0 {
		t.Error("planted anomaly should give positive max divergence")
	}
	if rep.MaxAbsDivergence() < rep.MaxDivergence() {
		t.Error("MaxAbs < MaxPositive")
	}
	for _, sg := range rep.FilterMinT(5) {
		if math.Abs(sg.T) < 5 {
			t.Error("FilterMinT returned low-t subgroup")
		}
	}
	for _, sg := range rep.FilterLength(2) {
		if len(sg.Itemset) != 2 {
			t.Error("FilterLength wrong")
		}
	}
	top := rep.Top()
	if found := rep.Find(top.Itemset.String()); found == nil || found.Divergence != top.Divergence {
		t.Error("Find failed to locate top subgroup")
	}
	if rep.Find("no such pattern") != nil {
		t.Error("Find of absent pattern should be nil")
	}
	tbl := rep.Table(5)
	if !strings.Contains(tbl, "itemset") || len(strings.Split(strings.TrimSpace(tbl), "\n")) != 6 {
		t.Errorf("Table(5) malformed:\n%s", tbl)
	}
}

func TestEmptyReportHelpers(t *testing.T) {
	rep := &Report{}
	if rep.Top() != nil || rep.MaxAbsDivergence() != 0 || rep.MaxDivergence() != 0 {
		t.Error("empty report helpers should be zero-valued")
	}
}

func TestAlgorithmsAgreeThroughExplore(t *testing.T) {
	tab, o, hs := fixture(t, 1000, 8)
	var reps [2]*Report
	for i, alg := range []fpm.Algorithm{fpm.Apriori, fpm.FPGrowth} {
		rep, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.05, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	if len(reps[0].Subgroups) != len(reps[1].Subgroups) {
		t.Fatalf("different subgroup counts: %d vs %d", len(reps[0].Subgroups), len(reps[1].Subgroups))
	}
	if math.Abs(reps[0].MaxAbsDivergence()-reps[1].MaxAbsDivergence()) > 1e-12 {
		t.Error("algorithms disagree on max divergence")
	}
}

func TestPolarityPruningPreservesQualityHere(t *testing.T) {
	tab, o, hs := fixture(t, 2000, 9)
	full, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.05, PolarityPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Mining.Candidates > full.Mining.Candidates {
		t.Error("pruning should not increase candidate count")
	}
	// On this planted-anomaly dataset the top subgroup combines items that
	// individually diverge positively, so pruning keeps it.
	if math.Abs(pruned.MaxAbsDivergence()-full.MaxAbsDivergence()) > 1e-9 {
		t.Errorf("pruned max |Δ| %v differs from complete %v",
			pruned.MaxAbsDivergence(), full.MaxAbsDivergence())
	}
}

func TestDescribeHierarchy(t *testing.T) {
	tab, o, hs := fixture(t, 1000, 10)
	desc := DescribeHierarchy(tab, hs.ByAttr["x"], o)
	if !strings.Contains(desc, "root sup=1.00") {
		t.Errorf("missing root line:\n%s", desc)
	}
	if !strings.Contains(desc, "Δ=") || !strings.Contains(desc, "x≤") {
		t.Errorf("missing node annotations:\n%s", desc)
	}
}

func TestModeString(t *testing.T) {
	if Hierarchical.String() != "hierarchical" || Base.String() != "base" {
		t.Error("Mode.String wrong")
	}
	if Mode(5).String() == "" {
		t.Error("unknown mode should render")
	}
}

func TestSubgroupString(t *testing.T) {
	tab, o, hs := fixture(t, 800, 11)
	rep, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Top().String()
	if !strings.Contains(s, "sup=") || !strings.Contains(s, "Δ=") {
		t.Errorf("Subgroup.String = %q", s)
	}
}

// outcomeOfLen builds a tiny outcome of the given length for error-path
// tests.
func outcomeOfLen(t *testing.T, n int) *outcome.Outcome {
	t.Helper()
	vals := make([]float64, n)
	vals[0] = 1
	return outcome.Numeric("tiny", vals)
}

// rankFixture mines BenchmarkRank/intentions' input once per test
// binary: over 100k itemsets of an Intentions-like table of 6,000 rows,
// its label as the statistic, hierarchical, s 0.07.
func rankFixture(tb testing.TB) (*fpm.Universe, *fpm.Result, *outcome.Outcome) {
	return intentionsFixture.get(tb, func() (*dataset.Table, *outcome.Outcome, error) {
		d := datagen.Intentions(datagen.Config{N: 6000, Seed: 1})
		label := make([]float64, len(d.Actual))
		for i, a := range d.Actual {
			if a {
				label[i] = 1
			}
		}
		return d.Table, outcome.Numeric("label", label), nil
	}, 0.1, 0.07, 100_000)
}

// tiesFixture mines BenchmarkRank/ties' input once per test binary:
// Figure 2's German cell at s 0.05, hierarchical, the error rate of a
// random forest trained on the 1,000-row German-like table. The forest
// fits its training rows, so most subgroups' error rate is 0 and nearly
// every key ties: over 300k itemsets.
func tiesFixture(tb testing.TB) (*fpm.Universe, *fpm.Result, *outcome.Outcome) {
	return germanFixture.get(tb, func() (*dataset.Table, *outcome.Outcome, error) {
		d := datagen.German(datagen.Config{N: 1000, Seed: 1})
		f, err := model.TrainForest(d.Table, d.Table.Names(), d.Actual, model.ForestOptions{NumTrees: 15, Seed: 2})
		if err != nil {
			return nil, nil, err
		}
		pred, err := f.Predict(d.Table)
		if err != nil {
			return nil, nil, err
		}
		return d.Table, outcome.ErrorRate(d.Actual, pred), nil
	}, 0.1, 0.05, 300_000)
}

// minedFixture is a mined result built once per test binary.
type minedFixture struct {
	once sync.Once
	u    *fpm.Universe
	res  *fpm.Result
	o    *outcome.Outcome
	err  error
}

// get builds the fixture on its first call: load's table and outcome,
// their hierarchies at tree support st, hierarchical mining at support
// s, and a check that it mined at least minItemsets itemsets.
func (f *minedFixture) get(tb testing.TB, load func() (*dataset.Table, *outcome.Outcome, error), st, s float64, minItemsets int) (*fpm.Universe, *fpm.Result, *outcome.Outcome) {
	tb.Helper()
	f.once.Do(func() {
		var tab *dataset.Table
		if tab, f.o, f.err = load(); f.err != nil {
			return
		}
		hs, err := discretize.Hierarchies(tab, f.o, discretize.TreeOptions{MinSupport: st}, nil)
		if err != nil {
			f.err = err
			return
		}
		f.u = fpm.GeneralizedUniverse(tab, hs, f.o)
		f.res, f.err = fpm.Mine(f.u, f.o, fpm.Options{MinSupport: s})
		if f.err == nil && len(f.res.Itemsets) < minItemsets {
			f.err = fmt.Errorf("%d itemsets; the fixture needs at least %d", len(f.res.Itemsets), minItemsets)
		}
	})
	if f.err != nil {
		tb.Fatal(f.err)
	}
	return f.u, f.res, f.o
}

var intentionsFixture, germanFixture minedFixture

// benchReports keeps BenchmarkRank's result live.
var benchReports []*Report

// BenchmarkRank is the ranking stage alone: one op ranks a mined result
// and builds its report from the order, the work exploreUniverseMulti
// does after mining, on the default workers (every core: run it with
// -cpu 1,2 to compare the serial and parallel paths). intentions ranks
// rankFixture's result, whose ties leave 42,326 of 112,705 adjacent
// pairs to the itemsets; ties ranks tiesFixture's, where nearly every
// pair ties on |divergence|.
func BenchmarkRank(b *testing.B) {
	for _, fx := range []struct {
		name string
		load func(testing.TB) (*fpm.Universe, *fpm.Result, *outcome.Outcome)
	}{{"intentions", rankFixture}, {"ties", tiesFixture}} {
		b.Run(fx.name, func(b *testing.B) {
			u, res, o := fx.load(b)
			bun := outcome.Single(o)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if benchReports, err = rankReports(u, res, bun, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
