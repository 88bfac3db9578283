package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/fpm"
	"repro/internal/hierarchy"
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
	for k, rep := range reps {
		if len(rep.Subgroups) < 2 {
			t.Fatalf("report %d: %d subgroups; the case needs two", k, len(rep.Subgroups))
		}
		for i := 0; i+1 < len(rep.Subgroups); i++ {
			cur, next := rep.Subgroups[i].Itemset, rep.Subgroups[i+1].Itemset
			want := slices.Clone(next)
			_ = append(cur, &hierarchy.Item{})
			if !slices.Equal(next, want) {
				t.Fatalf("report %d: appending to subgroup %d changed subgroup %d from %s to %s", k, i, i+1, want, next)
			}
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

// benchReports keeps BenchmarkRank's result live.
var benchReports []*Report

// BenchmarkRank is the ranking stage alone: one op ranks a fixed mined
// result of over 100k itemsets (an Intentions-like table of 6,000 rows,
// its label as the statistic, hierarchical, s 0.07) and builds its report
// from the order, the work exploreUniverseMulti does after mining.
func BenchmarkRank(b *testing.B) {
	d := datagen.Intentions(datagen.Config{N: 6000, Seed: 1})
	label := make([]float64, len(d.Actual))
	for i, a := range d.Actual {
		if a {
			label[i] = 1
		}
	}
	o := outcome.Numeric("label", label)
	hs, err := discretize.Hierarchies(d.Table, o, discretize.TreeOptions{MinSupport: 0.1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	u := fpm.GeneralizedUniverse(d.Table, hs, o)
	res, err := fpm.Mine(u, o, fpm.Options{MinSupport: 0.07})
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Itemsets) < 100_000 {
		b.Fatalf("%d itemsets; the benchmark needs at least 100k", len(res.Itemsets))
	}
	bun := outcome.Single(o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchReports = rankReports(u, res, bun, 0)
	}
}
