package discretize

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/outcome"
)

// stepTable builds a dataset where the outcome is 1 exactly when x > cut:
// the sharpest possible divergence boundary.
func stepTable(n int, cut float64, seed int64) (*dataset.Table, *outcome.Outcome) {
	r := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	vals := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64() * 10
		if xs[i] > cut {
			vals[i] = 1
		}
	}
	t := dataset.NewBuilder().AddFloat("x", xs).MustBuild()
	return t, outcome.Numeric("step", vals)
}

func TestTreeFindsStepBoundary(t *testing.T) {
	for _, crit := range []Criterion{DivergenceGain, EntropyGain} {
		tab, o := stepTable(2000, 5.0, 1)
		h, err := Tree(tab, "x", o, TreeOptions{Criterion: crit, MinSupport: 0.1})
		if err != nil {
			t.Fatalf("%v: %v", crit, err)
		}
		// The first split (children of the root) must be at ≈ 5.
		root := h.Nodes[0]
		if len(root.Children) != 2 {
			t.Fatalf("%v: root not split", crit)
		}
		cut := h.Nodes[root.Children[0]].Item.Hi
		if math.Abs(cut-5.0) > 0.1 {
			t.Errorf("%v: first cut at %v, want ≈ 5", crit, cut)
		}
	}
}

func TestTreeRespectsSupport(t *testing.T) {
	tab, o := stepTable(1000, 3.0, 2)
	st := 0.15
	h, err := Tree(tab, "x", o, TreeOptions{MinSupport: st})
	if err != nil {
		t.Fatal(err)
	}
	minRows := int(math.Ceil(st * float64(tab.NumRows())))
	for i, n := range h.Nodes {
		if i == 0 {
			continue
		}
		if c := n.Item.Rows(tab).Count(); c < minRows {
			t.Errorf("node %d (%v) has %d rows < st·n = %d", i, n.Item, c, minRows)
		}
	}
	if err := h.ValidateOn(tab); err != nil {
		t.Fatal(err)
	}
}

func TestTreeConstantOutcomeNoSplit(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	tab := dataset.NewBuilder().AddFloat("x", xs).MustBuild()
	o := outcome.Numeric("const", make([]float64, 100))
	h, err := Tree(tab, "x", o, TreeOptions{MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Nodes) != 1 {
		t.Errorf("constant outcome grew %d nodes, want root only", len(h.Nodes))
	}
	if len(h.LeafItems()) != 0 {
		t.Error("root-only hierarchy must expose no leaf items")
	}
}

func TestTreeMaxDepth(t *testing.T) {
	tab, o := stepTable(2000, 5.0, 3)
	h, err := Tree(tab, "x", o, TreeOptions{MinSupport: 0.01, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.Nodes {
		if d := h.Depth(i); d > 2 {
			t.Errorf("node %d at depth %d > MaxDepth 2", i, d)
		}
	}
}

func TestTreeNaNRowsExcluded(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, math.NaN(), math.NaN()}
	vals := []float64{0, 0, 0, 0, 1, 1, 1, 1, 1, 1}
	tab := dataset.NewBuilder().AddFloat("x", xs).MustBuild()
	o := outcome.Numeric("v", vals)
	h, err := Tree(tab, "x", o, TreeOptions{MinSupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// NaN rows must satisfy no item.
	for _, it := range h.Items() {
		rows := it.Rows(tab)
		if rows.Get(8) || rows.Get(9) {
			t.Errorf("item %v covers a NaN row", it)
		}
	}
	// Support denominator includes the NaN rows: with st=0.2 each node needs
	// ≥ 2 of the 10 rows.
	minRows := 2
	for i, n := range h.Nodes {
		if i != 0 && n.Item.Rows(tab).Count() < minRows {
			t.Errorf("node %v below support", n.Item)
		}
	}
}

func TestTreeErrors(t *testing.T) {
	tab, o := stepTable(100, 5, 4)
	if _, err := Tree(tab, "x", o, TreeOptions{MinSupport: 0}); err == nil {
		t.Error("MinSupport 0 should fail")
	}
	if _, err := Tree(tab, "x", o, TreeOptions{MinSupport: 0.7}); err == nil {
		t.Error("MinSupport > 0.5 should fail")
	}
	cat := dataset.NewBuilder().AddCategorical("c", []string{"a", "b"}).MustBuild()
	o2 := outcome.Numeric("v", []float64{0, 1})
	if _, err := Tree(cat, "c", o2, TreeOptions{MinSupport: 0.1}); err == nil {
		t.Error("categorical attribute should fail")
	}
	short := outcome.Numeric("v", []float64{0, 1})
	if _, err := Tree(tab, "x", short, TreeOptions{MinSupport: 0.1}); err == nil {
		t.Error("outcome length mismatch should fail")
	}
	nonBool := outcome.Numeric("v", makeRange(100))
	if _, err := Tree(tab, "x", nonBool, TreeOptions{Criterion: EntropyGain, MinSupport: 0.1}); err == nil {
		t.Error("entropy criterion on non-boolean outcome should fail")
	}
}

func makeRange(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * 1.5
	}
	return out
}

func TestTreeSet(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 500
	a := make([]float64, n)
	b := make([]float64, n)
	vals := make([]float64, n)
	for i := range a {
		a[i] = r.Float64() * 10
		b[i] = r.Float64() * 10
		if a[i] > 5 {
			vals[i] = 1
		}
	}
	tab := dataset.NewBuilder().
		AddFloat("a", a).
		AddFloat("b", b).
		AddCategorical("c", repeatStrings([]string{"x", "y"}, n)).
		MustBuild()
	o := outcome.Numeric("v", vals)
	set, err := TreeSet(tab, o, TreeOptions{MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	attrs := set.Attrs()
	if len(attrs) != 2 || attrs[0] != "a" || attrs[1] != "b" {
		t.Errorf("Attrs = %v, want [a b]", attrs)
	}
	set2, err := TreeSet(tab, o, TreeOptions{MinSupport: 0.1}, "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(set2.Attrs()) != 1 {
		t.Errorf("exclude failed: %v", set2.Attrs())
	}
}

// TestHierarchies pins the one hierarchy assembly: trees in column order,
// then the taxonomies in the order given, then flat hierarchies for the
// other categorical columns in column order. A taxonomy replaces its
// column's tree or flat hierarchy, and an excluded attribute gets none,
// even when a taxonomy names it.
func TestHierarchies(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 400
	a := make([]float64, n)
	b := make([]float64, n)
	vals := make([]float64, n)
	for i := range a {
		a[i] = r.Float64() * 10
		b[i] = r.Float64() * 10
		if a[i] > 5 {
			vals[i] = 1
		}
	}
	tab := dataset.NewBuilder().
		AddCategorical("c1", repeatStrings([]string{"x", "y", "z"}, n)).
		AddFloat("a", a).
		AddCategorical("c2", repeatStrings([]string{"u", "v"}, n)).
		AddFloat("b", b).
		AddCategorical("c3", repeatStrings([]string{"p.1", "p.2", "q.1"}, n)).
		MustBuild()
	o := outcome.Numeric("v", vals)
	opts := TreeOptions{MinSupport: 0.1}
	tax1 := hierarchy.PathTaxonomy(tab, "c1", func(string) []string { return nil })
	tax3 := hierarchy.PathTaxonomy(tab, "c3", func(l string) []string { return []string{l[:1]} })
	cutsA, err := ManualCuts("a", []float64{5})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		taxonomies []*hierarchy.Hierarchy
		exclude    []string
		want       []string
	}{
		{"defaults", nil, nil, []string{"a", "b", "c1", "c2", "c3"}},
		{"taxonomies", []*hierarchy.Hierarchy{tax3, tax1}, nil, []string{"a", "b", "c3", "c1", "c2"}},
		{"manual cuts replace a tree", []*hierarchy.Hierarchy{cutsA}, nil, []string{"b", "a", "c1", "c2", "c3"}},
		{"excluded", []*hierarchy.Hierarchy{tax3, tax1}, []string{"b", "c1"}, []string{"a", "c3", "c2"}},
	}
	for _, tc := range cases {
		set, err := Hierarchies(tab, o, opts, tc.taxonomies, tc.exclude...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := set.Attrs(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: Attrs = %v, want %v", tc.name, got, tc.want)
		}
		for _, h := range tc.taxonomies {
			if got, ok := set.ByAttr[h.Attr]; ok && got != h {
				t.Errorf("%s: %s has hierarchy %p, want the taxonomy %p", tc.name, h.Attr, got, h)
			}
		}
	}

	set, err := Hierarchies(tab, o, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Tree(tab, "a", o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set.ByAttr["a"], tree) {
		t.Error("a: Hierarchies' tree differs from Tree")
	}
	if !reflect.DeepEqual(set.ByAttr["c2"], hierarchy.FlatCategorical(tab, "c2")) {
		t.Error("c2: Hierarchies' flat hierarchy differs from FlatCategorical")
	}
}

func repeatStrings(vals []string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	return out
}

func TestQuantileBalancedBins(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	tab := dataset.NewBuilder().AddFloat("x", xs).MustBuild()
	h, err := Quantile(tab, "x", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ValidateOn(tab); err != nil {
		t.Fatal(err)
	}
	leaves := h.LeafItems()
	if len(leaves) != 4 {
		t.Fatalf("leaves = %d, want 4", len(leaves))
	}
	for _, it := range leaves {
		c := it.Rows(tab).Count()
		if c < 200 || c > 300 {
			t.Errorf("bin %v has %d rows, want ≈ 250", it, c)
		}
	}
}

func TestQuantileDuplicateValuesMergeBins(t *testing.T) {
	// 90% zeros: many quantile cuts collapse onto 0.
	xs := make([]float64, 100)
	for i := 90; i < 100; i++ {
		xs[i] = float64(i)
	}
	tab := dataset.NewBuilder().AddFloat("x", xs).MustBuild()
	h, err := Quantile(tab, "x", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ValidateOn(tab); err != nil {
		t.Fatal(err)
	}
	if got := len(h.LeafItems()); got >= 10 {
		t.Errorf("duplicate cuts should merge bins, got %d", got)
	}
	// No empty bins.
	for _, it := range h.LeafItems() {
		if it.Rows(tab).Count() == 0 {
			t.Errorf("empty bin %v", it)
		}
	}
}

func TestUniformWidth(t *testing.T) {
	xs := makeRange(100) // 0 .. 148.5
	tab := dataset.NewBuilder().AddFloat("x", xs).MustBuild()
	h, err := UniformWidth(tab, "x", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.ValidateOn(tab); err != nil {
		t.Fatal(err)
	}
	leaves := h.LeafItems()
	if len(leaves) != 5 {
		t.Fatalf("leaves = %d, want 5", len(leaves))
	}
	// Interior bins all have width (148.5-0)/5 = 29.7.
	for _, it := range leaves {
		if math.IsInf(it.Lo, -1) || math.IsInf(it.Hi, 1) {
			continue
		}
		if w := it.Hi - it.Lo; math.Abs(w-29.7) > 1e-9 {
			t.Errorf("bin %v has width %v, want 29.7", it, w)
		}
	}
}

func TestUniformWidthConstantColumn(t *testing.T) {
	tab := dataset.NewBuilder().AddFloat("x", []float64{2, 2, 2}).MustBuild()
	h, err := UniformWidth(tab, "x", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.LeafItems()) != 0 {
		t.Error("constant column should produce no bins")
	}
}

func TestManualCuts(t *testing.T) {
	h, err := ManualCuts("age", []float64{25, 45})
	if err != nil {
		t.Fatal(err)
	}
	leaves := h.LeafItems()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d, want 3", len(leaves))
	}
	if leaves[0].String() != "age≤25" || leaves[2].String() != "age>45" {
		t.Errorf("leaves = %v, %v, %v", leaves[0], leaves[1], leaves[2])
	}
	if _, err := ManualCuts("age", []float64{45, 25}); err == nil {
		t.Error("non-increasing cuts should fail")
	}
}

func TestBinArgumentValidation(t *testing.T) {
	tab := dataset.NewBuilder().AddFloat("x", []float64{1, 2}).MustBuild()
	if _, err := Quantile(tab, "x", 1); err == nil {
		t.Error("quantile bins < 2 should fail")
	}
	if _, err := UniformWidth(tab, "x", 0); err == nil {
		t.Error("uniform bins < 2 should fail")
	}
	empty := dataset.NewBuilder().AddFloat("x", []float64{math.NaN()}).MustBuild()
	if _, err := Quantile(empty, "x", 2); err == nil {
		t.Error("all-NaN column should fail")
	}
	if _, err := UniformWidth(empty, "x", 2); err == nil {
		t.Error("all-NaN column should fail")
	}
}

func TestCriterionString(t *testing.T) {
	if DivergenceGain.String() != "divergence" || EntropyGain.String() != "entropy" {
		t.Error("Criterion.String wrong")
	}
	if Criterion(9).String() == "" {
		t.Error("unknown criterion should still render")
	}
}

// Property: for random data and random st, the tree's leaves partition the
// non-NaN rows and every non-root node satisfies the support constraint.
func TestQuickTreeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 100 + r.Intn(400)
		xs := make([]float64, n)
		vals := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 5
			if r.Float64() < 0.3+0.4*sigmoid(xs[i]) {
				vals[i] = 1
			}
		}
		tab := dataset.NewBuilder().AddFloat("x", xs).MustBuild()
		o := outcome.Numeric("v", vals)
		st := 0.05 + r.Float64()*0.2
		crit := DivergenceGain
		if r.Intn(2) == 0 {
			crit = EntropyGain
		}
		h, err := Tree(tab, "x", o, TreeOptions{Criterion: crit, MinSupport: st})
		if err != nil {
			return false
		}
		if h.ValidateOn(tab) != nil {
			return false
		}
		minRows := int(math.Ceil(st * float64(n)))
		for i, node := range h.Nodes {
			if i != 0 && node.Item.Rows(tab).Count() < minRows {
				return false
			}
		}
		// Leaves partition all rows (no NaNs here).
		if len(h.LeafItems()) > 0 {
			union := bitvec.New(n)
			for _, it := range h.LeafItems() {
				rows := it.Rows(tab)
				if rows.Intersects(union) {
					return false
				}
				union.Or(rows)
			}
			if union.Count() != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Property: every split the divergence tree makes has nonnegative gain, and
// children means straddle the parent mean (one ≥, one ≤).
func TestQuickSplitMeansStraddleParent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 200 + r.Intn(200)
		xs := make([]float64, n)
		vals := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 10
			vals[i] = r.Float64() * (1 + xs[i])
		}
		tab := dataset.NewBuilder().AddFloat("x", xs).MustBuild()
		o := outcome.Numeric("v", vals)
		h, err := Tree(tab, "x", o, TreeOptions{MinSupport: 0.1})
		if err != nil {
			return false
		}
		for i, node := range h.Nodes {
			if len(node.Children) != 2 {
				continue
			}
			pm := o.StatOf(node.Item.Rows(tab))
			if i == 0 {
				pm = o.GlobalMean()
			}
			m1 := o.StatOf(h.Nodes[node.Children[0]].Item.Rows(tab))
			m2 := o.StatOf(h.Nodes[node.Children[1]].Item.Rows(tab))
			lo, hi := math.Min(m1, m2), math.Max(m1, m2)
			if !(lo <= pm+1e-9 && pm-1e-9 <= hi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The hierarchical tree's leaf cut set must be identical whether we read
// leaves or reconstruct from the item hierarchy — i.e. Items() is a strict
// superset of LeafItems().
func TestItemsSupersetOfLeaves(t *testing.T) {
	// A graded outcome (probability rising with x) keeps splits profitable
	// below the first cut, so the tree grows internal levels.
	r := rand.New(rand.NewSource(9))
	n := 2000
	xs := make([]float64, n)
	vals := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64() * 10
		if r.Float64() < xs[i]/10 {
			vals[i] = 1
		}
	}
	tab := dataset.NewBuilder().AddFloat("x", xs).MustBuild()
	o := outcome.Numeric("v", vals)
	h, err := Tree(tab, "x", o, TreeOptions{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	all := map[string]bool{}
	for _, it := range h.Items() {
		all[it.String()] = true
	}
	for _, it := range h.LeafItems() {
		if !all[it.String()] {
			t.Errorf("leaf %v missing from Items()", it)
		}
	}
	if len(h.Items()) <= len(h.LeafItems()) {
		t.Error("hierarchy should contain internal items beyond leaves")
	}
}

func BenchmarkTreeDiscretize(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	n := 100_000
	xs := make([]float64, n)
	vals := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64() * 10
		if r.Float64() < sigmoid(xs[i]/5) {
			vals[i] = 1
		}
	}
	tab := dataset.NewBuilder().AddFloat("x", xs).MustBuild()
	o := outcome.Numeric("v", vals)
	for _, crit := range []Criterion{DivergenceGain, EntropyGain} {
		b.Run(crit.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Tree(tab, "x", o, TreeOptions{Criterion: crit, MinSupport: 0.05}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkQuantile(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	xs := make([]float64, 100_000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	tab := dataset.NewBuilder().AddFloat("x", xs).MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Quantile(tab, "x", 8); err != nil {
			b.Fatal(err)
		}
	}
}
