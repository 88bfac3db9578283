package fpm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/hierarchy"
	"repro/internal/outcome"
	"repro/internal/stats"
)

// randomUniverse builds a small random dataset with two continuous and one
// categorical attribute, tree-discretized hierarchies, and an error-rate
// outcome. It is the shared fixture for equivalence tests.
func randomUniverse(t *testing.T, seed int64, n int, generalized bool) (*Universe, *outcome.Outcome) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]string, n)
	actual := make([]bool, n)
	pred := make([]bool, n)
	cats := []string{"red", "green", "blue"}
	for i := 0; i < n; i++ {
		a[i] = r.Float64() * 10
		b[i] = r.NormFloat64() * 3
		c[i] = cats[r.Intn(len(cats))]
		actual[i] = r.Intn(2) == 0
		// Error concentrates where a is large and c is red.
		errP := 0.1
		if a[i] > 7 {
			errP += 0.4
		}
		if c[i] == "red" {
			errP += 0.2
		}
		pred[i] = actual[i]
		if r.Float64() < errP {
			pred[i] = !pred[i]
		}
	}
	tab := dataset.NewBuilder().
		AddFloat("a", a).
		AddFloat("b", b).
		AddCategorical("c", c).
		MustBuild()
	o := outcome.ErrorRate(actual, pred)
	hs, err := discretize.TreeSet(tab, o, discretize.TreeOptions{MinSupport: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	hs.Add(hierarchy.FlatCategorical(tab, "c"))
	if generalized {
		return GeneralizedUniverse(tab, hs, o), o
	}
	return BaseUniverse(tab, hs, o), o
}

// mineBrute enumerates every itemset (one item per attribute) by exhaustive
// recursion, as a correctness oracle.
func mineBrute(u *Universe, o *outcome.Outcome, opt Options, minCount int) []MinedItemset {
	var out []MinedItemset
	var rec func(start int, items []int, rows *bitvec.Vector)
	rec = func(start int, items []int, rows *bitvec.Vector) {
		for i := start; i < len(u.Items); i++ {
			conflict := false
			for _, j := range items {
				if u.AttrID[j] == u.AttrID[i] {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			if opt.PolarityPrune && len(items) >= 1 {
				mismatch := false
				for _, j := range items {
					if u.Polarity[j] != u.Polarity[i] {
						mismatch = true
						break
					}
				}
				if mismatch {
					continue
				}
			}
			var newRows *bitvec.Vector
			if rows == nil {
				newRows = u.Rows[i].Dense().Clone()
			} else {
				newRows = u.Rows[i].AndInto(rows, bitvec.New(u.NumRows))
			}
			count := newRows.Count()
			if count < minCount {
				continue
			}
			newItems := append(append([]int{}, items...), i)
			out = append(out, MinedItemset{Items: newItems, Count: count, M: o.MomentsOf(newRows)})
			if opt.MaxLen == 0 || len(newItems) < opt.MaxLen {
				rec(i+1, newItems, newRows)
			}
		}
	}
	rec(0, nil, nil)
	return out
}

func canonicalize(items []MinedItemset) map[string]MinedItemset {
	m := map[string]MinedItemset{}
	for _, it := range items {
		s := append([]int(nil), it.Items...)
		sort.Ints(s)
		m[fmt.Sprint(s)] = it
	}
	return m
}

func momentsClose(a, b stats.Moments) bool {
	return a.N == b.N && math.Abs(a.Sum-b.Sum) < 1e-9 && math.Abs(a.SumSq-b.SumSq) < 1e-6
}

func TestAprioriMatchesFPGrowth(t *testing.T) {
	for _, generalized := range []bool{false, true} {
		for _, prune := range []bool{false, true} {
			for _, s := range []float64{0.02, 0.05, 0.1} {
				name := fmt.Sprintf("gen=%v/prune=%v/s=%v", generalized, prune, s)
				u, o := randomUniverse(t, 42, 800, generalized)
				ra, err := Mine(u, o, Options{MinSupport: s, PolarityPrune: prune, Algorithm: Apriori})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rf, err := Mine(u, o, Options{MinSupport: s, PolarityPrune: prune, Algorithm: FPGrowth})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ma, mf := canonicalize(ra.Itemsets), canonicalize(rf.Itemsets)
				if len(ma) != len(mf) {
					t.Errorf("%s: apriori %d itemsets, fp-growth %d", name, len(ma), len(mf))
				}
				for k, va := range ma {
					vf, ok := mf[k]
					if !ok {
						t.Errorf("%s: itemset %v missing from fp-growth", name, u.Itemset(va.Items))
						continue
					}
					if va.Count != vf.Count || !momentsClose(va.M, vf.M) {
						t.Errorf("%s: itemset %v stats differ: apriori (%d,%+v) vs fp (%d,%+v)",
							name, u.Itemset(va.Items), va.Count, va.M, vf.Count, vf.M)
					}
				}
			}
		}
	}
}

func TestMinersMatchBruteForce(t *testing.T) {
	for _, generalized := range []bool{false, true} {
		for _, prune := range []bool{false, true} {
			u, o := randomUniverse(t, 7, 400, generalized)
			opt := Options{MinSupport: 0.05, PolarityPrune: prune}
			minCount := int(math.Ceil(opt.MinSupport * float64(u.NumRows)))
			want := canonicalize(mineBrute(u, o, opt, minCount))
			for _, alg := range []Algorithm{Apriori, FPGrowth} {
				opt.Algorithm = alg
				res, err := Mine(u, o, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := canonicalize(res.Itemsets)
				if len(got) != len(want) {
					t.Errorf("gen=%v prune=%v %v: %d itemsets, brute force %d",
						generalized, prune, alg, len(got), len(want))
				}
				for k, w := range want {
					g, ok := got[k]
					if !ok {
						t.Errorf("gen=%v prune=%v %v: missing %v", generalized, prune, alg, u.Itemset(w.Items))
						continue
					}
					if g.Count != w.Count || !momentsClose(g.M, w.M) {
						t.Errorf("gen=%v prune=%v %v: stats differ for %v", generalized, prune, alg, u.Itemset(w.Items))
					}
				}
			}
		}
	}
}

// The paper's superset guarantee: for the same support threshold, the
// hierarchical exploration finds itemsets at least as divergent as the base
// exploration, because generalized itemsets are a superset of base itemsets.
func TestGeneralizedSupersetGuarantee(t *testing.T) {
	for _, s := range []float64{0.02, 0.05, 0.1} {
		ub, o := randomUniverse(t, 99, 1000, false)
		ug, _ := randomUniverse(t, 99, 1000, true)
		rb, err := Mine(ub, o, Options{MinSupport: s})
		if err != nil {
			t.Fatal(err)
		}
		rg, err := Mine(ug, o, Options{MinSupport: s})
		if err != nil {
			t.Fatal(err)
		}
		maxAbs := func(r *Result) float64 {
			best := 0.0
			for _, m := range r.Itemsets {
				if d := math.Abs(o.DivergenceFromMoments(m.M)); d > best {
					best = d
				}
			}
			return best
		}
		if len(rg.Itemsets) < len(rb.Itemsets) {
			t.Errorf("s=%v: generalized found %d < base %d itemsets", s, len(rg.Itemsets), len(rb.Itemsets))
		}
		if maxAbs(rg)+1e-12 < maxAbs(rb) {
			t.Errorf("s=%v: generalized max |Δ| %v < base %v", s, maxAbs(rg), maxAbs(rb))
		}
	}
}

func TestPolarityPruneKeepsSingletons(t *testing.T) {
	u, o := randomUniverse(t, 5, 500, true)
	full, err := Mine(u, o, Options{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Mine(u, o, Options{MinSupport: 0.05, PolarityPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	singles := func(r *Result) int {
		c := 0
		for _, m := range r.Itemsets {
			if len(m.Items) == 1 {
				c++
			}
		}
		return c
	}
	if singles(full) != singles(pruned) {
		t.Errorf("pruning changed singleton count: %d vs %d", singles(full), singles(pruned))
	}
	if len(pruned.Itemsets) > len(full.Itemsets) {
		t.Error("pruned search returned more itemsets than complete search")
	}
	// Every pruned itemset of length ≥ 2 is polarity-uniform.
	for _, m := range pruned.Itemsets {
		if len(m.Items) < 2 {
			continue
		}
		p := u.Polarity[m.Items[0]]
		for _, it := range m.Items[1:] {
			if u.Polarity[it] != p {
				t.Fatalf("pruned result contains mixed-polarity itemset %v", u.Itemset(m.Items))
			}
		}
	}
	// Pruned results are a subset of complete results with identical stats.
	fullMap := canonicalize(full.Itemsets)
	for k, g := range canonicalize(pruned.Itemsets) {
		w, ok := fullMap[k]
		if !ok {
			t.Fatalf("pruned itemset %v absent from complete search", u.Itemset(g.Items))
		}
		if g.Count != w.Count || !momentsClose(g.M, w.M) {
			t.Fatalf("pruned stats differ for %v", u.Itemset(g.Items))
		}
	}
}

func TestMaxLen(t *testing.T) {
	u, o := randomUniverse(t, 11, 500, true)
	for _, alg := range []Algorithm{Apriori, FPGrowth} {
		res, err := Mine(u, o, Options{MinSupport: 0.05, MaxLen: 2, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range res.Itemsets {
			if len(m.Items) > 2 {
				t.Errorf("%v: itemset %v exceeds MaxLen", alg, u.Itemset(m.Items))
			}
		}
		// MaxLen=2 results must equal the length ≤ 2 slice of the full run.
		fullRes, err := Mine(u, o, Options{MinSupport: 0.05, Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, m := range fullRes.Itemsets {
			if len(m.Items) <= 2 {
				want++
			}
		}
		if len(res.Itemsets) != want {
			t.Errorf("%v: MaxLen=2 found %d itemsets, want %d", alg, len(res.Itemsets), want)
		}
		// A negative bound is an error for both miners, not "singletons
		// only" for one and "unlimited" for the other.
		if _, err := Mine(u, o, Options{MinSupport: 0.05, MaxLen: -1, Algorithm: alg}); err == nil {
			t.Errorf("%v: MaxLen=-1 should fail", alg)
		}
	}
}

func TestOneItemPerAttribute(t *testing.T) {
	u, o := randomUniverse(t, 13, 600, true)
	res, err := Mine(u, o, Options{MinSupport: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Itemsets {
		seen := map[int]bool{}
		for _, it := range m.Items {
			if seen[u.AttrID[it]] {
				t.Fatalf("itemset %v uses attribute %q twice", u.Itemset(m.Items), u.Attr(u.AttrID[it]))
			}
			seen[u.AttrID[it]] = true
		}
	}
}

func TestSupportMonotone(t *testing.T) {
	u, o := randomUniverse(t, 17, 600, true)
	prev := -1
	for _, s := range []float64{0.2, 0.1, 0.05, 0.02} {
		res, err := Mine(u, o, Options{MinSupport: s})
		if err != nil {
			t.Fatal(err)
		}
		minCount := int(math.Ceil(s * float64(u.NumRows)))
		for _, m := range res.Itemsets {
			if m.Count < minCount {
				t.Fatalf("s=%v: itemset with count %d < %d", s, m.Count, minCount)
			}
		}
		if prev >= 0 && len(res.Itemsets) < prev {
			t.Errorf("lowering support reduced itemset count: %d -> %d", prev, len(res.Itemsets))
		}
		prev = len(res.Itemsets)
	}
}

func TestMineErrors(t *testing.T) {
	u, o := randomUniverse(t, 1, 100, false)
	if _, err := Mine(u, o, Options{MinSupport: 0}); err == nil {
		t.Error("MinSupport 0 should fail")
	}
	if _, err := Mine(u, o, Options{MinSupport: 1.5}); err == nil {
		t.Error("MinSupport > 1 should fail")
	}
	if _, err := Mine(u, o, Options{MinSupport: 0.1, Algorithm: Algorithm(9)}); err == nil {
		t.Error("unknown algorithm should fail")
	}
	short := outcome.Numeric("x", []float64{1, 2, 3})
	if _, err := Mine(u, short, Options{MinSupport: 0.1}); err == nil {
		t.Error("outcome length mismatch should fail")
	}
}

func TestUniverseBasics(t *testing.T) {
	u, _ := randomUniverse(t, 3, 200, true)
	if u.NumAttrs() != 3 {
		t.Errorf("NumAttrs = %d, want 3", u.NumAttrs())
	}
	names := map[string]bool{}
	for id := 0; id < u.NumAttrs(); id++ {
		names[u.Attr(id)] = true
	}
	if !names["a"] || !names["b"] || !names["c"] {
		t.Errorf("attrs = %v", names)
	}
	if err := u.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	its := u.Itemset([]int{0, len(u.Items) - 1})
	if len(its) != 2 {
		t.Error("Itemset materialization wrong")
	}
}

func TestSupportHelper(t *testing.T) {
	m := MinedItemset{Count: 25}
	if got := m.Support(100); got != 0.25 {
		t.Errorf("Support = %v, want 0.25", got)
	}
}

func TestRank(t *testing.T) {
	u, o := randomUniverse(t, 23, 500, true)
	res, err := Mine(u, o, Options{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	items := inOrder(res.Itemsets, Rank(res.Itemsets, 0, o, 1))
	for i := 1; i < len(items); i++ {
		da := math.Abs(o.DivergenceFromMoments(items[i-1].M))
		db := math.Abs(o.DivergenceFromMoments(items[i].M))
		if db > da+1e-12 {
			t.Fatalf("abs sort violated at %d: %v < %v", i, da, db)
		}
	}
}

// TestRankMatchesStable pins the ranking sort to the stable one it
// replaced: on seeded itemsets with many tied divergences (NaN, ±d under
// the absolute key), lengths and counts, and item indices whose varint
// encodings order differently from their values (256 before 129), Rank
// gives the order of a sort.SliceStable over the historical string-key
// comparator (stableRank), element for element, for the primary
// outcome's moments (M) and an extra outcome's (Multi).
func TestRankMatchesStable(t *testing.T) {
	o := rankOutcome()
	for seed := int64(1); seed <= 5; seed++ {
		items := rankItems(seed, 2000)
		for k := 0; k <= 1; k++ {
			checkRank(t, fmt.Sprintf("seed %d k=%d", seed, k), items, k, o, 1)
		}
	}
}

// checkRank fails when Rank at the given workers differs from the stable
// sort (stableRank), naming the first position that differs.
func checkRank(t *testing.T, label string, items []MinedItemset, k int, o *outcome.Outcome, workers int) {
	t.Helper()
	got, want := Rank(items, k, o, workers), stableRank(items, k, o)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s workers=%d: position %d holds itemset %d %+v, stable sort %d %+v",
				label, workers, i, got[i], items[got[i]], want[i], items[want[i]])
		}
	}
}

// stableRank is Rank's oracle: the indices of items in the order of a
// sort.SliceStable by |divergence| descending (NaN last), then length,
// then count descending, then the string key of the items.
func stableRank(items []MinedItemset, k int, o *outcome.Outcome) []int32 {
	sortKey := func(m *MinedItemset) float64 {
		d := o.DivergenceFromMoments(m.MomentsAt(k))
		if math.IsNaN(d) {
			return math.Inf(-1)
		}
		return math.Abs(d)
	}
	order := make([]int32, len(items))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := &items[order[x]], &items[order[y]]
		if ka, kb := sortKey(a), sortKey(b); ka != kb {
			return ka > kb
		}
		if len(a.Items) != len(b.Items) {
			return len(a.Items) < len(b.Items)
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return key(a.Items) < key(b.Items)
	})
	return order
}

// rankOutcome is the outcome of TestRankMatchesStable's itemsets, its
// global mean 0.5.
func rankOutcome() *outcome.Outcome {
	return outcome.ErrorRate([]bool{true, true, false, false}, []bool{true, false, true, false})
}

// rankMoments are the moments of the ranking tests' itemsets under
// rankOutcome: NaN, -0.25, 0.25 (twice, from different moments) and zero
// divergence.
var rankMoments = []stats.Moments{
	{}, // no defined outcome: NaN divergence
	{N: 4, Sum: 1, SumSq: 1},
	{N: 4, Sum: 3, SumSq: 3},
	{N: 8, Sum: 6, SumSq: 6},
	{N: 2, Sum: 1, SumSq: 1},
}

// rankItems draws n distinct seeded itemsets of 1–3 of 400 items with
// many tied divergences (NaN, ±d under the absolute key), lengths and
// counts, and item indices whose varint encodings order differently from
// their values (256 before 129), each with one extra outcome's moments.
func rankItems(seed int64, n int) []MinedItemset {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var items []MinedItemset
	for len(items) < n {
		idx := rng.Perm(400)[:1+rng.Intn(3)]
		sort.Ints(idx)
		if seen[key(idx)] {
			continue
		}
		seen[key(idx)] = true
		items = append(items, MinedItemset{
			Items: idx, Count: 5 << rng.Intn(3), M: rankMoments[rng.Intn(len(rankMoments))],
			Multi: []stats.Moments{rankMoments[rng.Intn(len(rankMoments))]},
		})
	}
	return items
}

// TestRankWorkersMatchSerial runs TestRankMatchesStable's seeds and
// outcomes at a size that splits into chunks (eight RankChunkMin chunks
// and a remainder) and pins Rank at workers {2, 3, 8} to its order at
// workers 1, element for element: the merged chunks must be the serial
// order, whatever the core count.
func TestRankWorkersMatchSerial(t *testing.T) {
	o := rankOutcome()
	n := 8*RankChunkMin + 13
	for seed := int64(1); seed <= 5; seed++ {
		items := rankItems(seed, n)
		for k := 0; k <= 1; k++ {
			want := Rank(items, k, o, 1)
			for _, w := range []int{2, 3, 8} {
				if c := engine.Chunks(n, w, RankChunkMin); c != w {
					t.Fatalf("workers=%d: %d chunks; the case needs %d", w, c, w)
				}
				got := Rank(items, k, o, w)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d k=%d workers=%d: position %d holds itemset %d, serial %d",
							seed, k, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if Apriori.String() != "apriori" || FPGrowth.String() != "fp-growth" {
		t.Error("Algorithm.String wrong")
	}
	if Algorithm(7).String() == "" {
		t.Error("unknown algorithm should render")
	}
}

// Mined moments must agree with a direct recomputation from the itemset's
// rows — the "no additional pass" bookkeeping is exact.
func TestMinedMomentsMatchDirect(t *testing.T) {
	u, o := randomUniverse(t, 31, 700, true)
	res, err := Mine(u, o, Options{MinSupport: 0.05, Algorithm: FPGrowth})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Itemsets {
		rows := u.Rows[m.Items[0]].Dense().Clone()
		for _, it := range m.Items[1:] {
			rows = u.Rows[it].AndInto(rows, bitvec.New(u.NumRows))
		}
		if rows.Count() != m.Count {
			t.Fatalf("count mismatch for %v: %d vs %d", u.Itemset(m.Items), rows.Count(), m.Count)
		}
		direct := o.MomentsOf(rows)
		if !momentsClose(direct, m.M) {
			t.Fatalf("moments mismatch for %v", u.Itemset(m.Items))
		}
	}
}

// Parallel mining must produce byte-identical results to serial mining,
// in the same order, for both algorithms and all pruning modes.
func TestParallelMatchesSerial(t *testing.T) {
	u, o := randomUniverse(t, 51, 900, true)
	for _, alg := range []Algorithm{Apriori, FPGrowth} {
		for _, prune := range []bool{false, true} {
			serial, err := Mine(u, o, Options{MinSupport: 0.03, Algorithm: alg, PolarityPrune: prune, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 16} {
				par, err := Mine(u, o, Options{MinSupport: 0.03, Algorithm: alg, PolarityPrune: prune, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if len(par.Itemsets) != len(serial.Itemsets) {
					t.Fatalf("%v workers=%d: %d itemsets vs %d serial",
						alg, workers, len(par.Itemsets), len(serial.Itemsets))
				}
				for i := range serial.Itemsets {
					a, b := serial.Itemsets[i], par.Itemsets[i]
					if fmt.Sprint(a.Items) != fmt.Sprint(b.Items) || a.Count != b.Count || !momentsClose(a.M, b.M) {
						t.Fatalf("%v workers=%d: itemset %d differs (order or stats)", alg, workers, i)
					}
				}
				if par.Stats.Candidates != serial.Stats.Candidates {
					t.Errorf("%v workers=%d: candidate count %d vs %d",
						alg, workers, par.Stats.Candidates, serial.Stats.Candidates)
				}
			}
		}
	}
}

func TestParallelForCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		n := 57
		hit := make([]atomicBool, n)
		engine.ParallelFor(n, workers, nil, func(i int) { hit[i].Store(true) })
		for i := range hit {
			if !hit[i].Load() {
				t.Fatalf("workers=%d: index %d not visited", workers, i)
			}
		}
	}
	// n == 0 and n == 1 edge cases.
	engine.ParallelFor(0, 4, nil, func(int) { t.Fatal("should not be called") })
	called := 0
	engine.ParallelFor(1, 4, nil, func(int) { called++ })
	if called != 1 {
		t.Fatal("n=1 not called exactly once")
	}
}

// atomicBool wraps atomic.Bool for pre-1.19-style field embedding clarity.
type atomicBool = atomic.Bool

// BenchmarkMineFPGrowth mines one universe again and again, so from its
// second op on the mine is served from the universe's kept root tree.
func BenchmarkMineFPGrowth(b *testing.B) {
	u, o := benchUniverse(b, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(u, o, Options{MinSupport: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineApriori(b *testing.B) {
	u, o := benchUniverse(b, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(u, o, Options{MinSupport: 0.05, Algorithm: Apriori}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinePolarityPruned(b *testing.B) {
	u, o := benchUniverse(b, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(u, o, Options{MinSupport: 0.05, PolarityPrune: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// warmUniverses returns the daemon's three warm-explore statistics {fpr,
// fnr, error} over a 20k-row COMPAS-like table, each with the hierarchical
// universe its cache entry holds: tree support 0.1 plus flat categorical
// hierarchies.
func warmUniverses(b *testing.B) ([]*outcome.Outcome, []*Universe) {
	b.Helper()
	d := datagen.Compas(datagen.Config{N: 20_000, Seed: 1})
	outs := []*outcome.Outcome{
		outcome.FalsePositiveRate(d.Actual, d.Predicted),
		outcome.FalseNegativeRate(d.Actual, d.Predicted),
		outcome.ErrorRate(d.Actual, d.Predicted),
	}
	var us []*Universe
	for _, o := range outs {
		hs, err := discretize.TreeSet(d.Table, o, discretize.TreeOptions{MinSupport: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range d.Table.Fields() {
			if f.Kind == dataset.Categorical {
				hs.Add(hierarchy.FlatCategorical(d.Table, f.Name))
			}
		}
		us = append(us, GeneralizedUniverse(d.Table, hs, o))
	}
	return outs, us
}

// BenchmarkMineWarmShapes mines the daemon's warm-explore request shapes in
// process: one op is 24 mines, the three warm statistics × s {0.01, 0.02,
// 0.05, 0.1} × polarity off/on, each over its statistic's universe. The
// universes are built outside the timed loop, as the daemon's cache holds
// them, so this is the mining layer of a warm request. Each universe keeps
// its root tree from its second mine on, so after the first op the mines
// are served from kept trees, as the daemon's are; BenchmarkFPTreeBuild
// measures the build.
func BenchmarkMineWarmShapes(b *testing.B) {
	outs, us := warmUniverses(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, o := range outs {
			for _, s := range []float64{0.01, 0.02, 0.05, 0.1} {
				for _, pol := range []bool{false, true} {
					if _, err := Mine(us[k], o, Options{MinSupport: s, PolarityPrune: pol}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// BenchmarkFPTreeBuild is the FP-tree build layer alone: the root tree of
// the FPR warm universe at s 0.01, the largest warm shape. A mine over a
// cached universe pays this build only until the universe keeps its tree,
// so BenchmarkMineWarmShapes no longer measures it after its first op.
func BenchmarkFPTreeBuild(b *testing.B) {
	outs, us := warmUniverses(b)
	u, bun := us[0], outcome.Single(outs[0])
	minCount := int(math.Ceil(0.01 * float64(u.NumRows)))
	var order []int
	for i, rs := range u.Rows {
		if rs.Count() >= minCount {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(x, y int) bool { return u.Rows[order[x]].Count() > u.Rows[order[y]].Count() })
	rank := make([]int32, len(u.Items))
	for i, it := range order {
		rank[it] = int32(i)
	}
	plan := engine.NewPlan(u.NumRows, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := buildRootTree(u, bun, order, rank, plan, Options{}, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineMulti mines the bundle of the three warm statistics over
// the FPR universe at s 0.02, the single pass ExploreMulti makes; its
// allocs/op track the per-candidate cost of the extra outcomes' moments.
func BenchmarkMineMulti(b *testing.B) {
	outs, us := warmUniverses(b)
	bun, err := outcome.NewBundle(outs...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineMulti(us[0], bun, Options{MinSupport: 0.02}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchUniverse(b *testing.B, n int) (*Universe, *outcome.Outcome) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	a := make([]float64, n)
	c := make([]float64, n)
	g := make([]string, n)
	actual := make([]bool, n)
	pred := make([]bool, n)
	for i := 0; i < n; i++ {
		a[i] = r.Float64() * 10
		c[i] = r.NormFloat64()
		g[i] = []string{"u", "v", "w"}[r.Intn(3)]
		actual[i] = r.Intn(2) == 0
		pred[i] = actual[i]
		if a[i] > 8 && r.Float64() < 0.4 {
			pred[i] = !pred[i]
		}
	}
	tab := dataset.NewBuilder().AddFloat("a", a).AddFloat("c", c).AddCategorical("g", g).MustBuild()
	o := outcome.ErrorRate(actual, pred)
	hs, err := discretize.TreeSet(tab, o, discretize.TreeOptions{MinSupport: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	hs.Add(hierarchy.FlatCategorical(tab, "g"))
	return GeneralizedUniverse(tab, hs, o), o
}

// Property (testing/quick): for random small universes, random supports and
// random pruning settings, both miners agree with brute force exactly.
func TestQuickMinersMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(150)
		// Random dataset: 2 continuous, 1 categorical attribute.
		a := make([]float64, n)
		c := make([]float64, n)
		g := make([]string, n)
		actual := make([]bool, n)
		pred := make([]bool, n)
		for i := 0; i < n; i++ {
			a[i] = r.Float64() * 10
			c[i] = r.NormFloat64()
			g[i] = []string{"u", "v", "w"}[r.Intn(3)]
			actual[i] = r.Intn(2) == 0
			pred[i] = r.Intn(2) == 0
		}
		tab := dataset.NewBuilder().AddFloat("a", a).AddFloat("c", c).AddCategorical("g", g).MustBuild()
		o := outcome.ErrorRate(actual, pred)
		hs, err := discretize.TreeSet(tab, o, discretize.TreeOptions{MinSupport: 0.1 + 0.2*r.Float64()})
		if err != nil {
			return false
		}
		hs.Add(hierarchy.FlatCategorical(tab, "g"))
		var u *Universe
		if r.Intn(2) == 0 {
			u = GeneralizedUniverse(tab, hs, o)
		} else {
			u = BaseUniverse(tab, hs, o)
		}
		opt := Options{
			MinSupport:    0.02 + 0.2*r.Float64(),
			PolarityPrune: r.Intn(2) == 0,
			MaxLen:        r.Intn(4), // 0..3
		}
		minCount := int(math.Ceil(opt.MinSupport * float64(u.NumRows)))
		if minCount < 1 {
			minCount = 1
		}
		want := canonicalize(mineBrute(u, o, opt, minCount))
		for _, alg := range []Algorithm{Apriori, FPGrowth} {
			opt.Algorithm = alg
			opt.Workers = r.Intn(3) // 0..2
			res, err := Mine(u, o, opt)
			if err != nil {
				return false
			}
			got := canonicalize(res.Itemsets)
			if len(got) != len(want) {
				return false
			}
			for k, w := range want {
				gv, ok := got[k]
				if !ok || gv.Count != w.Count || !momentsClose(gv.M, w.M) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
