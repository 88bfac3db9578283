package fpm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/outcome"
)

// reuseFixture returns a constructor of identical universes over one
// seeded table — two continuous attributes and a categorical one, tree-
// discretized; all items, or only the leaves as in base exploration —
// each with its own outcome: a numeric target with ⊥ rows and
// non-integer values, so every moment sum depends on its summation order
// and a reused tree must reproduce the build's order exactly. Under
// leaves, rows whose items are all infrequent at support 0.3 exist, so
// the rows a build inserts depend on its order.
func reuseFixture(t *testing.T, seed int64, n int, leaves bool) func() (*Universe, *outcome.Outcome) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]string, n)
	y := make([]float64, n)
	cats := []string{"red", "green", "blue", "grey"}
	for i := range y {
		a[i] = r.Float64() * 10
		b[i] = r.NormFloat64() * 3
		c[i] = cats[r.Intn(len(cats))]
		y[i] = r.NormFloat64()*1e3 + 40*a[i]
		if r.Intn(12) == 0 {
			y[i] = math.NaN()
		}
	}
	tab := dataset.NewBuilder().AddFloat("a", a).AddFloat("b", b).AddCategorical("c", c).MustBuild()
	hs, err := discretize.TreeSet(tab, outcome.Numeric("y", y), discretize.TreeOptions{MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	hs.Add(hierarchy.FlatCategorical(tab, "c"))
	items := hs.AllItems()
	if leaves {
		items = hs.AllLeafItems()
	}
	return func() (*Universe, *outcome.Outcome) {
		o := outcome.Numeric("y", y)
		return NewUniverse(tab, items, o), o
	}
}

// mineExplained mines with a fresh tracer and returns the result with the
// deterministic part of the run's explain profile.
func mineExplained(t *testing.T, u *Universe, b *outcome.Bundle, opt Options) (*Result, *obs.Explain) {
	t.Helper()
	tr := obs.New()
	opt.Tracer = tr
	res, err := MineMulti(u, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, obs.NewExplain(tr.Snapshot()).Deterministic()
}

// TestKeptTreeMatchesBuild is the reuse equivalence property: random
// request sequences on one shared universe — support, polarity, Workers
// {0, 4}, with and without candidate and itemset caps —
// must give, request by request, the Result and the deterministic explain
// profile a fresh universe gives, whether the shared universe's kept tree
// served the request, was replaced by it, or was bypassed.
func TestKeptTreeMatchesBuild(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		fresh := reuseFixture(t, seed, 500+150*int(seed), seed%2 == 0)
		u, o := fresh()
		r := rand.New(rand.NewSource(seed))
		uncut := 0 // runs whose scan admitted every item
		for step := 0; step < 24; step++ {
			opt := Options{
				MinSupport:    []float64{0.02, 0.05, 0.1, 0.3}[r.Intn(4)],
				PolarityPrune: r.Intn(2) == 0,
				Workers:       []int{0, 4}[r.Intn(2)],
			}
			switch r.Intn(4) {
			case 0:
				// Below the item count the cap cuts the root scan too.
				opt.Budget.MaxCandidates = len(u.Items)/2 + r.Intn(3*len(u.Items))
			case 1:
				opt.Budget.MaxItemsets = 1 + r.Intn(60)
			}
			if c := opt.Budget.MaxCandidates; c == 0 || c >= len(u.Items) {
				uncut++
			}
			label := fmt.Sprintf("seed=%d step=%d %+v", seed, step, opt)
			got, gotEx := mineExplained(t, u, outcome.Single(o), opt)
			fu, fo := fresh()
			want, wantEx := mineExplained(t, fu, outcome.Single(fo), opt)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: result differs from a fresh universe's:\n got %+v\nwant %+v", label, got.Stats, want.Stats)
			}
			if !reflect.DeepEqual(gotEx, wantEx) {
				t.Fatalf("%s: explain differs from a fresh universe's:\n got %+v\nwant %+v", label, gotEx, wantEx)
			}
		}
		if reused := uncut - int(u.builds.Load()); reused < 1 {
			t.Errorf("seed=%d: %d uncut runs made %d builds; no run was served by a kept tree", seed, uncut, u.builds.Load())
		}
	}
}

// TestKeptTreeEligibility pins when a universe keeps its root tree: never
// for a bundle of several outcomes, for an outcome other than the
// universe's own, for a cancelled build, or after ReleaseTree; otherwise
// from its second build on.
func TestKeptTreeEligibility(t *testing.T) {
	fresh := reuseFixture(t, 7, 800, false)
	u, o := fresh()
	_, foreign := fresh() // the same values, another outcome
	b3, err := outcome.NewBundle(o, foreign, outcome.Numeric("z", make([]float64, u.NumRows)))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{MinSupport: 0.05}
	for i := 0; i < 3; i++ {
		if _, err := MineMulti(u, b3, opt); err != nil {
			t.Fatal(err)
		}
		if _, err := Mine(u, foreign, opt); err != nil {
			t.Fatal(err)
		}
	}
	if u.HoldsTree() || u.builds.Load() != 0 {
		t.Fatalf("bundle and foreign-outcome runs: tree kept %v, %d eligible builds", u.HoldsTree(), u.builds.Load())
	}
	if _, err := Mine(u, o, opt); err != nil {
		t.Fatal(err)
	}
	if u.HoldsTree() {
		t.Fatal("the first build kept its tree")
	}

	// A second build, cancelled before its rows were inserted, keeps nothing.
	cancelled := &canceller{}
	cancelled.stop.Store(true)
	minCount := int(math.Ceil(opt.MinSupport * float64(u.NumRows)))
	counts := &obs.MiningCounters{}
	if _, err := mineFPGrowth(u, outcome.Single(o), opt, minCount, engine.NewPool(u.NumRows), nil, cancelled, counts, nil, nil); err != nil {
		t.Fatal(err)
	}
	if u.HoldsTree() {
		t.Fatal("a cancelled build kept its tree")
	}

	if _, err := Mine(u, o, opt); err != nil {
		t.Fatal(err)
	}
	if !u.HoldsTree() {
		t.Fatal("a later build of the universe's own outcome kept no tree")
	}
	u.ReleaseTree()
	for i := 0; i < 2; i++ {
		if _, err := Mine(u, o, opt); err != nil {
			t.Fatal(err)
		}
	}
	if u.HoldsTree() {
		t.Fatal("a released universe kept a tree again")
	}
}

// TestKeptTreeConcurrentMines mines one universe from several goroutines
// at alternating supports, so kept trees are published, replaced and read
// concurrently, and one goroutine releases the universe midway; run under
// -race. Every result must equal a fresh universe's, and no tree may
// outlive the release.
func TestKeptTreeConcurrentMines(t *testing.T) {
	fresh := reuseFixture(t, 9, 1500, true)
	supports := []float64{0.1, 0.02}
	want := make([]*Result, len(supports))
	for k, s := range supports {
		fu, fo := fresh()
		res, err := Mine(fu, fo, Options{MinSupport: s})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res
	}
	u, o := fresh()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if g == 0 && i == 5 {
					u.ReleaseTree()
				}
				k := (g + i) % len(supports)
				res, err := Mine(u, o, Options{MinSupport: supports[k], Workers: 2})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res, want[k]) {
					t.Errorf("goroutine %d mine %d (s %v): result differs from a fresh universe's", g, i, supports[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if u.HoldsTree() {
		t.Error("a tree outlived ReleaseTree")
	}
}
