package fpm

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/faultinject"
	"repro/internal/hierarchy"
	"repro/internal/outcome"
)

// appendFixture builds a dataset with a rare categorical level (so at least
// one item compresses) and a level that first appears after the prefix,
// returning the full table, a prefix table of oldN rows sharing the same
// values, outcomes over both, and the item set built on the prefix.
func appendFixture(t testing.TB, seed int64, oldN, newN int) (full, prefix *dataset.Table, oFull, oPrefix *outcome.Outcome, items []*hierarchy.Item) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	a := make([]float64, newN)
	c := make([]string, newN)
	actual := make([]bool, newN)
	pred := make([]bool, newN)
	for i := 0; i < newN; i++ {
		a[i] = r.Float64() * 10
		switch {
		case i < 4:
			c[i] = "rare" // ensure the rare level exists in the prefix
		case i == oldN || (i > oldN && r.Float64() < 0.01):
			c[i] = "late"
		case r.Float64() < 0.005:
			c[i] = "rare"
		case r.Float64() < 0.5:
			c[i] = "common"
		default:
			c[i] = "other"
		}
		actual[i] = r.Intn(2) == 0
		pred[i] = actual[i]
		if r.Float64() < 0.2+0.3*a[i]/10 {
			pred[i] = !pred[i]
		}
	}
	full = dataset.NewBuilder().AddFloat("a", a).AddCategorical("c", c).MustBuild()
	levels := full.Levels("c")
	if levels[len(levels)-1] == "late" {
		levels = levels[:len(levels)-1] // the prefix's dictionary
	}
	prefix = dataset.NewBuilder().
		AddFloat("a", a[:oldN:oldN]).
		AddCategoricalCodes("c", full.Codes("c")[:oldN:oldN], levels).
		MustBuild()
	oFull = outcome.ErrorRate(actual, pred)
	oPrefix = outcome.ErrorRate(actual[:oldN], pred[:oldN])
	hs, err := discretize.TreeSet(prefix, oPrefix, discretize.TreeOptions{MinSupport: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	hs.Add(hierarchy.FlatCategorical(prefix, "c"))
	return full, prefix, oFull, oPrefix, hs.AllItems()
}

// TestAppendUniverseMatchesRebuild pins the epoch build's reuse contract:
// AppendUniverse is byte-identical — row sets, representations, polarity,
// memory stats — to NewUniverse over the full table with the same items,
// and so is NewUniverseFrom when the item list changed between epochs
// (intervals moved by a re-discretization, an item dropped, a categorical
// level added), reusing the unchanged items' row sets and building the
// others fresh.
func TestAppendUniverseMatchesRebuild(t *testing.T) {
	for _, tc := range []struct{ oldN, newN int }{
		{1000, 1100},   // small, all-dense
		{20000, 22000}, // rare level compressed, mid-container split
		{65536, 72000}, // prefix on a container boundary
		{20000, 20001}, // single-row append
	} {
		full, prefix, oFull, oPrefix, items := appendFixture(t, 99, tc.oldN, tc.newN)
		base := NewUniverse(prefix, items, oPrefix)
		grown, err := AppendUniverse(full, base, oFull)
		if err != nil {
			t.Fatalf("%d->%d: %v", tc.oldN, tc.newN, err)
		}
		want := NewUniverse(full, items, oFull)
		if !reflect.DeepEqual(grown, want) {
			t.Errorf("%d->%d: incremental universe differs from from-scratch rebuild", tc.oldN, tc.newN)
		}
		// The base universe must be untouched (old-epoch readers).
		if base.NumRows != tc.oldN {
			t.Errorf("%d->%d: base universe mutated", tc.oldN, tc.newN)
		}
		for i := range base.Rows {
			if base.Rows[i].Len() != tc.oldN {
				t.Fatalf("%d->%d: base row set %d grew", tc.oldN, tc.newN, i)
			}
		}

		hs, err := discretize.TreeSet(full, oFull, discretize.TreeOptions{MinSupport: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		hs.Add(hierarchy.FlatCategorical(full, "c"))
		changed := hs.AllItems()
		changed = append(changed[:1], changed[2:]...) // drop an item
		changed = append(changed, items[0])           // keep a prefix interval
		if got, want := NewUniverseFrom(full, changed, oFull, base), NewUniverse(full, changed, oFull); !reflect.DeepEqual(got, want) {
			t.Errorf("%d->%d: universe over changed items differs from a fresh build", tc.oldN, tc.newN)
		}
		old := map[itemKey]bool{}
		for _, it := range items {
			old[keyOf(it)] = true
		}
		var reused, fresh int
		for _, it := range changed {
			if old[keyOf(it)] {
				reused++
			} else {
				fresh++
			}
		}
		if reused == 0 || fresh == 0 || len(full.Levels("c")) == len(prefix.Levels("c")) {
			t.Errorf("%d->%d: %d reused and %d fresh items, %d -> %d levels; the case needs both kinds and a new level",
				tc.oldN, tc.newN, reused, fresh, len(prefix.Levels("c")), len(full.Levels("c")))
		}
	}
}

// TestBaseUniverseFromHierarchical pins the entry build's base universe:
// built with the same table's hierarchical universe as its prior, it is
// deep-equal — row sets, representations, polarities, memory stats — to
// NewUniverse over the leaves, and every leaf borrows the hierarchical
// universe's row set itself, and its polarity with it. The hierarchical
// universe is built both from scratch and grown from an earlier epoch's,
// over dense and compressed leaves. A prior built over another outcome
// lends row sets only; polarity is then recomputed.
func TestBaseUniverseFromHierarchical(t *testing.T) {
	for _, tc := range []struct{ oldN, newN int }{{1000, 1100}, {20000, 22000}} {
		full, prefix, oFull, oPrefix, _ := appendFixture(t, 99, tc.oldN, tc.newN)
		hs, err := discretize.TreeSet(full, oFull, discretize.TreeOptions{MinSupport: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		hs.Add(hierarchy.FlatCategorical(full, "c"))
		earlier := NewUniverse(prefix, hs.AllItems(), oPrefix)
		leaves := hs.AllLeafItems()
		want := NewUniverse(full, leaves, oFull)
		if want.Memory().ItemsCompressed == 0 && tc.newN > 20000 {
			t.Errorf("%d rows: no compressed leaf; the case is vacuous", tc.newN)
		}
		for _, prior := range []*Universe{nil, earlier} {
			hier := NewUniverseFrom(full, hs.AllItems(), oFull, prior)
			got := NewUniverseFrom(full, leaves, oFull, hier)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d rows (earlier prior %v): base universe from the hierarchical one differs from NewUniverse", tc.newN, prior != nil)
			}
			shared := map[bitvec.Set]bool{}
			for _, rs := range hier.Rows {
				shared[rs] = true
			}
			for i, rs := range got.Rows {
				if !shared[rs] {
					t.Errorf("%d rows: leaf %v does not borrow the hierarchical row set", tc.newN, leaves[i])
				}
			}
			if !reflect.DeepEqual(got.Polarity, want.Polarity) || got.Memory() != want.Memory() {
				t.Errorf("%d rows: borrowed polarity %v or memory %+v differs from %v, %+v",
					tc.newN, got.Polarity, got.Memory(), want.Polarity, want.Memory())
			}
		}

		// Polarity travels with the borrowed row set rather than being
		// recomputed: a prior whose polarities were flipped lends the
		// flipped values.
		hier := NewUniverse(full, hs.AllItems(), oFull)
		for i := range hier.Polarity {
			hier.Polarity[i] = -hier.Polarity[i]
		}
		if got := NewUniverseFrom(full, leaves, oFull, hier); reflect.DeepEqual(got.Polarity, want.Polarity) {
			t.Errorf("%d rows: a same-outcome prior's polarity was recomputed, not borrowed", tc.newN)
		}

		// A prior built over another outcome lends its row sets but not
		// its polarity, which is recomputed for o: here the complement
		// outcome, whose polarities are the opposite ones.
		vals := make([]float64, oFull.Len())
		for i := range vals {
			if oFull.Valid.Get(i) {
				vals[i] = 1 - oFull.Values[i]
			}
		}
		comp := outcome.MustNew("complement", vals, oFull.Valid)
		other := NewUniverse(full, hs.AllItems(), comp)
		got := NewUniverseFrom(full, leaves, oFull, other)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d rows: base universe from another outcome's prior differs from NewUniverse", tc.newN)
		}
		if reflect.DeepEqual(NewUniverse(full, leaves, comp).Polarity, want.Polarity) {
			t.Errorf("%d rows: complement polarities equal the outcome's; the case is vacuous", tc.newN)
		}
	}
}

// TestAppendUniverseCompressedRepresentation asserts the fixture actually
// exercises the compressed path, so the DeepEqual above is not vacuous.
func TestAppendUniverseCompressedRepresentation(t *testing.T) {
	full, prefix, oFull, oPrefix, items := appendFixture(t, 99, 20000, 22000)
	base := NewUniverse(prefix, items, oPrefix)
	grown, err := AppendUniverse(full, base, oFull)
	if err != nil {
		t.Fatal(err)
	}
	var compressed int
	for _, rs := range grown.Rows {
		if _, ok := rs.(*bitvec.Compressed); ok {
			compressed++
		}
	}
	if compressed == 0 {
		t.Error("fixture produced no compressed row sets; equivalence test is vacuous")
	}
	if grown.Memory().ItemsCompressed != compressed {
		t.Errorf("MemStats.ItemsCompressed = %d, want %d", grown.Memory().ItemsCompressed, compressed)
	}
}

func TestAppendUniverseShrinkError(t *testing.T) {
	full, prefix, oFull, oPrefix, items := appendFixture(t, 7, 1000, 1200)
	grownBase := NewUniverse(full, items, oFull)
	if _, err := AppendUniverse(prefix, grownBase, oPrefix); err == nil {
		t.Error("shrinking append accepted")
	}
}

// TestAppendUniverseFaultSite pins that the fpm.universe_append failpoint
// aborts incremental maintenance before any work, with a clean error.
func TestAppendUniverseFaultSite(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	full, prefix, _, oPrefix, items := appendFixture(t, 7, 1000, 1200)
	base := NewUniverse(prefix, items, oPrefix)
	if err := faultinject.Arm(faultinject.SiteUniverseAppend, "error(injected append fault)"); err != nil {
		t.Fatal(err)
	}
	oFull := outcome.ErrorRate(make([]bool, full.NumRows()), make([]bool, full.NumRows()))
	if _, err := AppendUniverse(full, base, oFull); err == nil {
		t.Error("armed failpoint did not surface an error")
	}
}

// BenchmarkAppendEpoch measures the incremental-maintenance speedup:
// growing a universe by a 10% row batch through AppendUniverse against
// rebuilding it from scratch over the full table with the same items
// (continuous items from the table's sorted order). The rebuild
// sub-benchmark reports the measured advantage as the speedup-x metric.
func BenchmarkAppendEpoch(b *testing.B) {
	const oldN, newN = 90_000, 100_000
	full, prefix, oFull, oPrefix, items := appendFixture(b, 7, oldN, newN)
	base := NewUniverse(prefix, items, oPrefix)

	var incPerOp float64
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := AppendUniverse(full, base, oFull); err != nil {
				b.Fatal(err)
			}
		}
		incPerOp = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewUniverse(full, items, oFull)
		}
		if incPerOp > 0 {
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(perOp/incPerOp, "speedup-x")
		}
	})
}

// BenchmarkUniverseBuild measures a universe-cache entry's universe
// build: the hierarchical universe over every item of a tree-discretized
// compas table (20k rows, st 0.05, flat categorical hierarchies), then the
// base universe over the leaves with the hierarchical one as its
// same-length prior. The discretization, and so the columns' sorted
// orders, is done once outside the timed loop. "fresh" builds with no
// prior; "prior" grows the hierarchical universe from that of an epoch 64
// rows shorter.
func BenchmarkUniverseBuild(b *testing.B) {
	const n, batch = 20_000, 64
	d := datagen.Compas(datagen.Config{N: n, Seed: 1})
	full := d.Table
	prefix := dataset.NewBuilder()
	rest := &dataset.Batch{Floats: map[string][]float64{}, Levels: map[string][]string{}, N: batch}
	for _, f := range full.Fields() {
		if f.Kind == dataset.Continuous {
			vals := full.Floats(f.Name)
			prefix.AddFloat(f.Name, vals[:n-batch])
			rest.Floats[f.Name] = vals[n-batch:]
			continue
		}
		codes, levels := full.Codes(f.Name), full.Levels(f.Name)
		prefix.AddCategoricalCodes(f.Name, codes[:n-batch], levels)
		for _, c := range codes[n-batch:] {
			rest.Levels[f.Name] = append(rest.Levels[f.Name], levels[c])
		}
	}
	v := dataset.NewVersioned(prefix.MustBuild())
	if _, _, err := v.Append(rest); err != nil {
		b.Fatal(err)
	}
	items := func(t *dataset.Table, o *outcome.Outcome) *hierarchy.Set {
		hs, err := discretize.TreeSet(t, o, discretize.TreeOptions{MinSupport: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range t.Fields() {
			if f.Kind == dataset.Categorical {
				hs.Add(hierarchy.FlatCategorical(t, f.Name))
			}
		}
		return hs
	}
	older, _ := v.SnapshotAt(1)
	oOlder := outcome.FalsePositiveRate(d.Actual[:n-batch], d.Predicted[:n-batch])
	earlier := NewUniverse(older, items(older, oOlder).AllItems(), oOlder)
	tab, _ := v.Snapshot()
	o := outcome.FalsePositiveRate(d.Actual, d.Predicted)
	hs := items(tab, o)

	for _, bc := range []struct {
		name  string
		prior *Universe
	}{{"fresh", nil}, {"prior", earlier}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hier := NewUniverseFrom(tab, hs.AllItems(), o, bc.prior)
				NewUniverseFrom(tab, hs.AllLeafItems(), o, hier)
			}
		})
	}
}
