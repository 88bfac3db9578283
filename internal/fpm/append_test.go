package fpm

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/discretize"
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

// TestAppendUniverseMatchesRebuild pins the epoch build: AppendUniverse
// is deep-equal — row sets, representations, polarity, memory stats — to
// NewUniverse over the full table with the same items and leaves the
// prefix universe untouched, and NewUniverseFrom over a changed item list
// (intervals moved by a re-discretization, an item dropped, a categorical
// level added) with a same-table prior borrows the unchanged items' row
// sets, builds the others and still equals a fresh build.
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
			t.Errorf("%d->%d: appended universe differs from from-scratch rebuild", tc.oldN, tc.newN)
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
		if got, want := NewUniverseFrom(full, changed, oFull, grown), NewUniverse(full, changed, oFull); !reflect.DeepEqual(got, want) {
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

// TestNewUniverseFromOtherRowCount pins that a prior over another row
// count is refused rather than lending row sets of the wrong length.
func TestNewUniverseFromOtherRowCount(t *testing.T) {
	full, prefix, oFull, oPrefix, items := appendFixture(t, 7, 1000, 1200)
	earlier := NewUniverse(prefix, items, oPrefix)
	defer func() {
		if recover() == nil {
			t.Error("a prior over a shorter table was accepted")
		}
	}()
	NewUniverseFrom(full, items, oFull, earlier)
}

// TestBaseUniverseFromHierarchical pins the entry build's base universe:
// built with the same table's hierarchical universe as its prior, it is
// deep-equal — row sets, representations, polarities, memory stats — to
// NewUniverse over the leaves, and every leaf borrows the hierarchical
// universe's row set itself, and its polarity with it, over dense and
// compressed leaves. A prior built over another outcome lends row sets
// only; polarity is then recomputed.
func TestBaseUniverseFromHierarchical(t *testing.T) {
	for _, tc := range []struct{ oldN, newN int }{{1000, 1100}, {20000, 22000}} {
		full, _, oFull, _, _ := appendFixture(t, 99, tc.oldN, tc.newN)
		hs, err := discretize.TreeSet(full, oFull, discretize.TreeOptions{MinSupport: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		hs.Add(hierarchy.FlatCategorical(full, "c"))
		leaves := hs.AllLeafItems()
		want := NewUniverse(full, leaves, oFull)
		if want.Memory().ItemsCompressed == 0 && tc.newN > 20000 {
			t.Errorf("%d rows: no compressed leaf; the case is vacuous", tc.newN)
		}
		hier := NewUniverse(full, hs.AllItems(), oFull)
		got := NewUniverseFrom(full, leaves, oFull, hier)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d rows: base universe from the hierarchical one differs from NewUniverse", tc.newN)
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

		// Polarity travels with the borrowed row set rather than being
		// recomputed: a prior whose polarities were flipped lends the
		// flipped values.
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
		if got := NewUniverseFrom(full, leaves, oFull, other); !reflect.DeepEqual(got, want) {
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

// BenchmarkUniverseBuild measures a universe-cache entry's universe
// build: the hierarchical universe over every item of a tree-discretized
// compas table (20k rows, st 0.05, flat categorical hierarchies), then the
// base universe over the leaves with the hierarchical one as its prior.
// The discretization, and so the columns' sorted
// orders, is done once outside the timed loop.
func BenchmarkUniverseBuild(b *testing.B) {
	d := datagen.Compas(datagen.Config{N: 20_000, Seed: 1})
	tab := d.Table
	o := outcome.FalsePositiveRate(d.Actual, d.Predicted)
	hs, err := discretize.TreeSet(tab, o, discretize.TreeOptions{MinSupport: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range tab.Fields() {
		if f.Kind == dataset.Categorical {
			hs.Add(hierarchy.FlatCategorical(tab, f.Name))
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hier := NewUniverse(tab, hs.AllItems(), o)
			NewUniverseFrom(tab, hs.AllLeafItems(), o, hier)
		}
	})
}
