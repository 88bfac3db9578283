package hierarchy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// scanRows is the brute-force reference for a continuous Item.Rows:
// every row whose value MatchesFloat accepts.
func scanRows(it *Item, t *dataset.Table) []int {
	var out []int
	for i, v := range t.Floats(it.Attr) {
		if it.MatchesFloat(v) {
			out = append(out, i)
		}
	}
	return out
}

// TestItemRowsSortedMatchesScan pins the sorted-order build of continuous
// items: on seeded columns full of ties, NaN, −0/+0 and ±Inf cells,
// Item.Rows marks exactly the rows a MatchesFloat scan accepts, for
// bounds equal to present values (Lo exclusive, Hi inclusive), empty and
// inverted intervals, NaN bounds and ±Inf bounds — on a plain Table, a
// current Versioned snapshot (a merged order) and an older epoch's
// SnapshotAt (a full sort).
func TestItemRowsSortedMatchesScan(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pool := []float64{math.Inf(-1), -2.5, -1, negZero, 0, 0.5, 1, 3, math.Inf(1), math.NaN()}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cell := func() float64 {
			if rng.Intn(3) == 0 {
				return math.Round(rng.NormFloat64()*20) / 10
			}
			return pool[rng.Intn(len(pool))]
		}
		column := func(n int) []float64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = cell()
			}
			return vals
		}
		bounds := append([]float64{negZero, 0.05, 2}, pool...)
		for i := 0; i < 6; i++ {
			bounds = append(bounds, cell())
		}

		n := 100 + rng.Intn(300)
		plain := dataset.NewBuilder().AddFloat("x", column(n)).MustBuild()
		v := dataset.NewVersioned(plain)
		old, _ := v.Snapshot()
		old.SortedRows("x") // the order a later snapshot merges into
		for b := 0; b < 2; b++ {
			m := 1 + rng.Intn(130)
			if _, _, err := v.Append(&dataset.Batch{Floats: map[string][]float64{"x": column(m)}, N: m}); err != nil {
				t.Fatal(err)
			}
		}
		current, _ := v.Snapshot()
		older, ok := v.SnapshotAt(2)
		if !ok {
			t.Fatal("epoch 2 not retained")
		}
		tables := []struct {
			name string
			tab  *dataset.Table
		}{{"plain", plain}, {"current", current}, {"older", older}}

		for _, tc := range tables {
			for _, lo := range bounds {
				for _, hi := range bounds {
					it := ContinuousItem("x", lo, hi)
					name := fmt.Sprintf("seed%d/%s/(%v,%v]", seed, tc.name, lo, hi)
					if got, want := it.Rows(tc.tab).Indices(), scanRows(it, tc.tab); !slices.Equal(got, want) {
						t.Fatalf("%s: sorted build marked %v, scan %v", name, got, want)
					}
				}
			}
		}
	}
}

// TestItemRowsCategoricalMatchesScan pins the code-grouped build of
// categorical items: on seeded columns whose dictionary holds unused
// levels, Item.Rows and a Marker shared across items mark exactly the
// rows a MatchesCode scan accepts, for single-code items, multi-code
// items (taxonomy parents) and an item with no codes — on a plain Table,
// a current Versioned snapshot whose last batch brought a new level, and
// an older epoch's SnapshotAt that lacks that level.
func TestItemRowsCategoricalMatchesScan(t *testing.T) {
	scan := func(it *Item, tab *dataset.Table) []int {
		var out []int
		for i, c := range tab.Codes(it.Attr) {
			if it.MatchesCode(c) {
				out = append(out, i)
			}
		}
		return out
	}
	levels := []string{"a", "b", "c", "d", "e", "f", "g"}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Codes 0..3 only: levels e, f and g stay unused.
		column := func(n int) []int {
			codes := make([]int, n)
			for i := range codes {
				codes[i] = rng.Intn(4)
			}
			return codes
		}
		names := func(codes []int) []string {
			out := make([]string, len(codes))
			for i, c := range codes {
				out[i] = levels[c]
			}
			return out
		}

		n := 100 + rng.Intn(300)
		plain := dataset.NewBuilder().AddCategoricalCodes("c", column(n), levels).MustBuild()
		v := dataset.NewVersioned(plain)
		m := 1 + rng.Intn(130)
		if _, _, err := v.Append(&dataset.Batch{Levels: map[string][]string{"c": names(column(m))}, N: m}); err != nil {
			t.Fatal(err)
		}
		late := names(column(m))
		late[rng.Intn(m)] = "late" // first appears in epoch 3
		if _, _, err := v.Append(&dataset.Batch{Levels: map[string][]string{"c": late}, N: m}); err != nil {
			t.Fatal(err)
		}
		current, _ := v.Snapshot()
		older, ok := v.SnapshotAt(2)
		if !ok {
			t.Fatal("epoch 2 not retained")
		}
		lateCode := current.LevelCode("c", "late")
		if lateCode < 0 || older.LevelCode("c", "late") >= 0 {
			t.Fatalf("seed %d: level late has code %d now and %d at epoch 2", seed, lateCode, older.LevelCode("c", "late"))
		}

		items := []*Item{CategoricalItem("c", "none")}
		for c := 0; c <= lateCode; c++ {
			items = append(items, CategoricalItem("c", fmt.Sprint(c), c))
		}
		for k := 0; k < 6; k++ {
			var codes []int
			for c := 0; c <= lateCode; c++ {
				if rng.Intn(2) == 0 {
					codes = append(codes, c)
				}
			}
			items = append(items, CategoricalItem("c", fmt.Sprint(codes), codes...))
		}
		items = append(items, CategoricalItem("c", "late+a", lateCode, 0))

		for _, tc := range []struct {
			name string
			tab  *dataset.Table
		}{{"plain", plain}, {"current", current}, {"older", older}} {
			shared := NewMarker(tc.tab)
			for _, it := range items {
				want := scan(it, tc.tab)
				if got := it.Rows(tc.tab).Indices(); !slices.Equal(got, want) {
					t.Fatalf("seed%d/%s/%v: Rows marked %v, scan %v", seed, tc.name, it.Codes, got, want)
				}
				if got := shared.Rows(it).Indices(); !slices.Equal(got, want) {
					t.Fatalf("seed%d/%s/%v: shared marker marked %v, scan %v", seed, tc.name, it.Codes, got, want)
				}
			}
		}
	}
}

// TestMarkerSwitchesColumns pins a Marker's regrouping: one marker shared
// across categorical columns of 7, 2 and 12 levels, visited interleaved
// and coming back to earlier columns (a continuous item in between),
// marks exactly the rows a MatchesCode scan accepts each time, though
// every regrouping reuses the storage of a grouping of another size.
func TestMarkerSwitchesColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 300
	b := dataset.NewBuilder()
	sizes := map[string]int{"c": 7, "d": 2, "e": 12}
	for _, attr := range []string{"c", "d", "e"} {
		levels := make([]string, sizes[attr])
		for i := range levels {
			levels[i] = fmt.Sprint(attr, i)
		}
		codes := make([]int, n)
		for i := range codes {
			codes[i] = rng.Intn(len(levels))
		}
		b.AddCategoricalCodes(attr, codes, levels)
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	tab := b.AddFloat("x", xs).MustBuild()

	m := NewMarker(tab)
	for step, attr := range []string{"c", "d", "c", "e", "d", "x", "e", "c", "d"} {
		if attr == "x" {
			it := ContinuousItem("x", 0.25, 0.75)
			if got, want := m.Rows(it).Indices(), scanRows(it, tab); !slices.Equal(got, want) {
				t.Fatalf("step %d: continuous item marked %v, scan %v", step, got, want)
			}
			continue
		}
		for k := 0; k < 3; k++ {
			var codes []int
			for c := 0; c < sizes[attr]; c++ {
				if rng.Intn(3) == 0 {
					codes = append(codes, c)
				}
			}
			it := CategoricalItem(attr, fmt.Sprint(codes), codes...)
			var want []int
			for i, c := range tab.Codes(attr) {
				if it.MatchesCode(c) {
					want = append(want, i)
				}
			}
			if got := m.Rows(it).Indices(); !slices.Equal(got, want) {
				t.Fatalf("step %d/%s%v: marker marked %v, scan %v", step, attr, codes, got, want)
			}
		}
	}
}
