package hierarchy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// scanRows is the brute-force reference for Item.MarkRows: every row at or
// after from whose value MatchesFloat accepts.
func scanRows(it *Item, t *dataset.Table, from int) []int {
	var out []int
	for i, v := range t.Floats(it.Attr) {
		if i >= from && it.MatchesFloat(v) {
			out = append(out, i)
		}
	}
	return out
}

// tailRows runs MarkRows from row from and lists the rows it marked.
func tailRows(it *Item, t *dataset.Table, from int) []int {
	words := make([]uint64, (t.NumRows()+63)/64-from/64)
	it.MarkRows(t, from, words)
	base := from / 64 * 64
	var out []int
	for w, word := range words {
		for b := 0; b < 64; b++ {
			if word&(1<<uint(b)) != 0 {
				out = append(out, base+w*64+b)
			}
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
// SnapshotAt (a full sort). The tail path (from > 0) is checked against
// the same scan.
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
					if got, want := it.Rows(tc.tab).Indices(), scanRows(it, tc.tab, 0); !slices.Equal(got, want) {
						t.Fatalf("%s: sorted build marked %v, scan %v", name, got, want)
					}
					from := 1 + rng.Intn(tc.tab.NumRows()-1)
					if got, want := tailRows(it, tc.tab, from), scanRows(it, tc.tab, from); !slices.Equal(got, want) {
						t.Fatalf("%s from %d: tail marked %v, scan %v", name, from, got, want)
					}
				}
			}
		}
	}
}
