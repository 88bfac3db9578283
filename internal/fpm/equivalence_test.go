package fpm

import (
	"fmt"
	"testing"

	"repro/internal/outcome"
)

// sortedCopy ranks a result's itemsets by |divergence| with the miner's
// canonical tie-breaking, leaving the original slice untouched.
func sortedCopy(res *Result, o *outcome.Outcome) []MinedItemset {
	return inOrder(res.Itemsets, Rank(res.Itemsets, 0, o, 1))
}

// inOrder returns items[order[0]], items[order[1]], … as a new slice.
func inOrder(items []MinedItemset, order []int32) []MinedItemset {
	out := make([]MinedItemset, len(order))
	for i, j := range order {
		out[i] = items[j]
	}
	return out
}

// sameRanked requires two ranked itemset lists to agree exactly: same
// order, same items, same support, bit-identical moments. The fixture's
// error-rate outcome has 0/1 values, so partial sums are exact integers
// and cross-algorithm, cross-worker and cross-shard agreement must be
// bitwise, not approximate.
func sameRanked(t *testing.T, label string, got, want []MinedItemset) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d itemsets, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		g, w := got[i], want[i]
		if key(g.Items) != key(w.Items) || g.Count != w.Count || g.M != w.M {
			t.Errorf("%s: rank %d differs: (%v, %d, %+v) vs (%v, %d, %+v)",
				label, i, g.Items, g.Count, g.M, w.Items, w.Count, w.M)
			return
		}
	}
}

// TestRankedEquivalenceProperty is the cross-algorithm equivalence
// property: over randomized small universes, Apriori and FP-Growth
// produce identical ranked results — for serial and parallel mining
// (Workers ∈ {1, 0, 4}, serial first) and across shard layouts. Run under -race in CI,
// it doubles as a race detector for both parallel paths.
func TestRankedEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, generalized := range []bool{false, true} {
			n := 300 + int(seed)*70
			u, o := randomUniverse(t, seed, n, generalized)
			for _, prune := range []bool{false, true} {
				var ref []MinedItemset
				for _, workers := range []int{1, 0, 4} {
					for _, shards := range []int{0, 3} {
						for _, alg := range []Algorithm{Apriori, FPGrowth} {
							label := fmt.Sprintf("seed=%d gen=%v prune=%v workers=%d shards=%d %s",
								seed, generalized, prune, workers, shards, alg)
							res, err := Mine(u, o, Options{
								MinSupport: 0.05, PolarityPrune: prune,
								Algorithm: alg, Workers: workers, Shards: shards,
							})
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							ranked := sortedCopy(res, o)
							if ref == nil {
								ref = ranked
								if len(ref) == 0 {
									t.Fatalf("%s: no itemsets mined", label)
								}
								continue
							}
							sameRanked(t, label, ranked, ref)
						}
					}
				}
			}
		}
	}
}

// TestMineMultiMatchesIndependentMines verifies the single-pass bundle
// contract at the miner level: MineMulti over {error, fpr, fnr} yields,
// for every outcome, exactly the moments an independent Mine over the
// same universe accumulates — and the primary's moments live in M with
// the extras in Multi, in bundle order.
func TestMineMultiMatchesIndependentMines(t *testing.T) {
	u, o := randomUniverse(t, 17, 700, true)
	// Rebuild the label vectors underlying the fixture's error outcome is
	// not possible from here, so derive extra outcomes from the primary:
	// its complement (1-x on defined rows) and a copy. Both are boolean
	// and defined on the same rows.
	vals := make([]float64, o.Len())
	for i := range vals {
		if o.Valid.Get(i) {
			vals[i] = 1 - o.Values[i]
		}
	}
	comp := &outcome.Outcome{Name: "complement", Values: vals, Valid: o.Valid, Boolean: true}
	bun, err := outcome.NewBundle(o, comp)
	if err != nil {
		t.Fatal(err)
	}

	for _, alg := range []Algorithm{Apriori, FPGrowth} {
		for _, shards := range []int{0, 4} {
			opt := Options{MinSupport: 0.05, Algorithm: alg, Shards: shards}
			multi, err := MineMulti(u, bun, opt)
			if err != nil {
				t.Fatal(err)
			}
			single, err := Mine(u, o, opt)
			if err != nil {
				t.Fatal(err)
			}
			ranked, want := sortedCopy(multi, o), sortedCopy(single, o)
			sameRanked(t, fmt.Sprintf("%s shards=%d primary", alg, shards), ranked, want)
			for _, it := range multi.Itemsets {
				if len(it.Multi) != 1 {
					t.Fatalf("%s shards=%d: Multi has %d entries, want 1", alg, shards, len(it.Multi))
				}
				m, x := it.M, it.MomentsAt(1)
				if x.N != m.N {
					t.Fatalf("%s shards=%d: extra N=%d, primary N=%d", alg, shards, x.N, m.N)
				}
				if x.Sum != float64(m.N)-m.Sum {
					t.Fatalf("%s shards=%d: complement sum %v, want %v", alg, shards, x.Sum, float64(m.N)-m.Sum)
				}
			}
		}
	}
}
