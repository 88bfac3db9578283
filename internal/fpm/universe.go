// Package fpm implements the frequent-pattern mining core of DivExplorer
// and H-DivExplorer: Apriori and FP-Growth, extended in three ways.
//
//   - Generalized itemsets: the item universe may contain items at several
//     granularity levels of the same attribute (from an item hierarchy); an
//     itemset uses at most one item per attribute, so items of one attribute
//     are never combined even when their domains overlap.
//   - Divergence accumulation: while counting supports, the miners also
//     accumulate the outcome moments (n, Σo, Σo²) of every frequent itemset,
//     so divergence and Welch t-values are available with no extra dataset
//     pass — the key efficiency property of DivExplorer.
//   - Polarity pruning: optionally, only items whose individual divergence
//     has the same sign are combined (the paper's §V-C heuristic), pruning
//     the search space roughly by 2^(n−1) for n continuous attributes.
//
// Memory model: both miners consume item row sets through the bitvec.Set
// interface (dense vectors or compressed bitmaps, selected per item by
// density at universe build time) and recycle their hot-path buffers —
// Apriori's materialized row vectors, FP-Growth's conditional trees and
// scratch arrays — through a per-run engine.Pool. Outcome moments are
// accumulated in one pass, and bitvec.Set primitives visit bits in
// ascending index order, so representation choice and buffer reuse
// cannot perturb the ranked output. DESIGN.md §11 documents the ownership rules.
package fpm

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/outcome"
	"repro/internal/stats"
)

// Universe is the prepared item universe over which mining runs: per item,
// its covered row set, attribute group, and divergence polarity. Row sets
// are representation-selected at build time: dense items stay bitvec
// vectors, sparse ones (deep hierarchy nodes covering few rows) become
// compressed bitmaps — invisible to the miners, which consume Rows through
// the bitvec.Set contract.
type Universe struct {
	Items    []*hierarchy.Item
	Rows     []bitvec.Set // Rows[i] = rows satisfying Items[i]
	AttrID   []int        // attribute group of each item
	Polarity []int8       // sign of the item's individual divergence (+1 / -1)
	NumRows  int
	attrs    []string
	mem      MemStats
	out      *outcome.Outcome // the outcome Polarity was computed against

	// The root FP-tree kept for re-queries over out (see keptTree), the
	// count of FP-Growth builds that could have kept one, and whether
	// ReleaseTree stopped the keeping: the only fields a mine writes. A
	// kept tree is published atomically and never written after.
	kept     atomic.Pointer[keptTree]
	builds   atomic.Int64
	released atomic.Bool
}

// MemStats summarizes the universe's row-set representations: how many
// items stayed dense vs compressed, the compressed container mix, and the
// byte footprint against the all-dense equivalent. Deterministic for a
// given dataset and item set.
type MemStats struct {
	ItemsDense       int
	ItemsCompressed  int
	ContainersArray  int
	ContainersBitmap int
	ContainersRun    int
	// Bytes is the row-set payload actually held; DenseBytes what an
	// all-dense universe would hold.
	Bytes, DenseBytes int64
}

// NewUniverse precomputes row sets, attribute groups and polarities for
// the given items. The outcome determines polarity: items whose individual
// divergence is ≥ 0 get polarity +1, otherwise -1. Polarity is computed on
// the packed row set, which visits its bits in ascending order whatever
// its representation, so packing cannot perturb it.
func NewUniverse(t *dataset.Table, items []*hierarchy.Item, o *outcome.Outcome) *Universe {
	return NewUniverseFrom(t, items, o, nil)
}

// NewUniverseFrom is NewUniverse borrowing the row sets of prior, a
// universe built over t itself (the same entry's hierarchical universe,
// for its base universe), or nil. An item whose attribute and interval,
// or level codes, equal those of a prior item takes that item's row set
// itself instead of a build: row sets are read-only once built (the
// miners never write Rows), so the two universes may share them. When
// prior was also built over o, a borrowed row set brings its polarity
// along instead of another pass over its rows. Every other item is built
// by one Marker, which holds one categorical column's grouping at a
// time: items arrive attribute by attribute, so each column is grouped
// once. prior is never mutated, and the result is deep-equal
// — row sets, representations, polarities, memory stats — to
// NewUniverse(t, items, o). It panics if prior covers another row count.
func NewUniverseFrom(t *dataset.Table, items []*hierarchy.Item, o *outcome.Outcome, prior *Universe) *Universe {
	n := t.NumRows()
	u := &Universe{
		Items:    items,
		Rows:     make([]bitvec.Set, len(items)),
		AttrID:   make([]int, len(items)),
		Polarity: make([]int8, len(items)),
		NumRows:  n,
		out:      o,
	}
	var reuse map[itemKey]int
	if prior != nil {
		if prior.NumRows != n {
			panic(fmt.Sprintf("fpm: prior universe over %d rows, table has %d", prior.NumRows, n))
		}
		reuse = make(map[itemKey]int, len(prior.Items))
		for i, it := range prior.Items {
			reuse[keyOf(it)] = i
		}
	}
	m := hierarchy.NewMarker(t)
	attrIndex := map[string]int{}
	for i, it := range items {
		id, ok := attrIndex[it.Attr]
		if !ok {
			id = len(u.attrs)
			attrIndex[it.Attr] = id
			u.attrs = append(u.attrs, it.Attr)
		}
		u.AttrID[i] = id
		j, found := reuse[keyOf(it)]
		if found {
			u.Rows[i] = prior.Rows[j]
		} else {
			u.Rows[i] = bitvec.Pack(m.Rows(it))
		}
		switch {
		case found && prior.out == o:
			u.Polarity[i] = prior.Polarity[j]
		case o.DivergenceOfSet(u.Rows[i]) < 0:
			u.Polarity[i] = -1
		default:
			u.Polarity[i] = 1
		}
		denseBytes := int64(u.Rows[i].NumWords()) * 8
		u.mem.DenseBytes += denseBytes
		if c, isCompressed := u.Rows[i].(*bitvec.Compressed); isCompressed {
			st := c.Stats()
			u.mem.ItemsCompressed++
			u.mem.ContainersArray += st.Array
			u.mem.ContainersBitmap += st.Bitmap
			u.mem.ContainersRun += st.Run
			u.mem.Bytes += st.Bytes
		} else {
			u.mem.ItemsDense++
			u.mem.Bytes += denseBytes
		}
	}
	return u
}

// itemKey identifies an item's constraint: two items with equal keys
// cover the same rows of any table.
type itemKey struct {
	attr   string
	lo, hi float64
	codes  string
}

func keyOf(it *hierarchy.Item) itemKey {
	return itemKey{attr: it.Attr, lo: it.Lo, hi: it.Hi, codes: key(it.Codes)}
}

// HoldsTree reports whether u keeps a root FP-tree for re-queries.
func (u *Universe) HoldsTree() bool { return u.kept.Load() != nil }

// ReleaseTree drops u's kept root FP-tree and keeps no other: later
// mines over u build their root tree each time. Their results are the
// same either way.
func (u *Universe) ReleaseTree() {
	u.released.Store(true)
	u.kept.Store(nil)
}

// Memory returns the universe's representation statistics.
func (u *Universe) Memory() MemStats { return u.mem }

// NumAttrs returns the number of distinct attributes among the items.
func (u *Universe) NumAttrs() int { return len(u.attrs) }

// Attr returns the attribute name for an attribute group id.
func (u *Universe) Attr(id int) string { return u.attrs[id] }

// Itemset materializes a mined index set as a hierarchy.Itemset.
func (u *Universe) Itemset(idx []int) hierarchy.Itemset {
	out := make(hierarchy.Itemset, len(idx))
	for i, j := range idx {
		out[i] = u.Items[j]
	}
	return out
}

// Validate performs sanity checks: items exist, bitset lengths match, and
// no two items of the same attribute have identical index.
func (u *Universe) Validate() error {
	for i, it := range u.Items {
		if it == nil {
			return fmt.Errorf("fpm: nil item at %d", i)
		}
		if u.Rows[i].Len() != u.NumRows {
			return fmt.Errorf("fpm: item %d bitset length %d, want %d", i, u.Rows[i].Len(), u.NumRows)
		}
	}
	return nil
}

// GeneralizedUniverse builds the universe for hierarchical exploration: all
// non-root items of every hierarchy in the set.
func GeneralizedUniverse(t *dataset.Table, hs *hierarchy.Set, o *outcome.Outcome) *Universe {
	return NewUniverse(t, hs.AllItems(), o)
}

// BaseUniverse builds the universe for base (non-hierarchical) exploration:
// leaf items only, i.e. a conventional non-overlapping discretization.
func BaseUniverse(t *dataset.Table, hs *hierarchy.Set, o *outcome.Outcome) *Universe {
	return NewUniverse(t, hs.AllLeafItems(), o)
}

// MinedItemset is one frequent itemset with its accumulated divergence
// statistics.
type MinedItemset struct {
	// Items are sorted universe indices.
	Items []int
	// Count is the absolute support count (#rows satisfying all items).
	Count int
	// M holds the outcome moments over the itemset's rows with defined
	// outcome: M.N = non-⊥ members, M.Sum = Σo, M.SumSq = Σo². Under a
	// multi-outcome bundle M belongs to the primary (lattice-determining)
	// outcome.
	M stats.Moments
	// Multi holds the moments of the bundle's extra outcomes (Multi[k-1]
	// corresponds to bundle outcome k); nil on single-outcome runs.
	Multi []stats.Moments
}

// MomentsAt returns the moments for bundle outcome k: k = 0 is the primary
// (M), higher k index into Multi.
func (m *MinedItemset) MomentsAt(k int) stats.Moments {
	if k == 0 {
		return m.M
	}
	return m.Multi[k-1]
}

// Support returns the relative support given the dataset size.
func (m *MinedItemset) Support(numRows int) float64 {
	return float64(m.Count) / float64(numRows)
}
