// Package hierarchy models items, itemsets and item hierarchies — the
// paper's Definition 4.1. An item is a constraint on a single attribute:
// an interval for a continuous attribute, or a set of levels for a
// categorical one (generalized categorical items cover several levels, e.g.
// OCCP=MGR covering every managerial sub-occupation). An item hierarchy is a
// tree of items per attribute in which each node's domain is partitioned by
// its children's domains.
package hierarchy

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/dataset"
)

// Item is a constraint on one attribute. For continuous attributes the
// constraint is the half-open interval (Lo, Hi]; Lo may be -Inf and Hi +Inf.
// For categorical attributes the constraint is membership of the row's level
// code in Codes.
type Item struct {
	Attr string
	Kind dataset.Kind

	// Continuous payload: value v matches iff Lo < v ≤ Hi.
	Lo, Hi float64

	// Categorical payload: sorted, deduplicated level codes covered.
	Codes []int
	// Names holds the covered level names, parallel in meaning to Codes
	// but independent of any particular table's dictionary. Builders that
	// know the dictionary populate it; Rebind uses it to re-map the item
	// onto another table whose dictionary assigns different codes.
	Names []string

	// Label is the human-readable rendering, e.g. "age≤27" or "occ=MGR".
	// If empty, String derives one.
	Label string
}

// ContinuousItem returns the item attr ∈ (lo, hi].
func ContinuousItem(attr string, lo, hi float64) *Item {
	return &Item{Attr: attr, Kind: dataset.Continuous, Lo: lo, Hi: hi}
}

// CategoricalItem returns an item covering the given level codes of attr,
// displayed with the given label. Items built this way are bound to one
// table's dictionary; prefer CategoricalItemNamed (or the hierarchy
// builders, which record level names) when the item must survive
// re-evaluation on other tables.
func CategoricalItem(attr, label string, codes ...int) *Item {
	cs := append([]int(nil), codes...)
	sort.Ints(cs)
	cs = dedupInts(cs)
	return &Item{Attr: attr, Kind: dataset.Categorical, Codes: cs, Label: label}
}

// CategoricalItemNamed returns a categorical item carrying both the codes
// (valid for the dictionary of the table it was built from) and the level
// names, enabling Rebind onto tables with different dictionaries.
func CategoricalItemNamed(attr, label string, names []string, codes ...int) *Item {
	it := CategoricalItem(attr, label, codes...)
	it.Names = append([]string(nil), names...)
	sort.Strings(it.Names)
	return it
}

// Rebind returns an item equivalent to it but valid for the dictionary of
// table t: categorical codes are re-derived from the item's level names.
// Continuous items are returned unchanged. Level names absent from t
// simply cover no rows there. Items without recorded names cannot be
// re-mapped and are returned unchanged (correct only if t shares the
// original dictionary).
func (it *Item) Rebind(t *dataset.Table) *Item {
	if it.Kind != dataset.Categorical || len(it.Names) == 0 {
		return it
	}
	out := &Item{Attr: it.Attr, Kind: dataset.Categorical, Label: it.Label}
	out.Names = append([]string(nil), it.Names...)
	for _, name := range it.Names {
		if c := t.LevelCode(it.Attr, name); c >= 0 {
			out.Codes = append(out.Codes, c)
		}
	}
	sort.Ints(out.Codes)
	return out
}

func dedupInts(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// MatchesFloat reports whether a continuous value satisfies the item.
// NaN never matches.
func (it *Item) MatchesFloat(v float64) bool {
	if it.Kind != dataset.Continuous || math.IsNaN(v) {
		return false
	}
	return it.Lo < v && v <= it.Hi
}

// MatchesCode reports whether a categorical level code satisfies the item.
func (it *Item) MatchesCode(c int) bool {
	if it.Kind != dataset.Categorical {
		return false
	}
	i := sort.SearchInts(it.Codes, c)
	return i < len(it.Codes) && it.Codes[i] == c
}

// IsUniversal reports whether the item covers the entire attribute domain
// (an unbounded interval). Universal items correspond to hierarchy roots and
// are not used as exploration items.
func (it *Item) IsUniversal() bool {
	return it.Kind == dataset.Continuous && math.IsInf(it.Lo, -1) && math.IsInf(it.Hi, 1)
}

// String renders the item. Continuous items use the compact forms
// "attr≤a", "attr>a" and "attr=(a-b]".
func (it *Item) String() string {
	if it.Label != "" {
		return it.Label
	}
	if it.Kind == dataset.Categorical {
		return fmt.Sprintf("%s∈%v", it.Attr, it.Codes)
	}
	switch {
	case it.IsUniversal():
		return it.Attr + "=*"
	case math.IsInf(it.Lo, -1):
		return fmt.Sprintf("%s≤%s", it.Attr, fnum(it.Hi))
	case math.IsInf(it.Hi, 1):
		return fmt.Sprintf("%s>%s", it.Attr, fnum(it.Lo))
	default:
		return fmt.Sprintf("%s=(%s-%s]", it.Attr, fnum(it.Lo), fnum(it.Hi))
	}
}

func fnum(v float64) string {
	return strings.TrimSuffix(fmt.Sprintf("%.6g", v), ".0")
}

// SubsumesItem reports whether it covers a superset of the domain of other.
// Both items must refer to the same attribute; otherwise it returns false.
func (it *Item) SubsumesItem(other *Item) bool {
	if it.Attr != other.Attr || it.Kind != other.Kind {
		return false
	}
	if it.Kind == dataset.Continuous {
		return it.Lo <= other.Lo && other.Hi <= it.Hi
	}
	for _, c := range other.Codes {
		if !it.MatchesCode(c) {
			return false
		}
	}
	return true
}

// Rows returns the bitset of table rows satisfying the item. Missing
// (NaN) continuous values match no item.
func (it *Item) Rows(t *dataset.Table) *bitvec.Vector {
	return NewMarker(t).Rows(it)
}

// Marker computes item row sets over one table. It groups a categorical
// column's rows by code (Table.GroupCodes) when it marks an item of a
// column other than the last one it grouped, into the storage of that
// previous grouping, and holds only the one grouping. A universe's items
// arrive attribute by attribute (Set.AllItems), so a build groups each
// column once and then marks every categorical item, multi-code taxonomy
// parents included, in time proportional to the bits it sets; an
// attribute that comes back later is regrouped. The grouping is not kept
// on the table. A Marker is not safe for concurrent use.
type Marker struct {
	t       *dataset.Table
	grouped bool   // group holds attr's grouping
	attr    string // the column group was last made for
	group   dataset.CodeRows
}

// NewMarker returns a marker over t.
func NewMarker(t *dataset.Table) *Marker {
	return &Marker{t: t}
}

// Rows returns the bitset of the marker's table rows satisfying it.
//
// A continuous item marks its run of the column's shared sorted order
// (Table.SortedRows), found by binary search: the order is ascending and
// holds no NaN, and −0 compares equal to +0, so the rows whose value lies
// in (Lo, Hi] are exactly one contiguous run. A categorical item marks
// the rows of each of its codes; a code the table's dictionary lacks
// marks none.
func (m *Marker) Rows(it *Item) *bitvec.Vector {
	n := m.t.NumRows()
	words := make([]uint64, (n+63)/64)
	mark := func(rows []int32) {
		for _, r := range rows {
			words[r/64] |= 1 << uint(r%64)
		}
	}
	switch it.Kind {
	case dataset.Continuous:
		vals, order := m.t.Floats(it.Attr), m.t.SortedRows(it.Attr)
		lo := sort.Search(len(order), func(k int) bool { return vals[order[k]] > it.Lo })
		// Written !(v ≤ Hi) so a NaN bound, which no value satisfies,
		// gives an empty run as MatchesFloat does.
		hi := sort.Search(len(order), func(k int) bool { return !(vals[order[k]] <= it.Hi) })
		if lo < hi {
			mark(order[lo:hi])
		}
	case dataset.Categorical:
		if !m.grouped || m.attr != it.Attr {
			m.group = m.t.GroupCodes(it.Attr, m.group)
			m.grouped, m.attr = true, it.Attr
		}
		for _, c := range it.Codes {
			mark(m.group.Rows(c))
		}
	}
	return bitvec.FromWords(words, n)
}

// Itemset is a conjunction of items, at most one per attribute.
type Itemset []*Item

// Valid reports whether the itemset references each attribute at most once.
func (s Itemset) Valid() bool {
	seen := map[string]bool{}
	for _, it := range s {
		if seen[it.Attr] {
			return false
		}
		seen[it.Attr] = true
	}
	return true
}

// String renders the itemset as a sorted, comma-separated conjunction.
func (s Itemset) String() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = it.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// Rows returns the bitset of rows satisfying every item of the set.
func (s Itemset) Rows(t *dataset.Table) *bitvec.Vector {
	if len(s) == 0 {
		return bitvec.NewFull(t.NumRows())
	}
	v := s[0].Rows(t)
	for _, it := range s[1:] {
		v.And(it.Rows(t))
	}
	return v
}
