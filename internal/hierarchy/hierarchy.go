package hierarchy

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dataset"
)

// Node is one node of an item hierarchy tree.
type Node struct {
	Item     *Item
	Parent   int   // index of the parent node, -1 for the root
	Children []int // indices of child nodes; their domains partition this node's
}

// Hierarchy is an item hierarchy (I_A, ≻_A) for a single attribute: a tree
// whose nodes carry items and whose child items partition the parent item's
// domain (Definition 4.1). Node 0 is the root and covers the whole domain.
type Hierarchy struct {
	Attr  string
	Nodes []Node
}

// NewRooted returns a hierarchy containing only the given root item.
func NewRooted(attr string, root *Item) *Hierarchy {
	return &Hierarchy{Attr: attr, Nodes: []Node{{Item: root, Parent: -1}}}
}

// AddChild appends a child of the node at index parent and returns the new
// node's index.
func (h *Hierarchy) AddChild(parent int, it *Item) int {
	if parent < 0 || parent >= len(h.Nodes) {
		panic(fmt.Sprintf("hierarchy: parent index %d out of range", parent))
	}
	idx := len(h.Nodes)
	h.Nodes = append(h.Nodes, Node{Item: it, Parent: parent})
	h.Nodes[parent].Children = append(h.Nodes[parent].Children, idx)
	return idx
}

// Root returns the root node index (always 0).
func (h *Hierarchy) Root() int { return 0 }

// IsLeaf reports whether node i has no children.
func (h *Hierarchy) IsLeaf(i int) bool { return len(h.Nodes[i].Children) == 0 }

// Depth returns the depth of node i (root = 0).
func (h *Hierarchy) Depth(i int) int {
	d := 0
	for h.Nodes[i].Parent >= 0 {
		i = h.Nodes[i].Parent
		d++
	}
	return d
}

// Items returns the items of all non-root nodes: the exploration item
// universe contributed by this attribute under hierarchical exploration.
// The root is excluded because it constrains nothing.
func (h *Hierarchy) Items() []*Item {
	out := make([]*Item, 0, len(h.Nodes)-1)
	for i, n := range h.Nodes {
		if i != 0 {
			out = append(out, n.Item)
		}
	}
	return out
}

// LeafItems returns the items of the leaves only: the non-overlapping
// discretization used by base (non-hierarchical) exploration. If the root is
// the only node, it has no usable leaf items and an empty slice is returned.
func (h *Hierarchy) LeafItems() []*Item {
	var out []*Item
	for i, n := range h.Nodes {
		if i != 0 && h.IsLeaf(i) {
			out = append(out, n.Item)
		}
	}
	return out
}

// Ancestors returns the node indices on the path from node i's parent up to
// (and including) the root.
func (h *Hierarchy) Ancestors(i int) []int {
	var out []int
	for p := h.Nodes[i].Parent; p >= 0; p = h.Nodes[p].Parent {
		out = append(out, p)
	}
	return out
}

// Validate checks the structural partition property of Definition 4.1: for
// every internal node, the children's domains are pairwise disjoint and
// their union equals the parent's domain. For continuous attributes this is
// checked on interval endpoints; for categorical attributes on code sets.
func (h *Hierarchy) Validate() error {
	if len(h.Nodes) == 0 {
		return fmt.Errorf("hierarchy %q: empty", h.Attr)
	}
	for i, n := range h.Nodes {
		if n.Item == nil {
			return fmt.Errorf("hierarchy %q: node %d has nil item", h.Attr, i)
		}
		if n.Item.Attr != h.Attr {
			return fmt.Errorf("hierarchy %q: node %d constrains attribute %q", h.Attr, i, n.Item.Attr)
		}
		if len(n.Children) == 0 {
			continue
		}
		if err := h.validateSplit(i); err != nil {
			return err
		}
	}
	return nil
}

func (h *Hierarchy) validateSplit(parent int) error {
	p := h.Nodes[parent].Item
	kids := h.Nodes[parent].Children
	switch p.Kind {
	case dataset.Continuous:
		// Children must tile (Lo, Hi] exactly.
		type iv struct{ lo, hi float64 }
		ivs := make([]iv, len(kids))
		for j, k := range kids {
			c := h.Nodes[k].Item
			if c.Kind != dataset.Continuous {
				return fmt.Errorf("hierarchy %q: node %d mixes kinds", h.Attr, parent)
			}
			ivs[j] = iv{c.Lo, c.Hi}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		if ivs[0].lo != p.Lo {
			return fmt.Errorf("hierarchy %q: children of node %d start at %v, want %v", h.Attr, parent, ivs[0].lo, p.Lo)
		}
		for j := 1; j < len(ivs); j++ {
			if ivs[j].lo != ivs[j-1].hi {
				return fmt.Errorf("hierarchy %q: children of node %d have gap/overlap at %v", h.Attr, parent, ivs[j].lo)
			}
		}
		if last := ivs[len(ivs)-1].hi; last != p.Hi {
			return fmt.Errorf("hierarchy %q: children of node %d end at %v, want %v", h.Attr, parent, last, p.Hi)
		}
	case dataset.Categorical:
		seen := map[int]int{} // code -> child node index
		total := 0
		for _, k := range kids {
			c := h.Nodes[k].Item
			if c.Kind != dataset.Categorical {
				return fmt.Errorf("hierarchy %q: node %d mixes kinds", h.Attr, parent)
			}
			for _, code := range c.Codes {
				if prev, dup := seen[code]; dup {
					return fmt.Errorf("hierarchy %q: code %d covered by children %d and %d of node %d", h.Attr, code, prev, k, parent)
				}
				seen[code] = k
				if !p.MatchesCode(code) {
					return fmt.Errorf("hierarchy %q: child of node %d covers code %d outside parent", h.Attr, parent, code)
				}
				total++
			}
		}
		if total != len(p.Codes) {
			return fmt.Errorf("hierarchy %q: children of node %d cover %d codes, parent covers %d", h.Attr, parent, total, len(p.Codes))
		}
	}
	return nil
}

// ValidateOn empirically checks the partition property against a table: for
// each internal node, each row matching the node's item must match exactly
// one child item.
func (h *Hierarchy) ValidateOn(t *dataset.Table) error {
	if err := h.Validate(); err != nil {
		return err
	}
	m := NewMarker(t)
	for i, n := range h.Nodes {
		if len(n.Children) == 0 {
			continue
		}
		parentRows := m.Rows(n.Item)
		union := parentRows.Clone()
		union.AndNot(union) // zero
		covered := 0
		for _, k := range n.Children {
			cr := m.Rows(h.Nodes[k].Item)
			if cr.Intersects(union) {
				return fmt.Errorf("hierarchy %q: children of node %d overlap on data", h.Attr, i)
			}
			union.Or(cr)
			covered += cr.Count()
		}
		if covered != parentRows.Count() || !union.Equal(parentRows) {
			return fmt.Errorf("hierarchy %q: children of node %d cover %d rows, parent has %d", h.Attr, i, covered, parentRows.Count())
		}
	}
	return nil
}

// String renders the hierarchy as an indented tree for debugging.
func (h *Hierarchy) String() string {
	var b strings.Builder
	var walk func(i, depth int)
	walk = func(i, depth int) {
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", depth), h.Nodes[i].Item)
		for _, c := range h.Nodes[i].Children {
			walk(c, depth+1)
		}
	}
	walk(0, 0)
	return b.String()
}

// FlatCategorical builds a depth-1 hierarchy for a categorical column: a
// universal root with one child per observed level. This is the
// non-hierarchical treatment of a categorical attribute (items A=a for all
// a ∈ D_A).
func FlatCategorical(t *dataset.Table, attr string) *Hierarchy {
	levels := t.Levels(attr)
	all := make([]int, len(levels))
	for i := range all {
		all[i] = i
	}
	root := CategoricalItemNamed(attr, attr+"=*", levels, all...)
	h := NewRooted(attr, root)
	for code, level := range levels {
		h.AddChild(0, CategoricalItemNamed(attr, fmt.Sprintf("%s=%s", attr, level), []string{level}, code))
	}
	return h
}

// PathTaxonomy builds a multi-level hierarchy for a categorical column from
// a path function: pathOf(level) returns the chain of group labels from
// coarsest to finest (excluding the level itself), e.g. for an IP address
// "118.114.119.88" → ["118", "118.114", "118.114.119"]. Levels sharing a
// prefix share the corresponding internal nodes; each leaf covers exactly
// one level code. An empty path attaches the level directly under the root.
func PathTaxonomy(t *dataset.Table, attr string, pathOf func(level string) []string) *Hierarchy {
	levels := t.Levels(attr)
	all := make([]int, len(levels))
	for i := range all {
		all[i] = i
	}
	h := NewRooted(attr, CategoricalItemNamed(attr, attr+"=*", levels, all...))
	// Group nodes are created lazily; codes and names are added to every
	// ancestor.
	groupNode := map[string]int{} // joined path -> node index
	for code, level := range levels {
		parent := 0
		key := ""
		for _, g := range pathOf(level) {
			key += "/" + g
			idx, ok := groupNode[key]
			if !ok {
				idx = h.AddChild(parent, CategoricalItem(attr, fmt.Sprintf("%s=%s", attr, g)))
				groupNode[key] = idx
			}
			// Extend the group's coverage with this code and level name.
			it := h.Nodes[idx].Item
			it.Codes = append(it.Codes, code)
			sort.Ints(it.Codes)
			it.Codes = dedupInts(it.Codes)
			it.Names = append(it.Names, level)
			sort.Strings(it.Names)
			it.Names = dedupStrings(it.Names)
			parent = idx
		}
		h.AddChild(parent, CategoricalItemNamed(attr, fmt.Sprintf("%s=%s", attr, level), []string{level}, code))
	}
	collapseUnaryGroups(h)
	return h
}

func dedupStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// collapseUnaryGroups removes internal group nodes that have exactly one
// child whose item covers the same codes (a group containing a single level
// adds no granularity and would duplicate the item in the universe).
func collapseUnaryGroups(h *Hierarchy) {
	// Rebuild the tree, skipping redundant unary group nodes.
	out := NewRooted(h.Attr, h.Nodes[0].Item)
	var copyTree func(src, dstParent int)
	copyTree = func(src, dstParent int) {
		n := h.Nodes[src]
		if len(n.Children) == 1 {
			only := h.Nodes[n.Children[0]]
			if sameCodes(n.Item.Codes, only.Item.Codes) {
				// Skip this node; graft its only child in its place.
				copyTree(n.Children[0], dstParent)
				return
			}
		}
		idx := out.AddChild(dstParent, n.Item)
		for _, c := range n.Children {
			copyTree(c, idx)
		}
	}
	for _, c := range h.Nodes[0].Children {
		copyTree(c, 0)
	}
	*h = *out
}

func sameCodes(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IntervalHierarchyFromCuts builds a hierarchy for a continuous attribute
// from nested cut layers. cuts[0] is the coarsest layer: a sorted list of
// interior cut points partitioning (-Inf,+Inf]; each subsequent layer must
// contain the previous as a subset and refines it. This is a convenience
// for manually specified hierarchical discretizations; the tree discretizer
// in package discretize builds richer hierarchies automatically.
func IntervalHierarchyFromCuts(attr string, layers [][]float64) (*Hierarchy, error) {
	h := NewRooted(attr, ContinuousItem(attr, math.Inf(-1), math.Inf(1)))
	// frontier maps each current leaf interval to its node index.
	type span struct{ lo, hi float64 }
	frontier := map[span]int{{math.Inf(-1), math.Inf(1)}: 0}
	prev := []float64{}
	for li, cuts := range layers {
		if !sort.Float64sAreSorted(cuts) {
			return nil, fmt.Errorf("hierarchy: layer %d cuts not sorted", li)
		}
		if !isSubset(prev, cuts) {
			return nil, fmt.Errorf("hierarchy: layer %d does not refine layer %d", li, li-1)
		}
		next := map[span]int{}
		for sp, node := range frontier {
			inner := cutsWithin(cuts, sp.lo, sp.hi)
			if len(inner) == 0 {
				next[sp] = node
				continue
			}
			bounds := append(append([]float64{sp.lo}, inner...), sp.hi)
			for i := 0; i+1 < len(bounds); i++ {
				child := ContinuousItem(attr, bounds[i], bounds[i+1])
				idx := h.AddChild(node, child)
				next[span{bounds[i], bounds[i+1]}] = idx
			}
		}
		frontier = next
		prev = cuts
	}
	return h, nil
}

func isSubset(sub, super []float64) bool {
	j := 0
	for _, v := range sub {
		for j < len(super) && super[j] < v {
			j++
		}
		if j >= len(super) || super[j] != v {
			return false
		}
	}
	return true
}

func cutsWithin(cuts []float64, lo, hi float64) []float64 {
	var out []float64
	for _, c := range cuts {
		if c > lo && c < hi {
			out = append(out, c)
		}
	}
	return out
}

// Set is the collection of hierarchies for a dataset: one per attribute
// taking part in the exploration (the paper's Γ).
type Set struct {
	ByAttr map[string]*Hierarchy
	order  []string
}

// NewSet returns an empty hierarchy set.
func NewSet() *Set {
	return &Set{ByAttr: map[string]*Hierarchy{}}
}

// Add registers a hierarchy, replacing any previous one for the attribute.
func (s *Set) Add(h *Hierarchy) {
	if _, dup := s.ByAttr[h.Attr]; !dup {
		s.order = append(s.order, h.Attr)
	}
	s.ByAttr[h.Attr] = h
}

// Attrs returns attribute names in insertion order.
func (s *Set) Attrs() []string { return append([]string(nil), s.order...) }

// AllItems returns the union of Items() over all hierarchies, in attribute
// insertion order: the generalized exploration universe.
func (s *Set) AllItems() []*Item {
	var out []*Item
	for _, a := range s.order {
		out = append(out, s.ByAttr[a].Items()...)
	}
	return out
}

// AllLeafItems returns the union of LeafItems() over all hierarchies: the
// base exploration universe.
func (s *Set) AllLeafItems() []*Item {
	var out []*Item
	for _, a := range s.order {
		out = append(out, s.ByAttr[a].LeafItems()...)
	}
	return out
}

// Validate validates every hierarchy in the set.
func (s *Set) Validate() error {
	for _, a := range s.order {
		if err := s.ByAttr[a].Validate(); err != nil {
			return err
		}
	}
	return nil
}
