// Package discretize turns continuous attributes into item hierarchies.
//
// The central algorithm is the paper's individual-attribute tree
// discretization (§V-A): starting from a root covering the whole attribute
// range, leaf nodes are recursively split at the value that maximizes a
// split gain, subject to both children retaining at least a minimum support
// st. Two gain criteria are provided: the classic entropy gain on a boolean
// outcome function, and the paper's novel divergence gain that applies to
// any outcome. Every node of the resulting tree — not just the leaves —
// becomes an item, yielding the item hierarchy consumed by H-DivExplorer;
// the leaves alone form a conventional non-overlapping discretization for
// base explorers.
//
// Unsupervised baselines (equal-frequency quantile and equal-width binning)
// and manually specified cut points are also provided; they produce flat
// (depth-1) hierarchies.
package discretize

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/outcome"
	"repro/internal/stats"
)

// Criterion selects the split gain used by the tree discretizer.
type Criterion int

const (
	// DivergenceGain is the paper's criterion
	//   g(S1,S2|S,f) = #S1/#D·|f(S1)−f(S)| + #S2/#D·|f(S2)−f(S)|,
	// applicable to any outcome function.
	DivergenceGain Criterion = iota
	// EntropyGain is the classic weighted-entropy reduction on a boolean
	// outcome; it requires Outcome.Boolean.
	EntropyGain
)

// String names the criterion.
func (c Criterion) String() string {
	switch c {
	case DivergenceGain:
		return "divergence"
	case EntropyGain:
		return "entropy"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// ParseCriterion is the inverse of String for the CLI flag and the
// server request field: it accepts any case, and "" means the default,
// DivergenceGain.
func ParseCriterion(name string) (Criterion, error) {
	switch strings.ToLower(name) {
	case "", "divergence":
		return DivergenceGain, nil
	case "entropy":
		return EntropyGain, nil
	default:
		return 0, fmt.Errorf("unknown criterion %q", name)
	}
}

// TreeOptions configures the tree discretizer.
type TreeOptions struct {
	// Criterion is the split gain; DivergenceGain by default.
	Criterion Criterion
	// MinSupport is st: each tree node must cover at least this fraction of
	// the dataset. Must be in (0, 0.5].
	MinSupport float64
	// MaxDepth bounds the tree depth below the root; 0 means unlimited.
	MaxDepth int
	// Tracer, when non-nil, receives a span per attribute tree plus
	// counters for nodes grown and splits rejected.
	Tracer *obs.Tracer

	// parent nests the per-attribute spans under an enclosing span
	// (set by TreeSet).
	parent *obs.Span
}

// Tree builds the item hierarchy for one continuous attribute by recursive
// divergence-aware binary splitting. Rows whose attribute value is NaN take
// part in no node (they satisfy no item) but still count toward the dataset
// size in the support denominator, mirroring itemset support semantics.
func Tree(t *dataset.Table, attr string, o *outcome.Outcome, opts TreeOptions) (*hierarchy.Hierarchy, error) {
	if t.KindOf(attr) != dataset.Continuous {
		return nil, fmt.Errorf("discretize: attribute %q is not continuous", attr)
	}
	if o.Len() != t.NumRows() {
		return nil, fmt.Errorf("discretize: outcome has %d rows, table has %d", o.Len(), t.NumRows())
	}
	if opts.MinSupport <= 0 || opts.MinSupport > 0.5 {
		return nil, fmt.Errorf("discretize: MinSupport %v out of (0, 0.5]", opts.MinSupport)
	}
	if opts.Criterion == EntropyGain && !o.Boolean {
		return nil, fmt.Errorf("discretize: entropy criterion requires a boolean outcome, %q is not", o.Name)
	}

	if err := faultinject.Hit(faultinject.SiteDiscretizeTree); err != nil {
		return nil, err
	}
	span := opts.parent.Start(obs.SpanTreePrefix + attr)
	if span == nil {
		span = opts.Tracer.Start(obs.SpanTreePrefix + attr)
	}
	defer span.End()

	vals := t.Floats(attr)
	// The table's shared (value, row) order of the non-NaN rows.
	order := t.SortedRows(attr)

	n := len(order)
	// Prefix sums over the sorted order: valid-outcome count and outcome sum.
	sorted := make([]float64, n)
	prefValid := make([]int, n+1)
	prefSum := make([]float64, n+1)
	for i, row := range order {
		sorted[i] = vals[row]
		prefValid[i+1] = prefValid[i]
		prefSum[i+1] = prefSum[i]
		if o.Valid.Get(int(row)) {
			prefValid[i+1]++
			prefSum[i+1] += o.Values[row]
		}
	}

	total := t.NumRows() // support denominator includes NaN rows
	minRows := int(math.Ceil(opts.MinSupport * float64(total)))
	if minRows < 1 {
		minRows = 1
	}

	h := hierarchy.NewRooted(attr, hierarchy.ContinuousItem(attr, math.Inf(-1), math.Inf(1)))

	type task struct {
		node   int
		a, b   int // sorted range [a, b)
		lo, hi float64
		depth  int
	}
	queue := []task{{node: 0, a: 0, b: n, lo: math.Inf(-1), hi: math.Inf(1), depth: 0}}
	g := gainer{criterion: opts.Criterion, total: float64(total), prefValid: prefValid, prefSum: prefSum}

	cNodes := opts.Tracer.Counter(obs.CtrTreeNodes)
	cNoSupport := opts.Tracer.Counter(obs.CtrSplitsNoSupport)
	cNoGain := opts.Tracer.Counter(obs.CtrSplitsNoGain)

	for len(queue) > 0 {
		tk := queue[0]
		queue = queue[1:]
		if opts.MaxDepth > 0 && tk.depth >= opts.MaxDepth {
			continue
		}
		if tk.b-tk.a < 2*minRows {
			cNoSupport.Add(1)
			continue
		}
		p, gain := g.bestSplit(tk.a, tk.b, sorted, minRows)
		if p < 0 || gain <= 0 {
			cNoGain.Add(1)
			continue
		}
		cNodes.Add(2)
		cut := sorted[p-1]
		left := h.AddChild(tk.node, hierarchy.ContinuousItem(attr, tk.lo, cut))
		right := h.AddChild(tk.node, hierarchy.ContinuousItem(attr, cut, tk.hi))
		queue = append(queue,
			task{node: left, a: tk.a, b: p, lo: tk.lo, hi: cut, depth: tk.depth + 1},
			task{node: right, a: p, b: tk.b, lo: cut, hi: tk.hi, depth: tk.depth + 1},
		)
	}
	return h, nil
}

// gainer evaluates split gains over a sorted range using prefix sums.
type gainer struct {
	criterion Criterion
	total     float64
	prefValid []int
	prefSum   []float64
}

// segment returns (#rows, #valid, Σo) for the sorted range [a,b).
func (g *gainer) segment(a, b int) (rows, valid int, sum float64) {
	return b - a, g.prefValid[b] - g.prefValid[a], g.prefSum[b] - g.prefSum[a]
}

// bestSplit scans candidate boundaries between distinct values in [a,b),
// honoring the support constraint, and returns the best split position p
// (left = [a,p), right = [p,b)) and its gain. p = -1 when no feasible
// candidate exists.
func (g *gainer) bestSplit(a, b int, sorted []float64, minRows int) (int, float64) {
	bestP, bestGain := -1, 0.0
	if b-a < 2*minRows {
		return -1, 0
	}
	_, validS, sumS := g.segment(a, b)
	var fS float64
	if validS > 0 {
		fS = sumS / float64(validS)
	}
	for p := a + minRows; p <= b-minRows; p++ {
		if sorted[p-1] == sorted[p] {
			continue // not a boundary between distinct values
		}
		gain := g.splitGain(a, p, b, validS, fS)
		if gain > bestGain {
			bestGain, bestP = gain, p
		}
	}
	return bestP, bestGain
}

func (g *gainer) splitGain(a, p, b, validS int, fS float64) float64 {
	rows1, valid1, sum1 := g.segment(a, p)
	rows2, valid2, sum2 := g.segment(p, b)
	switch g.criterion {
	case EntropyGain:
		// Weighted entropy reduction; the parent term is constant across
		// candidate splits of the same node but kept for interpretability.
		hS := 0.0
		if validS > 0 {
			hS = stats.BinaryEntropy(fS)
		}
		h1, h2 := 0.0, 0.0
		if valid1 > 0 {
			h1 = stats.BinaryEntropy(sum1 / float64(valid1))
		}
		if valid2 > 0 {
			h2 = stats.BinaryEntropy(sum2 / float64(valid2))
		}
		rowsS := float64(rows1 + rows2)
		return rowsS/g.total*hS - (float64(rows1)/g.total*h1 + float64(rows2)/g.total*h2)
	default: // DivergenceGain
		gain := 0.0
		if valid1 > 0 {
			gain += float64(rows1) / g.total * math.Abs(sum1/float64(valid1)-fS)
		}
		if valid2 > 0 {
			gain += float64(rows2) / g.total * math.Abs(sum2/float64(valid2)-fS)
		}
		return gain
	}
}

// TreeSet builds a tree hierarchy for every continuous attribute of the
// table (except those listed in exclude) and returns them as a hierarchy
// set. Categorical attributes are not included; Hierarchies adds them.
func TreeSet(t *dataset.Table, o *outcome.Outcome, opts TreeOptions, exclude ...string) (*hierarchy.Set, error) {
	skip := map[string]bool{}
	for _, e := range exclude {
		skip[e] = true
	}
	span := opts.parent.Start(obs.SpanDiscretize)
	if span == nil {
		span = opts.Tracer.Start(obs.SpanDiscretize)
	}
	defer span.End()
	opts.parent = span
	set := hierarchy.NewSet()
	for _, f := range t.Fields() {
		if f.Kind != dataset.Continuous || skip[f.Name] {
			continue
		}
		h, err := Tree(t, f.Name, o, opts)
		if err != nil {
			return nil, err
		}
		set.Add(h)
	}
	return set, nil
}

// Hierarchies builds the full hierarchy set of the paper's stage 1
// (§V-A): a tree for every continuous attribute (TreeSet, in column
// order), then the supplied taxonomies, then a flat hierarchy for every
// other categorical attribute, in column order. A taxonomy replaces its
// column's default hierarchy, tree or flat. Excluded attributes get no
// hierarchy at all, taxonomies included. The library pipeline, the
// server's universe cache and the experiments all build through it, so
// their explorations run over the same items in the same order.
func Hierarchies(t *dataset.Table, o *outcome.Outcome, opts TreeOptions, taxonomies []*hierarchy.Hierarchy, exclude ...string) (*hierarchy.Set, error) {
	skip := map[string]bool{}
	noTree := append([]string(nil), exclude...)
	for _, e := range exclude {
		skip[e] = true
	}
	for _, h := range taxonomies {
		noTree = append(noTree, h.Attr)
	}
	set, err := TreeSet(t, o, opts, noTree...)
	if err != nil {
		return nil, err
	}
	for _, h := range taxonomies {
		if !skip[h.Attr] {
			set.Add(h)
		}
	}
	for _, f := range t.Fields() {
		if f.Kind == dataset.Categorical && !skip[f.Name] && set.ByAttr[f.Name] == nil {
			set.Add(hierarchy.FlatCategorical(t, f.Name))
		}
	}
	return set, nil
}

// Quantile builds a flat (depth-1) equal-frequency discretization with the
// given number of bins: the unsupervised baseline of §VI-D. Duplicate cut
// points (from repeated values) are merged, so the result may have fewer
// bins than requested.
func Quantile(t *dataset.Table, attr string, bins int) (*hierarchy.Hierarchy, error) {
	if bins < 2 {
		return nil, fmt.Errorf("discretize: quantile bins must be ≥ 2, got %d", bins)
	}
	vals, rows := t.Floats(attr), t.SortedRows(attr)
	if len(rows) == 0 {
		return nil, fmt.Errorf("discretize: attribute %q has no values", attr)
	}
	// Cuts are snapped to observed order statistics (the lower neighbour of
	// the interpolated quantile) so that every resulting half-open bin
	// (c_i, c_{i+1}] contains at least one observed value.
	cuts := make([]float64, 0, bins-1)
	for i := 1; i < bins; i++ {
		pos := float64(i) / float64(bins) * float64(len(rows)-1)
		cuts = append(cuts, vals[rows[int(pos)]])
	}
	return flatFromCuts(attr, dedupCuts(cuts, vals[rows[0]], vals[rows[len(rows)-1]])), nil
}

// UniformWidth builds a flat equal-width discretization with the given
// number of bins over the observed value range.
func UniformWidth(t *dataset.Table, attr string, bins int) (*hierarchy.Hierarchy, error) {
	if bins < 2 {
		return nil, fmt.Errorf("discretize: uniform bins must be ≥ 2, got %d", bins)
	}
	vals, rows := t.Floats(attr), t.SortedRows(attr)
	if len(rows) == 0 {
		return nil, fmt.Errorf("discretize: attribute %q has no values", attr)
	}
	lo, hi := vals[rows[0]], vals[rows[len(rows)-1]]
	if lo == hi {
		return flatFromCuts(attr, nil), nil
	}
	cuts := make([]float64, 0, bins-1)
	for i := 1; i < bins; i++ {
		cuts = append(cuts, lo+(hi-lo)*float64(i)/float64(bins))
	}
	return flatFromCuts(attr, dedupCuts(cuts, lo, hi)), nil
}

// ManualCuts builds a flat discretization from explicit interior cut points
// (must be strictly increasing), reproducing the "manual discretization"
// baselines used in prior work.
func ManualCuts(attr string, cuts []float64) (*hierarchy.Hierarchy, error) {
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			return nil, fmt.Errorf("discretize: manual cuts must be strictly increasing")
		}
	}
	return flatFromCuts(attr, cuts), nil
}

func flatFromCuts(attr string, cuts []float64) *hierarchy.Hierarchy {
	h := hierarchy.NewRooted(attr, hierarchy.ContinuousItem(attr, math.Inf(-1), math.Inf(1)))
	bounds := append([]float64{math.Inf(-1)}, cuts...)
	bounds = append(bounds, math.Inf(1))
	if len(bounds) == 2 {
		return h // no cuts: root only, no leaf items
	}
	for i := 0; i+1 < len(bounds); i++ {
		h.AddChild(0, hierarchy.ContinuousItem(attr, bounds[i], bounds[i+1]))
	}
	return h
}

// dedupCuts sorts, deduplicates and strips cut points that would create
// empty end bins (cuts at or beyond the observed extremes).
func dedupCuts(cuts []float64, lo, hi float64) []float64 {
	sort.Float64s(cuts)
	out := cuts[:0]
	for i, c := range cuts {
		if c < lo || c >= hi {
			continue // cut ≥ hi leaves an empty (c, +Inf] bin: (lo-ε ok: lo itself goes to first bin)
		}
		if i > 0 && len(out) > 0 && c == out[len(out)-1] {
			continue
		}
		out = append(out, c)
	}
	return out
}
