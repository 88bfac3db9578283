// Package model provides the classifier substrate used by the experiment
// pipeline: a CART-style decision tree and a bagged random forest. The
// paper's quantitative experiments train "a random forest classifier with
// default parameters" on each UCI dataset and explore the divergence of its
// error rate; this package plays that role for the synthetic analogs.
package model

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// TreeOptions configures decision-tree induction.
type TreeOptions struct {
	// MaxDepth bounds tree depth; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum number of training rows per leaf (default 1).
	MinLeaf int
	// FeatureFraction is the fraction of features sampled at each split;
	// 0 means all features (single trees) — forests override it.
	FeatureFraction float64
	// rng drives feature subsampling; nil means deterministic full search.
	rng *rand.Rand
}

// node is one decision-tree node.
type node struct {
	leaf    bool
	value   bool    // majority class at this node
	prob    float64 // fraction of positive training rows
	feature int     // column index in the feature schema
	isCat   bool
	thresh  float64 // continuous: go left iff v <= thresh (NaN goes left)
	level   string  // categorical: go left iff the row's level equals this
	left    *node
	right   *node
}

// Tree is a trained decision tree.
type Tree struct {
	root     *node
	features []dataset.Field
}

// TrainTree fits a CART tree with Gini impurity on the given feature
// columns and boolean labels.
func TrainTree(t *dataset.Table, features []string, labels []bool, opt TreeOptions) (*Tree, error) {
	cols, fields, err := featureColumns(t, features)
	if err != nil {
		return nil, err
	}
	if len(labels) != t.NumRows() {
		return nil, fmt.Errorf("model: %d labels for %d rows", len(labels), t.NumRows())
	}
	if opt.MinLeaf <= 0 {
		opt.MinLeaf = 1
	}
	return trainSample(cols, fields, labels, presort(cols), nil, opt), nil
}

// column holds one feature column in a split-friendly layout.
type column struct {
	field      dataset.Field
	floats     []float64
	codes      []int
	levels     []string
	levelIndex map[string]int
}

func featureColumns(t *dataset.Table, features []string) ([]column, []dataset.Field, error) {
	if len(features) == 0 {
		return nil, nil, fmt.Errorf("model: no features")
	}
	cols := make([]column, len(features))
	fields := make([]dataset.Field, len(features))
	for i, name := range features {
		if !t.HasColumn(name) {
			return nil, nil, fmt.Errorf("model: no column %q", name)
		}
		k := t.KindOf(name)
		fields[i] = dataset.Field{Name: name, Kind: k}
		if k == dataset.Continuous {
			cols[i] = column{field: fields[i], floats: t.Floats(name)}
		} else {
			levels := t.Levels(name)
			idx := make(map[string]int, len(levels))
			for code, l := range levels {
				idx[l] = code
			}
			cols[i] = column{field: fields[i], codes: t.Codes(name), levels: levels, levelIndex: idx}
		}
	}
	return cols, fields, nil
}

// presort returns, for every continuous column, the table's rows in
// ascending order of value with NaNs first; categorical columns get nil.
// A forest sorts once and derives every tree's orders from it (bootOrder).
func presort(cols []column) [][]int32 {
	sorted := make([][]int32, len(cols))
	for fi, c := range cols {
		if c.field.Kind != dataset.Continuous {
			continue
		}
		idx := make([]int32, len(c.floats))
		for r := range idx {
			idx[r] = int32(r)
		}
		// cmp.Compare orders NaN before every other value.
		slices.SortFunc(idx, func(a, b int32) int { return cmp.Compare(c.floats[a], c.floats[b]) })
		sorted[fi] = idx
	}
	return sorted
}

// grower trains one tree over a sample of the table's rows, each row
// taken as often as its multiplicity. Every node owns the segment
// [lo, hi) of rows and of each continuous column's order, the sample's
// rows sorted by that column's value; a split stable-partitions the
// segments, so no node sorts anything.
type grower struct {
	cols   []column
	labels []bool
	opt    TreeOptions
	rows   []int32   // the sample in row order: labels and categorical counts
	order  [][]int32 // per continuous column, the sample in value order; nil for categorical
	left   []bool    // per table row: whether it goes left at the split being applied
	spill  []int32   // right-hand rows during a partition
	feat   []int     // feature subsample
	posBy  []int     // per level: positive rows in the node
	cntBy  []int     // per level: rows in the node
}

// trainSample grows one tree on the sample given by mult, each table row
// taken mult[r] times (nil takes every row once), with sorted from
// presort(cols).
func trainSample(cols []column, fields []dataset.Field, labels []bool, sorted [][]int32, mult []int32, opt TreeOptions) *Tree {
	n := len(labels)
	maxLevels := 0
	for _, c := range cols {
		maxLevels = max(maxLevels, len(c.levels))
	}
	g := &grower{
		cols:   cols,
		labels: labels,
		opt:    opt,
		rows:   bootOrder(nil, n, mult),
		order:  make([][]int32, len(cols)),
		left:   make([]bool, n),
		spill:  make([]int32, n),
		feat:   make([]int, len(cols)),
		posBy:  make([]int, maxLevels),
		cntBy:  make([]int, maxLevels),
	}
	for fi, s := range sorted {
		if s != nil {
			g.order[fi] = bootOrder(s, n, mult)
		}
	}
	return &Tree{root: g.grow(0, n, 0), features: fields}
}

// bootOrder expands an order of the table's n rows (nil is row order)
// into the sample's: each row repeated mult[r] times in place (once when
// mult is nil). A bootstrap draws n rows, so the result has n entries.
func bootOrder(order []int32, n int, mult []int32) []int32 {
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		r := int32(i)
		if order != nil {
			r = order[i]
		}
		if mult == nil {
			out = append(out, r)
			continue
		}
		for m := mult[r]; m > 0; m-- {
			out = append(out, r)
		}
	}
	return out
}

func (g *grower) grow(lo, hi, depth int) *node {
	rows := g.rows[lo:hi]
	opt := g.opt
	pos := 0
	for _, r := range rows {
		if g.labels[r] {
			pos++
		}
	}
	n := &node{
		leaf:  true,
		value: 2*pos >= len(rows),
		prob:  float64(pos) / float64(len(rows)),
	}
	if pos == 0 || pos == len(rows) || len(rows) < 2*opt.MinLeaf {
		return n
	}
	if opt.MaxDepth > 0 && depth >= opt.MaxDepth {
		return n
	}

	// Feature subsample. The shuffle's draws depend only on the length,
	// so reusing the buffer keeps the rng stream of a fresh slice.
	feat := g.feat
	for i := range feat {
		feat[i] = i
	}
	if opt.FeatureFraction > 0 && opt.FeatureFraction < 1 && opt.rng != nil {
		k := int(math.Ceil(opt.FeatureFraction * float64(len(g.cols))))
		opt.rng.Shuffle(len(feat), func(a, b int) { feat[a], feat[b] = feat[b], feat[a] })
		feat = feat[:k]
	}

	best := split{gain: 0}
	parentGini := gini(pos, len(rows)-pos)
	for _, fi := range feat {
		var s split
		if g.order[fi] != nil {
			s = bestContinuousSplit(g.cols[fi].floats, g.labels, g.order[fi][lo:hi], pos, opt.MinLeaf, parentGini)
		} else {
			s = g.bestCategoricalSplit(g.cols[fi], rows, pos, parentGini)
		}
		if s.gain > best.gain {
			best = s
			best.feature = fi
		}
	}
	if best.gain <= 1e-12 {
		return n
	}

	// Route by value, as prediction does: a threshold of -Inf (NaN vs
	// rest) also sends -Inf rows left, so the left count is recounted.
	c := &g.cols[best.feature]
	code, ok := -1, true
	if best.isCat {
		code, ok = c.levelIndex[best.level]
	}
	nLeft := 0
	for _, r := range rows {
		var l bool
		if best.isCat {
			l = ok && c.codes[r] == code
		} else {
			v := c.floats[r]
			l = math.IsNaN(v) || v <= best.thresh
		}
		g.left[r] = l
		if l {
			nLeft++
		}
	}
	if nLeft < opt.MinLeaf || len(rows)-nLeft < opt.MinLeaf {
		return n
	}
	g.partition(rows)
	for _, o := range g.order {
		if o != nil {
			g.partition(o[lo:hi])
		}
	}
	n.leaf = false
	n.feature = best.feature
	n.isCat = best.isCat
	n.thresh = best.thresh
	n.level = best.level
	n.left = g.grow(lo, lo+nLeft, depth+1)
	n.right = g.grow(lo+nLeft, hi, depth+1)
	return n
}

// partition reorders seg so the rows marked in g.left come first, keeping
// the relative order on both sides, so sorted segments stay sorted.
func (g *grower) partition(seg []int32) {
	w, nr := 0, 0
	for _, r := range seg {
		if g.left[r] {
			seg[w] = r
			w++
		} else {
			g.spill[nr] = r
			nr++
		}
	}
	copy(seg[w:], g.spill[:nr])
}

type split struct {
	gain    float64
	feature int
	isCat   bool
	thresh  float64
	level   string
}

// gini returns the Gini impurity of a (pos, neg) node.
func gini(pos, neg int) float64 {
	n := float64(pos + neg)
	if n == 0 {
		return 0
	}
	p := float64(pos) / n
	return 2 * p * (1 - p)
}

// weightedChildGini returns the size-weighted Gini of a binary split.
func weightedChildGini(posL, negL, posR, negR int) float64 {
	nL, nR := float64(posL+negL), float64(posR+negR)
	n := nL + nR
	return nL/n*gini(posL, negL) + nR/n*gini(posR, negR)
}

// bestContinuousSplit scans a node's rows in value order (NaNs first;
// ties in any order) of which totalPos are positive. Candidates sit only
// between distinct values and read integer class counts, so the order of
// tied rows cannot change the result.
func bestContinuousSplit(floats []float64, labels []bool, idx []int32, totalPos, minLeaf int, parentGini float64) split {
	best := split{gain: 0}
	posL, nL := 0, 0
	for i := 0; i < len(idx)-1; i++ {
		r := idx[i]
		nL++
		if labels[r] {
			posL++
		}
		v, next := floats[r], floats[idx[i+1]]
		if math.IsNaN(next) || v == next || math.IsNaN(v) && math.IsNaN(next) {
			continue
		}
		if nL < minLeaf || len(idx)-nL < minLeaf {
			continue
		}
		g := parentGini - weightedChildGini(posL, nL-posL, totalPos-posL, len(idx)-nL-(totalPos-posL))
		if g > best.gain {
			thresh := v
			if math.IsNaN(thresh) {
				// All left rows so far are NaN: split "NaN vs rest".
				thresh = math.Inf(-1)
			}
			best = split{gain: g, thresh: thresh}
		}
	}
	return best
}

func (g *grower) bestCategoricalSplit(c column, rows []int32, totalPos int, parentGini float64) split {
	posBy, cntBy := g.posBy[:len(c.levels)], g.cntBy[:len(c.levels)]
	clear(posBy)
	clear(cntBy)
	for _, r := range rows {
		cntBy[c.codes[r]]++
		if g.labels[r] {
			posBy[c.codes[r]]++
		}
	}
	best := split{gain: 0, isCat: true}
	for code := range c.levels {
		nL := cntBy[code]
		if nL < g.opt.MinLeaf || len(rows)-nL < g.opt.MinLeaf {
			continue
		}
		posL := posBy[code]
		gain := parentGini - weightedChildGini(posL, nL-posL, totalPos-posL, len(rows)-nL-(totalPos-posL))
		if gain > best.gain {
			best = split{gain: gain, isCat: true, level: c.levels[code]}
		}
	}
	return best
}

// Predict returns the tree's class prediction for every row of the table,
// which must contain the training feature columns.
func (tr *Tree) Predict(t *dataset.Table) ([]bool, error) {
	probs, err := tr.PredictProb(t)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(probs))
	for i, p := range probs {
		out[i] = p >= 0.5
	}
	return out, nil
}

// PredictProb returns the positive-class probability for every row.
func (tr *Tree) PredictProb(t *dataset.Table) ([]float64, error) {
	return predictProb([]*Tree{tr}, t)
}

// flatNode is a node compiled for one prediction table: children by
// index (left < 0 marks a leaf) and a categorical level resolved to that
// table's code, -1 when the table lacks the level.
type flatNode struct {
	left, right int32
	feature     int32
	code        int32
	isCat       bool
	thresh      float64
	prob        float64
}

// compile flattens the tree in preorder against a prediction table's
// columns. Categorical splits are matched by level name, not dictionary
// code, so a tree predicts correctly on tables whose dictionaries assign
// different codes to the same levels.
func (tr *Tree) compile(cols []column) []flatNode {
	var out []flatNode
	var walk func(n *node) int32
	walk = func(n *node) int32 {
		i := int32(len(out))
		out = append(out, flatNode{left: -1, prob: n.prob})
		if n.leaf {
			return i
		}
		f := flatNode{feature: int32(n.feature), isCat: n.isCat, thresh: n.thresh, code: -1}
		if n.isCat {
			if code, ok := cols[n.feature].levelIndex[n.level]; ok {
				f.code = int32(code)
			}
		}
		f.left = walk(n.left)
		f.right = walk(n.right)
		out[i] = f
		return i
	}
	walk(tr.root)
	return out
}

// predictChunkRows is the fewest rows a prediction chunk covers.
const predictChunkRows = 1024

// predictProb returns the mean probability of trees, which share one
// feature schema, for every row of t. Each row sums its trees in tree
// order, so the result does not depend on how rows are chunked.
func predictProb(trees []*Tree, t *dataset.Table) ([]float64, error) {
	names := make([]string, len(trees[0].features))
	for i, f := range trees[0].features {
		names[i] = f.Name
	}
	cols, _, err := featureColumns(t, names)
	if err != nil {
		return nil, err
	}
	flat := make([][]flatNode, len(trees))
	for k, tr := range trees {
		flat[k] = tr.compile(cols)
	}
	n := t.NumRows()
	out := make([]float64, n)
	chunks := engine.Chunks(n, 0, predictChunkRows)
	err = engine.ParallelFor(chunks, engine.Workers(0), nil, func(c int) {
		lo, hi := engine.ChunkRange(n, chunks, c)
		for r := lo; r < hi; r++ {
			sum := 0.0
			for _, nodes := range flat {
				sum += leafProb(nodes, cols, r)
			}
			out[r] = sum / float64(len(flat))
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// leafProb routes row r down a compiled tree and returns its leaf's
// probability. NaN goes left at a continuous split.
func leafProb(nodes []flatNode, cols []column, r int) float64 {
	i := int32(0)
	for {
		nd := &nodes[i]
		if nd.left < 0 {
			return nd.prob
		}
		c := &cols[nd.feature]
		var l bool
		if nd.isCat {
			l = c.codes[r] == int(nd.code)
		} else {
			v := c.floats[r]
			l = math.IsNaN(v) || v <= nd.thresh
		}
		if l {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// Depth returns the maximum depth of the tree (a single leaf has depth 0).
func (tr *Tree) Depth() int {
	var d func(n *node) int
	d = func(n *node) int {
		if n.leaf {
			return 0
		}
		l, r := d(n.left), d(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return d(tr.root)
}
