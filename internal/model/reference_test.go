package model

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// The reference trainer below is the sort-per-node CART the presorted
// trainer replaced, kept as the oracle TestForestMatchesReference checks
// against: refGrow sorts every sampled continuous column again at every
// node. A forest's tree k grows over the bootstrap sample's row indices,
// which is the same tree as growing over a copy of those rows.

func refGrow(cols []column, labels []bool, rows []int, opt TreeOptions, depth int) *node {
	pos := 0
	for _, r := range rows {
		if labels[r] {
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

	// Feature subsample.
	feat := make([]int, len(cols))
	for i := range feat {
		feat[i] = i
	}
	if opt.FeatureFraction > 0 && opt.FeatureFraction < 1 && opt.rng != nil {
		k := int(math.Ceil(opt.FeatureFraction * float64(len(cols))))
		opt.rng.Shuffle(len(feat), func(a, b int) { feat[a], feat[b] = feat[b], feat[a] })
		feat = feat[:k]
	}

	best := split{gain: 0}
	parentGini := gini(pos, len(rows)-pos)
	for _, fi := range feat {
		var s split
		if cols[fi].field.Kind == dataset.Continuous {
			s = refBestContinuousSplit(cols[fi], labels, rows, opt.MinLeaf, parentGini)
		} else {
			s = refBestCategoricalSplit(cols[fi], labels, rows, opt.MinLeaf, parentGini)
		}
		if s.gain > best.gain {
			best = s
			best.feature = fi
		}
	}
	if best.gain <= 1e-12 {
		return n
	}

	var left, right []int
	for _, r := range rows {
		if refGoesLeft(&cols[best.feature], r, best) {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) < opt.MinLeaf || len(right) < opt.MinLeaf {
		return n
	}
	n.leaf = false
	n.feature = best.feature
	n.isCat = best.isCat
	n.thresh = best.thresh
	n.level = best.level
	n.left = refGrow(cols, labels, left, opt, depth+1)
	n.right = refGrow(cols, labels, right, opt, depth+1)
	return n
}

// refGoesLeft routes a row at a split. Categorical splits are matched by level
// name, not dictionary code, so a tree predicts correctly on tables whose
// dictionaries assign different codes to the same levels.
func refGoesLeft(c *column, row int, s split) bool {
	if s.isCat {
		code, ok := c.levelIndex[s.level]
		return ok && c.codes[row] == code
	}
	v := c.floats[row]
	return math.IsNaN(v) || v <= s.thresh
}

func refBestContinuousSplit(c column, labels []bool, rows []int, minLeaf int, parentGini float64) split {
	// Sort rows by value; NaNs first (they always go left).
	idx := append([]int(nil), rows...)
	sort.Slice(idx, func(a, b int) bool {
		va, vb := c.floats[idx[a]], c.floats[idx[b]]
		if math.IsNaN(va) {
			return !math.IsNaN(vb)
		}
		if math.IsNaN(vb) {
			return false
		}
		return va < vb
	})
	totalPos := 0
	for _, r := range idx {
		if labels[r] {
			totalPos++
		}
	}
	best := split{gain: 0}
	posL, nL := 0, 0
	for i := 0; i < len(idx)-1; i++ {
		r := idx[i]
		nL++
		if labels[r] {
			posL++
		}
		v, next := c.floats[r], c.floats[idx[i+1]]
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

func refBestCategoricalSplit(c column, labels []bool, rows []int, minLeaf int, parentGini float64) split {
	posBy := make([]int, len(c.levels))
	cntBy := make([]int, len(c.levels))
	totalPos := 0
	for _, r := range rows {
		cntBy[c.codes[r]]++
		if labels[r] {
			posBy[c.codes[r]]++
			totalPos++
		}
	}
	best := split{gain: 0, isCat: true}
	for code := range c.levels {
		nL := cntBy[code]
		if nL < minLeaf || len(rows)-nL < minLeaf {
			continue
		}
		posL := posBy[code]
		g := parentGini - weightedChildGini(posL, nL-posL, totalPos-posL, len(rows)-nL-(totalPos-posL))
		if g > best.gain {
			best = split{gain: g, isCat: true, level: c.levels[code]}
		}
	}
	return best
}

// refTrainForest draws the bootstrap samples and tree seeds in
// TrainForest's order and grows each tree with refGrow, serially. It also
// returns each tree's sample.
func refTrainForest(t *dataset.Table, features []string, labels []bool, opt ForestOptions) ([]*Tree, [][]int) {
	cols, fields, err := featureColumns(t, features)
	if err != nil {
		panic(err)
	}
	if opt.NumTrees <= 0 {
		opt.NumTrees = 50
	}
	if opt.MinLeaf <= 0 {
		opt.MinLeaf = 1
	}
	frac := opt.FeatureFraction
	if frac <= 0 {
		frac = math.Sqrt(float64(len(features))) / float64(len(features))
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	n := t.NumRows()
	var trees []*Tree
	var samples [][]int
	for k := 0; k < opt.NumTrees; k++ {
		sample := make([]int, n)
		for i := range sample {
			sample[i] = rng.Intn(n)
		}
		root := refGrow(cols, labels, sample, TreeOptions{
			MaxDepth:        opt.MaxDepth,
			MinLeaf:         opt.MinLeaf,
			FeatureFraction: frac,
			rng:             rand.New(rand.NewSource(rng.Int63())),
		}, 0)
		trees = append(trees, &Tree{root: root, features: fields})
		samples = append(samples, sample)
	}
	return trees, samples
}

// refPredictProb sums each tree's leaf probability per row in tree order,
// routing with refGoesLeft, and divides by the tree count.
func refPredictProb(trees []*Tree, t *dataset.Table) []float64 {
	names := make([]string, len(trees[0].features))
	for i, f := range trees[0].features {
		names[i] = f.Name
	}
	cols, _, err := featureColumns(t, names)
	if err != nil {
		panic(err)
	}
	sum := make([]float64, t.NumRows())
	for _, tr := range trees {
		for r := range sum {
			n := tr.root
			for !n.leaf {
				s := split{isCat: n.isCat, thresh: n.thresh, level: n.level, feature: n.feature}
				if refGoesLeft(&cols[n.feature], r, s) {
					n = n.left
				} else {
					n = n.right
				}
			}
			sum[r] += n.prob
		}
	}
	for r := range sum {
		sum[r] /= float64(len(trees))
	}
	return sum
}

// diffTree returns the first difference between two trees, node for node
// and float for float, or "" when they are equal.
func diffTree(a, b *node, path string) string {
	switch {
	case a.leaf != b.leaf || a.value != b.value || a.isCat != b.isCat:
		return fmt.Sprintf("%s: leaf/value/isCat %v/%v/%v vs %v/%v/%v", path, a.leaf, a.value, a.isCat, b.leaf, b.value, b.isCat)
	case math.Float64bits(a.prob) != math.Float64bits(b.prob):
		return fmt.Sprintf("%s: prob %v vs %v", path, a.prob, b.prob)
	case a.feature != b.feature || a.level != b.level:
		return fmt.Sprintf("%s: feature/level %d/%q vs %d/%q", path, a.feature, a.level, b.feature, b.level)
	case math.Float64bits(a.thresh) != math.Float64bits(b.thresh):
		return fmt.Sprintf("%s: thresh %v vs %v", path, a.thresh, b.thresh)
	case a.leaf:
		return ""
	}
	if d := diffTree(a.left, b.left, path+"L"); d != "" {
		return d
	}
	return diffTree(a.right, b.right, path+"R")
}

// referenceTable builds a table with the split search's hard cases: a
// heavily tied continuous column with NaNs and -Inf, an untied one, a
// constant one, a categorical column with a level held by one row (so
// some bootstraps lack it) and a dictionary level no row holds. It also
// returns that one row's index.
func referenceTable(n int, seed int64) (*dataset.Table, []bool, int) {
	r := rand.New(rand.NewSource(seed))
	tied, smooth, constant := make([]float64, n), make([]float64, n), make([]float64, n)
	levels := []string{"a", "b", "c", "rare", "unused"}
	codes := make([]int, n)
	labels := make([]bool, n)
	rare := n / 2
	for i := 0; i < n; i++ {
		switch u := r.Float64(); {
		case u < 0.1:
			tied[i] = math.NaN()
		case u < 0.13:
			tied[i] = math.Inf(-1)
		default:
			tied[i] = float64(r.Intn(6))
		}
		smooth[i] = r.NormFloat64()
		constant[i] = 7
		codes[i] = r.Intn(3)
		if i == rare {
			codes[i] = 3
		}
		p := 0.2
		if math.IsNaN(tied[i]) || tied[i] >= 3 {
			p += 0.4
		}
		if codes[i] == 1 {
			p += 0.2
		}
		if smooth[i] > 0.5 {
			p = 1 - p
		}
		labels[i] = r.Float64() < p
	}
	tab := dataset.NewBuilder().
		AddFloat("tied", tied).
		AddCategoricalCodes("cat", codes, levels).
		AddFloat("smooth", smooth).
		AddFloat("constant", constant).
		MustBuild()
	return tab, labels, rare
}

// TestForestMatchesReference checks that the presorted, parallel trainer
// grows exactly the reference trainer's trees (features, threshold and
// probability bits, levels) and predicts the same bits, on the default
// worker count, which -cpu varies.
func TestForestMatchesReference(t *testing.T) {
	tab, labels, rare := referenceTable(400, 11)
	features := tab.Names()
	// A table whose dictionary orders the levels differently and lacks
	// "b", so prediction must resolve levels by name; it is long enough
	// for prediction to split its rows into chunks on two or more cores.
	other, _, _ := referenceTable(2*predictChunkRows+100, 12)
	otherCodes := other.Codes("cat")
	otherStrings := make([]string, len(otherCodes))
	for i, c := range otherCodes {
		otherStrings[i] = []string{"c", "a", "c", "rare"}[c%4]
	}
	other = dataset.NewBuilder().
		AddCategorical("cat", otherStrings).
		AddFloat("tied", other.Floats("tied")).
		AddFloat("smooth", other.Floats("smooth")).
		AddFloat("constant", other.Floats("constant")).
		MustBuild()

	deep, absent := false, false
	for _, trees := range []int{1, 7} {
		for _, minLeaf := range []int{1, 3, 5} {
			for _, maxDepth := range []int{0, 4} {
				for _, frac := range []float64{0, 1} {
					opt := ForestOptions{NumTrees: trees, MinLeaf: minLeaf, MaxDepth: maxDepth, FeatureFraction: frac, Seed: int64(100*trees + 10*minLeaf + maxDepth)}
					name := fmt.Sprintf("trees=%d/minLeaf=%d/maxDepth=%d/frac=%v", trees, minLeaf, maxDepth, frac)
					want, samples := refTrainForest(tab, features, labels, opt)
					got, err := TrainForest(tab, features, labels, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got.NumTrees() != len(want) {
						t.Fatalf("%s: %d trees, want %d", name, got.NumTrees(), len(want))
					}
					for k := range want {
						if d := diffTree(want[k].root, got.trees[k].root, "root"); d != "" {
							t.Fatalf("%s: tree %d differs at %s", name, k, d)
						}
						deep = deep || want[k].Depth() >= 4
					}
					absent = absent || lacksRow(samples, rare)
					for _, pt := range []*dataset.Table{tab, other} {
						p, err := got.PredictProb(pt)
						if err != nil {
							t.Fatal(err)
						}
						for i, w := range refPredictProb(want, pt) {
							if math.Float64bits(p[i]) != math.Float64bits(w) {
								t.Fatalf("%s: PredictProb row %d = %v, want %v", name, i, p[i], w)
							}
						}
					}
				}
			}
		}
	}
	if !deep {
		t.Fatal("no reference tree reached depth 4; the table is too easy")
	}
	if !absent {
		t.Fatalf("every bootstrap holds row %d; the absent-level case is not covered", rare)
	}

	// A single tree on every row, full search.
	for _, minLeaf := range []int{1, 5} {
		tr, err := TrainTree(tab, features, labels, TreeOptions{MinLeaf: minLeaf})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]int, tab.NumRows())
		for i := range rows {
			rows[i] = i
		}
		cols, _, _ := featureColumns(tab, features)
		if d := diffTree(refGrow(cols, labels, rows, TreeOptions{MinLeaf: minLeaf}, 0), tr.root, "root"); d != "" {
			t.Fatalf("TrainTree minLeaf=%d differs at %s", minLeaf, d)
		}
	}
}

// lacksRow reports whether some sample does not hold row r.
func lacksRow(samples [][]int, r int) bool {
	for _, s := range samples {
		held := false
		for _, x := range s {
			held = held || x == r
		}
		if !held {
			return true
		}
	}
	return false
}

var benchForest *Forest

// BenchmarkTrainForest trains paper-sweep's forest on the adult analog at
// its reduced size: 8,000 rows, 15 trees, default parameters. It is the
// layer behind paper-sweep's setup_s, which trains five such forests.
func BenchmarkTrainForest(b *testing.B) {
	d := datagen.Adult(datagen.Config{N: 8000, Seed: 1})
	features := d.Table.Names()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := TrainForest(d.Table, features, d.Actual, ForestOptions{NumTrees: 15, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		benchForest = f
	}
}
