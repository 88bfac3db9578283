package model

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// ForestOptions configures random-forest training.
type ForestOptions struct {
	// NumTrees is the ensemble size (default 50).
	NumTrees int
	// MaxDepth bounds each tree (0 = unlimited).
	MaxDepth int
	// MinLeaf is the minimum rows per leaf (default 1).
	MinLeaf int
	// FeatureFraction is the per-split feature sample; 0 means sqrt(p)/p,
	// the usual random-forest default.
	FeatureFraction float64
	// Seed makes training deterministic.
	Seed int64
}

// Forest is a bagged ensemble of decision trees with majority voting.
type Forest struct {
	trees []*Tree
}

// TrainForest fits a random forest: each tree is trained on a bootstrap
// sample of the rows with per-split feature subsampling. The samples and
// tree seeds are drawn serially from Seed; the trees then train in
// parallel on every core, each on its own rng, so the forest does not
// depend on the core count.
func TrainForest(t *dataset.Table, features []string, labels []bool, opt ForestOptions) (*Forest, error) {
	cols, fields, err := featureColumns(t, features)
	if err != nil {
		return nil, err
	}
	if len(labels) != t.NumRows() {
		return nil, fmt.Errorf("model: %d labels for %d rows", len(labels), t.NumRows())
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
	mult := make([][]int32, opt.NumTrees)
	seeds := make([]int64, opt.NumTrees)
	for k := range mult {
		// Bootstrap sample: how often each row is drawn.
		mult[k] = make([]int32, n)
		for range n {
			mult[k][rng.Intn(n)]++
		}
		seeds[k] = rng.Int63()
	}
	sorted := presort(cols)
	f := &Forest{trees: make([]*Tree, opt.NumTrees)}
	err = engine.ParallelFor(opt.NumTrees, engine.Workers(0), nil, func(k int) {
		f.trees[k] = trainSample(cols, fields, labels, sorted, mult[k], TreeOptions{
			MaxDepth:        opt.MaxDepth,
			MinLeaf:         opt.MinLeaf,
			FeatureFraction: frac,
			rng:             rand.New(rand.NewSource(seeds[k])),
		})
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// PredictProb returns the mean positive-class probability over the
// ensemble for every row.
func (f *Forest) PredictProb(t *dataset.Table) ([]float64, error) {
	return predictProb(f.trees, t)
}

// Predict returns the majority-vote class prediction for every row.
func (f *Forest) Predict(t *dataset.Table) ([]bool, error) {
	p, err := f.PredictProb(t)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(p))
	for i, v := range p {
		out[i] = v >= 0.5
	}
	return out, nil
}

// Accuracy returns the fraction of predictions matching the labels.
func Accuracy(pred, labels []bool) float64 {
	if len(pred) != len(labels) {
		panic(fmt.Sprintf("model: %d predictions vs %d labels", len(pred), len(labels)))
	}
	ok := 0
	for i := range pred {
		if pred[i] == labels[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(pred))
}
