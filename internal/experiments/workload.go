// Package experiments reproduces every table and figure of the paper's
// evaluation (§VI). Each experiment has a typed runner returning structured
// results (used by tests and benchmarks) and a renderer producing the
// table/series text (used by cmd/experiments). DESIGN.md §3 maps experiment
// IDs to paper artifacts.
package experiments

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/hierarchy"
	"repro/internal/model"
	"repro/internal/outcome"
)

// Config scales the experiment suite. The zero value gives a laptop-scale
// run: synthetic analogs are generated at reduced sizes and the random
// forest is small. FullScale restores the paper's dataset sizes.
type Config struct {
	// Seed drives data generation and model training.
	Seed int64
	// FullScale uses the paper's dataset sizes (Table II) instead of the
	// reduced defaults.
	FullScale bool
	// ForestTrees is the random-forest size for the UCI analogs
	// (default 15).
	ForestTrees int
	// SizeOverride forces specific dataset sizes by name, overriding both
	// the reduced defaults and FullScale. Used by schema-only probes and
	// tests.
	SizeOverride map[string]int
}

func (c Config) trees() int {
	if c.ForestTrees > 0 {
		return c.ForestTrees
	}
	return 15
}

// reducedSizes keeps quick runs quick; FullScale uses the generators'
// defaults (the paper's sizes).
var reducedSizes = map[string]int{
	"adult":          8_000,
	"bank":           8_000,
	"compas":         6_172,
	"folktables":     20_000,
	"german":         1_000,
	"intentions":     6_000,
	"synthetic-peak": 10_000,
	"wine":           5_000,
}

func (c Config) size(name string) int {
	if n, ok := c.SizeOverride[name]; ok {
		return n
	}
	if c.FullScale {
		return 0 // generator default = paper size
	}
	return reducedSizes[name]
}

// Workload is a ready-to-explore dataset: feature table, outcome function,
// and the taxonomies of its categorical attributes.
type Workload struct {
	Name    string
	Table   *dataset.Table
	Outcome *outcome.Outcome
	// taxonomies are the multi-level categorical hierarchies (the OCCP/POBP
	// taxonomies for folktables); every other categorical attribute gets
	// a flat hierarchy.
	taxonomies []*hierarchy.Hierarchy
}

// ClassificationNames lists the seven classification workloads of the
// quantitative experiments (Figures 2–4), in the paper's order.
var ClassificationNames = []string{
	"adult", "bank", "compas", "german", "intentions", "synthetic-peak", "wine",
}

// Load builds the named workload. For compas the outcome is the FPR of the
// proprietary-style score; for synthetic-peak the error rate of the
// injected predictions; for folktables the income itself; for the UCI
// analogs the error rate of a random forest trained on the data (the
// paper's protocol).
func Load(name string, cfg Config) (*Workload, error) {
	gen := datagen.Config{N: cfg.size(name), Seed: cfg.Seed}
	switch name {
	case "compas":
		d := datagen.Compas(gen)
		return classified(name, d.Table, outcome.FalsePositiveRate(d.Actual, d.Predicted)), nil
	case "synthetic-peak":
		d := datagen.SyntheticPeak(gen)
		return classified(name, d.Table, outcome.ErrorRate(d.Actual, d.Predicted)), nil
	case "folktables":
		d := datagen.Folktables(gen)
		w := classified(name, d.Table, outcome.Numeric("income", d.Target))
		w.taxonomies = datagen.FolktablesTaxonomies(d.Table)
		return w, nil
	case "adult", "bank", "german", "intentions", "wine":
		var d datagen.Classified
		switch name {
		case "adult":
			d = datagen.Adult(gen)
		case "bank":
			d = datagen.Bank(gen)
		case "german":
			d = datagen.German(gen)
		case "intentions":
			d = datagen.Intentions(gen)
		case "wine":
			d = datagen.Wine(gen)
		}
		pred, err := trainPredict(d.Table, d.Actual, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: training on %s: %w", name, err)
		}
		return classified(name, d.Table, outcome.ErrorRate(d.Actual, pred)), nil
	default:
		return nil, fmt.Errorf("experiments: unknown workload %q", name)
	}
}

func classified(name string, t *dataset.Table, o *outcome.Outcome) *Workload {
	return &Workload{Name: name, Table: t, Outcome: o}
}

// trainPredict fits the paper's "random forest with default parameters"
// stand-in and returns its training-set predictions.
func trainPredict(t *dataset.Table, labels []bool, cfg Config) ([]bool, error) {
	f, err := model.TrainForest(t, t.Names(), labels, model.ForestOptions{
		NumTrees: cfg.trees(),
		Seed:     cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	return f.Predict(t)
}

// Hierarchies builds the full hierarchy set for the workload
// (discretize.Hierarchies): divergence trees (or entropy trees) for every
// continuous attribute at tree support st, then the workload's
// taxonomies, then flat hierarchies for the other categorical attributes.
func (w *Workload) Hierarchies(st float64, crit discretize.Criterion) (*hierarchy.Set, error) {
	return discretize.Hierarchies(w.Table, w.Outcome, discretize.TreeOptions{
		Criterion:  crit,
		MinSupport: st,
	}, w.taxonomies)
}
