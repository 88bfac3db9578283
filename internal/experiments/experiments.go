package experiments

import (
	"fmt"
	"sort"
)

// Artifact is one rendered experiment: a paper table or figure.
type Artifact struct {
	ID    string
	Title string
	Text  string
}

// runner is one experiment's title and run-and-render function.
type runner struct {
	title string
	run   func(Config) (string, error)
}

// artifact makes the runner of an experiment that computes its result
// with run and renders it with render.
func artifact[T any](title string, run func(Config) (T, error), render func(T) string) runner {
	return runner{title, func(c Config) (string, error) {
		res, err := run(c)
		if err != nil {
			return "", err
		}
		return render(res), nil
	}}
}

// runners maps experiment IDs to their run-and-render functions.
var runners = map[string]runner{
	"table1":    artifact("Table I: impact of #prior discretization on FPR divergence (compas)", Table1, RenderTable1),
	"fig1":      {"Figure 1: item hierarchy for the #prior attribute (compas, FPR)", Figure1},
	"table2":    artifact("Table II: dataset characteristics", Table2, RenderTable2),
	"table3":    artifact("Table III: top divergent compas itemsets by discretization/exploration", Table3, RenderTable3),
	"table4":    artifact("Table IV: top divergent folktables itemsets, base vs generalized", Table4, RenderTable3),
	"fig2":      artifact("Figure 2: max divergence and execution time, base vs hierarchical", Figure2, RenderFigure2),
	"fig3a":     artifact("Figure 3a: folktables highest income divergence, base vs hierarchical", Figure3a, RenderFigure3a),
	"fig3b":     artifact("Figure 3b: divergence vs entropy split criteria", Figure3b, RenderFigure3b),
	"fig4":      artifact("Figure 4: complete vs polarity-pruned hierarchical search", Figure4, RenderFigure4),
	"fig5":      artifact("Figure 5: synthetic-peak top-itemset ranges, base vs generalized", Figure5, RenderFigure5),
	"fig6":      artifact("Figure 6: Slice Finder on synthetic-peak", Figure6, RenderFigure6),
	"fig7":      artifact("Figure 7: quantile discretization vs hierarchical tree discretization", Figure7, RenderFigure7),
	"fig8":      artifact("Figure 8: sensitivity to the tree support st", Figure8, RenderFigure8),
	"perf":      artifact("§VI-F: performance analysis (discretization cost, polarity speedup)", Perf, RenderPerf),
	"sliceline": artifact("§VI-G: SliceLine vs base DivExplorer on synthetic-peak", SliceLineComparison, RenderSliceLine),
	"exttree":   artifact("Extension: combined-tree baseline (§V-A discussion) vs H-DivExplorer", ExtCombinedTree, RenderExtCombinedTree),
}

// IDs returns the experiment identifiers in a stable order.
func IDs() []string {
	out := make([]string, 0, len(runners))
	for id := range runners {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Artifact, error) {
	r, ok := runners[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	text, err := r.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return &Artifact{ID: id, Title: r.title, Text: text}, nil
}
