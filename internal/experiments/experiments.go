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

// runners maps experiment IDs to their run-and-render functions.
var runners = map[string]struct {
	title string
	run   func(Config) (string, error)
}{
	"table1": {"Table I: impact of #prior discretization on FPR divergence (compas)", func(c Config) (string, error) {
		rows, err := Table1(c)
		if err != nil {
			return "", err
		}
		return RenderTable1(rows), nil
	}},
	"fig1": {"Figure 1: item hierarchy for the #prior attribute (compas, FPR)", Figure1},
	"table2": {"Table II: dataset characteristics", func(c Config) (string, error) {
		rows, err := Table2(c)
		if err != nil {
			return "", err
		}
		return RenderTable2(rows), nil
	}},
	"table3": {"Table III: top divergent compas itemsets by discretization/exploration", func(c Config) (string, error) {
		rows, err := Table3(c)
		if err != nil {
			return "", err
		}
		return RenderTable3(rows), nil
	}},
	"table4": {"Table IV: top divergent folktables itemsets, base vs generalized", func(c Config) (string, error) {
		rows, err := Table4(c)
		if err != nil {
			return "", err
		}
		return RenderTable3(rows), nil
	}},
	"fig2": {"Figure 2: max divergence and execution time, base vs hierarchical", func(c Config) (string, error) {
		pts, err := Figure2(c)
		if err != nil {
			return "", err
		}
		return RenderFigure2(pts), nil
	}},
	"fig3a": {"Figure 3a: folktables highest income divergence, base vs hierarchical", func(c Config) (string, error) {
		pts, err := Figure3a(c)
		if err != nil {
			return "", err
		}
		return RenderFigure3a(pts), nil
	}},
	"fig3b": {"Figure 3b: divergence vs entropy split criteria", func(c Config) (string, error) {
		pts, err := Figure3b(c)
		if err != nil {
			return "", err
		}
		return RenderFigure3b(pts), nil
	}},
	"fig4": {"Figure 4: complete vs polarity-pruned hierarchical search", func(c Config) (string, error) {
		pts, err := Figure4(c)
		if err != nil {
			return "", err
		}
		return RenderFigure4(pts), nil
	}},
	"fig5": {"Figure 5: synthetic-peak top-itemset ranges, base vs generalized", func(c Config) (string, error) {
		res, err := Figure5(c)
		if err != nil {
			return "", err
		}
		return RenderFigure5(res), nil
	}},
	"fig6": {"Figure 6: Slice Finder on synthetic-peak", func(c Config) (string, error) {
		res, err := Figure6(c)
		if err != nil {
			return "", err
		}
		return RenderFigure6(res), nil
	}},
	"fig7": {"Figure 7: quantile discretization vs hierarchical tree discretization", func(c Config) (string, error) {
		pts, err := Figure7(c)
		if err != nil {
			return "", err
		}
		return RenderFigure7(pts), nil
	}},
	"fig8": {"Figure 8: sensitivity to the tree support st", func(c Config) (string, error) {
		pts, err := Figure8(c)
		if err != nil {
			return "", err
		}
		return RenderFigure8(pts), nil
	}},
	"perf": {"§VI-F: performance analysis (discretization cost, polarity speedup)", func(c Config) (string, error) {
		r, err := Perf(c)
		if err != nil {
			return "", err
		}
		return RenderPerf(r), nil
	}},
	"sliceline": {"§VI-G: SliceLine vs base DivExplorer on synthetic-peak", func(c Config) (string, error) {
		res, err := SliceLineComparison(c)
		if err != nil {
			return "", err
		}
		return RenderSliceLine(res), nil
	}},
	"exttree": {"Extension: combined-tree baseline (§V-A discussion) vs H-DivExplorer", func(c Config) (string, error) {
		rows, err := ExtCombinedTree(c)
		if err != nil {
			return "", err
		}
		return RenderExtCombinedTree(rows), nil
	}},
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
