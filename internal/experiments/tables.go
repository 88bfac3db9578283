package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/fpm"
	"repro/internal/hierarchy"
)

// Table1Row is one row of the paper's Table I: FPR and FPR divergence of a
// manually defined compas subgroup.
type Table1Row struct {
	Subgroup   string
	FPR        float64
	Divergence float64
	Support    float64
}

// Table1 reproduces Table I: the impact of #prior discretization on FPR
// divergence for fixed, manually chosen compas subgroups.
func Table1(cfg Config) ([]Table1Row, error) {
	w, err := Load("compas", cfg)
	if err != nil {
		return nil, err
	}
	inf := math.Inf(1)
	subgroups := []struct {
		name  string
		items hierarchy.Itemset
	}{
		{"Entire dataset", hierarchy.Itemset{}},
		{"#prior>3", hierarchy.Itemset{hierarchy.ContinuousItem("prior", 3, inf)}},
		{"#prior>8", hierarchy.Itemset{hierarchy.ContinuousItem("prior", 8, inf)}},
		{"age<27", hierarchy.Itemset{hierarchy.ContinuousItem("age", math.Inf(-1), 26.999)}},
		{"age<27, #prior>3", hierarchy.Itemset{
			hierarchy.ContinuousItem("age", math.Inf(-1), 26.999),
			hierarchy.ContinuousItem("prior", 3, inf),
		}},
	}
	rows := make([]Table1Row, 0, len(subgroups))
	for _, sg := range subgroups {
		r := sg.items.Rows(w.Table)
		rows = append(rows, Table1Row{
			Subgroup:   sg.name,
			FPR:        w.Outcome.StatOf(r),
			Divergence: w.Outcome.DivergenceOf(r),
			Support:    float64(r.Count()) / float64(w.Table.NumRows()),
		})
	}
	return rows, nil
}

// RenderTable1 renders Table I.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %8s %8s %8s\n", "Data subgroup", "FPR", "ΔFPR", "Support")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %8.3f %+8.3f %8.2f\n", r.Subgroup, r.FPR, r.Divergence, r.Support)
	}
	return b.String()
}

// Figure1 reproduces Figure 1: the annotated item hierarchy that the
// divergence-gain tree discretizer builds for the compas #prior attribute
// at st = 0.1.
func Figure1(cfg Config) (string, error) {
	w, err := Load("compas", cfg)
	if err != nil {
		return "", err
	}
	h, err := discretize.Tree(w.Table, "prior", w.Outcome, discretize.TreeOptions{
		Criterion:  discretize.DivergenceGain,
		MinSupport: 0.1,
	})
	if err != nil {
		return "", err
	}
	return core.DescribeHierarchy(w.Table, h, w.Outcome), nil
}

// Table2Row is one row of Table II: dataset characteristics.
type Table2Row struct {
	Dataset  string
	Rows     int
	Attrs    int
	NumAttrs int
	CatAttrs int
}

// Table2 reproduces Table II over all eight datasets. It always reports the
// paper-scale sizes (generator defaults), regardless of cfg.FullScale.
func Table2(cfg Config) ([]Table2Row, error) {
	names := []string{"adult", "bank", "compas", "folktables", "german", "intentions", "synthetic-peak", "wine"}
	paperSizes := map[string]int{
		"adult": 45_222, "bank": 45_211, "compas": 6_172, "folktables": 195_556,
		"german": 1_000, "intentions": 12_330, "synthetic-peak": 10_000, "wine": 9_796,
	}
	rows := make([]Table2Row, 0, len(names))
	for _, n := range names {
		// Schema only: generate a tiny instance to read the schema.
		w, err := Load(n, Config{Seed: cfg.Seed, ForestTrees: 1, SizeOverride: map[string]int{n: 200}})
		if err != nil {
			return nil, err
		}
		nNum, nCat := w.Table.CountKinds()
		rows = append(rows, Table2Row{
			Dataset:  n,
			Rows:     paperSizes[n],
			Attrs:    nNum + nCat,
			NumAttrs: nNum,
			CatAttrs: nCat,
		})
	}
	return rows, nil
}

// RenderTable2 renders Table II.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %5s %7s %7s\n", "dataset", "|D|", "|A|", "|A|num", "|A|cat")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8d %5d %7d %7d\n", r.Dataset, r.Rows, r.Attrs, r.NumAttrs, r.CatAttrs)
	}
	return b.String()
}

// Table3Row is one row of Table III / Table IV: the top divergent itemset
// found by one exploration setting at one support threshold.
type Table3Row struct {
	S          float64
	Approach   string
	Itemset    string
	Support    float64
	Divergence float64
	T          float64
	Mining     fpm.MiningStats // the exploration's mining counts
}

// compasManualHierarchies reproduces the manual discretization used by
// prior work on compas: age <25 / 25–45 / >45, #prior 0 / 1–3 / >3, stay
// ≤1w / 1w–3M / >3M, plus the flat categorical attributes. The manual
// cuts take the place of the continuous attributes' trees, in that fixed
// order, so the universe's item order is the same in every run.
func compasManualHierarchies(w *Workload) (*hierarchy.Set, error) {
	manual := []struct {
		attr string
		cuts []float64
	}{
		{"age", []float64{24.999, 45}},
		{"prior", []float64{0, 3}},
		{"stay", []float64{7, 90}},
	}
	var hs []*hierarchy.Hierarchy
	for _, m := range manual {
		h, err := discretize.ManualCuts(m.attr, m.cuts)
		if err != nil {
			return nil, err
		}
		hs = append(hs, h)
	}
	return discretize.Hierarchies(w.Table, w.Outcome, discretize.TreeOptions{}, hs)
}

// Table3 reproduces Table III: the top FPR-divergent compas itemset under
// manual discretization (base), tree discretization with leaf items only
// (base), and tree discretization with hierarchical exploration, for
// s ∈ {0.05, 0.025, 0.01} and st = 0.1.
func Table3(cfg Config) ([]Table3Row, error) {
	w, err := Load("compas", cfg)
	if err != nil {
		return nil, err
	}
	manualSet, err := compasManualHierarchies(w)
	if err != nil {
		return nil, err
	}
	treeSet, err := w.Hierarchies(0.1, discretize.DivergenceGain)
	if err != nil {
		return nil, err
	}
	return topByApproach(w, manualSet, treeSet, []float64{0.05, 0.025, 0.01})
}

// Table4 reproduces Table IV: the top income-divergent folktables itemset
// under tree discretization, base vs hierarchical exploration, with the
// OCCP and POBP taxonomies available to the hierarchical explorer.
func Table4(cfg Config) ([]Table3Row, error) {
	w, err := Load("folktables", cfg)
	if err != nil {
		return nil, err
	}
	treeSet, err := w.Hierarchies(0.1, discretize.DivergenceGain)
	if err != nil {
		return nil, err
	}
	return topByApproach(w, nil, treeSet, []float64{0.05, 0.025, 0.01})
}

// topByApproach runs the three (or two, when manualSet is nil) exploration
// settings at each support threshold and returns each setting's top
// subgroup. The top subgroup is the one with the largest positive
// divergence, matching the paper's tables.
func topByApproach(w *Workload, manualSet, treeSet *hierarchy.Set, supports []float64) ([]Table3Row, error) {
	var rows []Table3Row
	run := func(s float64, label string, hs *hierarchy.Set, mode core.Mode) error {
		rep, err := core.Explore(w.Table, core.Config{
			Outcome:     w.Outcome,
			Hierarchies: hs,
			MinSupport:  s,
			Mode:        mode,
			Algorithm:   fpm.FPGrowth,
		})
		if err != nil {
			return err
		}
		row := Table3Row{S: s, Approach: label, Itemset: "(none)", Mining: rep.Mining}
		if best := topPositive(rep); best != nil {
			row.Itemset, row.Support, row.Divergence, row.T = best.Itemset.String(), best.Support, best.Divergence, best.T
		}
		rows = append(rows, row)
		return nil
	}
	for _, s := range supports {
		if manualSet != nil {
			if err := run(s, "manual", manualSet, core.Base); err != nil {
				return nil, err
			}
		}
		if err := run(s, "tree-base", treeSet, core.Base); err != nil {
			return nil, err
		}
		if err := run(s, "tree-generalized", treeSet, core.Hierarchical); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func topPositive(rep *core.Report) *core.Subgroup {
	var best *core.Subgroup
	for i := range rep.Subgroups {
		sg := &rep.Subgroups[i]
		if best == nil || sg.Divergence > best.Divergence {
			best = sg
		}
	}
	return best
}

// RenderTable3 renders Table III/IV rows.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %-18s %-64s %7s %12s %7s\n", "s", "approach", "itemset", "sup", "Δ", "t")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.3f %-18s %-64s %7.3f %+12.4g %7.1f\n",
			r.S, r.Approach, r.Itemset, r.Support, r.Divergence, r.T)
	}
	return b.String()
}
