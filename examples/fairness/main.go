// Fairness audit: reproduce the paper's compas analysis.
//
// The example audits a recidivism risk score for false-positive-rate bias:
// which defendant subgroups are disproportionately predicted to recidivate
// when they do not? It contrasts three pipelines — the manual
// discretization of prior work, tree discretization explored flat (leaf
// items only), and full hierarchical exploration — and prints the annotated
// discretization tree of the paper's Figure 1.
//
//	go run ./examples/fairness
package main

import (
	"fmt"
	"log"

	hdiv "repro"
	"repro/internal/datagen"
)

func main() {
	// The compas analog: demographic/criminal-history features plus the
	// true recidivism outcome and a proprietary-style score's predictions
	// (see DESIGN.md §4 for the substitution).
	d := datagen.Compas(datagen.Config{Seed: 1})
	o := hdiv.FalsePositiveRate(d.Actual, d.Predicted)
	fmt.Printf("defendants: %d, overall FPR: %.3f\n\n", d.Table.NumRows(), o.GlobalMean())

	// Figure 1: the divergence-aware interval hierarchy for #prior.
	tree, err := hdiv.Tree(d.Table, "prior", o, hdiv.TreeOptions{
		Criterion:  hdiv.DivergenceGain,
		MinSupport: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("item hierarchy for the prior attribute (sup / ΔFPR per node):")
	fmt.Print(hdiv.DescribeHierarchy(d.Table, tree, o))

	// Manual discretization (the fixed cuts used by prior work): the cuts
	// take the place of the continuous attributes' trees.
	var manual []*hdiv.Hierarchy
	for _, m := range []struct {
		attr string
		cuts []float64
	}{{"age", []float64{24.999, 45}}, {"prior", []float64{0, 3}}, {"stay", []float64{7, 90}}} {
		h, err := hdiv.ManualCuts(m.attr, m.cuts)
		if err != nil {
			log.Fatal(err)
		}
		manual = append(manual, h)
	}
	manualRep, err := hdiv.Pipeline(d.Table, o, hdiv.PipelineOptions{
		MinSupport: 0.05, Mode: hdiv.Base, Taxonomies: manual,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Tree discretization, explored flat and hierarchically.
	baseRep, err := hdiv.Pipeline(d.Table, o, hdiv.PipelineOptions{
		TreeSupport: 0.1, MinSupport: 0.05, Mode: hdiv.Base,
	})
	if err != nil {
		log.Fatal(err)
	}
	hierRep, err := hdiv.Pipeline(d.Table, o, hdiv.PipelineOptions{
		TreeSupport: 0.1, MinSupport: 0.05, Mode: hdiv.Hierarchical,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\ntop FPR-divergent subgroup by pipeline (s = 0.05):")
	for _, row := range []struct {
		name string
		rep  *hdiv.Report
	}{
		{"manual discretization ", manualRep},
		{"tree leaves (base)    ", baseRep},
		{"hierarchical          ", hierRep},
	} {
		top := row.rep.Top()
		fmt.Printf("  %s Δ=%+.3f sup=%.3f  {%s}\n", row.name, top.Divergence, top.Support, top.Itemset)
	}

	fmt.Println("\nstatistically significant subgroups (|t| ≥ 5), hierarchical:")
	sig := hierRep.FilterMinT(5)
	for i, sg := range sig {
		if i == 5 {
			break
		}
		fmt.Printf("  %s\n", sg.String())
	}
}
