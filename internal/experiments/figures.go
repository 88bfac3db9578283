package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/fpm"
	"repro/internal/hierarchy"
	"repro/internal/slicefinder"
	"repro/internal/sliceline"
)

// SweepSupports is the exploration-support sweep of Figures 2–4.
var SweepSupports = []float64{0.05, 0.1, 0.15, 0.2}

// Fig2Point is one (dataset, s) measurement of Figure 2: max |Δ| and
// execution time for base vs hierarchical exploration.
type Fig2Point struct {
	Dataset  string
	S        float64
	BaseMax  float64
	HierMax  float64
	BaseTime time.Duration
	HierTime time.Duration
	// BaseMining and HierMining are the two explorations' mining counts.
	BaseMining, HierMining fpm.MiningStats
}

// Figure2 reproduces Figure 2 (and the quality half of Figure 4's
// complete-search line): the highest divergence found and the execution
// time of base vs hierarchical exploration across the seven classification
// datasets, st = 0.1, divergence gain criterion.
func Figure2(cfg Config) ([]Fig2Point, error) {
	var out []Fig2Point
	for _, name := range ClassificationNames {
		w, err := Load(name, cfg)
		if err != nil {
			return nil, err
		}
		hs, err := w.Hierarchies(0.1, discretize.DivergenceGain)
		if err != nil {
			return nil, err
		}
		for _, s := range SweepSupports {
			base, err := core.Explore(w.Table, core.Config{
				Outcome: w.Outcome, Hierarchies: hs, MinSupport: s, Mode: core.Base,
			})
			if err != nil {
				return nil, err
			}
			hier, err := core.Explore(w.Table, core.Config{
				Outcome: w.Outcome, Hierarchies: hs, MinSupport: s, Mode: core.Hierarchical,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig2Point{
				Dataset: name, S: s,
				BaseMax: base.MaxAbsDivergence(), HierMax: hier.MaxAbsDivergence(),
				BaseTime: base.Elapsed, HierTime: hier.Elapsed,
				BaseMining: base.Mining, HierMining: hier.Mining,
			})
		}
	}
	return out, nil
}

// RenderFigure2 renders the Figure 2 series.
func RenderFigure2(points []Fig2Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %6s %10s %10s %12s %12s\n",
		"dataset", "s", "base-maxΔ", "hier-maxΔ", "base-time", "hier-time")
	for _, p := range points {
		fmt.Fprintf(&b, "%-16s %6.3f %10.4g %10.4g %12v %12v\n",
			p.Dataset, p.S, p.BaseMax, p.HierMax,
			p.BaseTime.Round(time.Millisecond), p.HierTime.Round(time.Millisecond))
	}
	return b.String()
}

// Fig3aPoint is one s-measurement for folktables (Figure 3a).
type Fig3aPoint struct {
	S       float64
	BaseMax float64
	HierMax float64
}

// Figure3a reproduces Figure 3a: the highest income divergence for
// folktables, base vs hierarchical, divergence criterion.
func Figure3a(cfg Config) ([]Fig3aPoint, error) {
	w, err := Load("folktables", cfg)
	if err != nil {
		return nil, err
	}
	hs, err := w.Hierarchies(0.1, discretize.DivergenceGain)
	if err != nil {
		return nil, err
	}
	var out []Fig3aPoint
	for _, s := range SweepSupports {
		base, err := core.Explore(w.Table, core.Config{
			Outcome: w.Outcome, Hierarchies: hs, MinSupport: s, Mode: core.Base,
		})
		if err != nil {
			return nil, err
		}
		hier, err := core.Explore(w.Table, core.Config{
			Outcome: w.Outcome, Hierarchies: hs, MinSupport: s, Mode: core.Hierarchical,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Fig3aPoint{S: s, BaseMax: base.MaxAbsDivergence(), HierMax: hier.MaxAbsDivergence()})
	}
	return out, nil
}

// RenderFigure3a renders the Figure 3a series.
func RenderFigure3a(points []Fig3aPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %12s %12s\n", "s", "base-maxΔ", "hier-maxΔ")
	for _, p := range points {
		fmt.Fprintf(&b, "%6.3f %12.4g %12.4g\n", p.S, p.BaseMax, p.HierMax)
	}
	return b.String()
}

// Fig3bPoint compares the split criteria on one (dataset, s).
type Fig3bPoint struct {
	Dataset    string
	S          float64
	Divergence float64 // hierarchical max |Δ| with the divergence criterion
	Entropy    float64 // hierarchical max |Δ| with the entropy criterion
}

// Figure3b reproduces Figure 3b: divergence-gain vs entropy-gain tree
// construction on the boolean-outcome datasets (all but folktables),
// hierarchical exploration.
func Figure3b(cfg Config) ([]Fig3bPoint, error) {
	var out []Fig3bPoint
	for _, name := range ClassificationNames {
		w, err := Load(name, cfg)
		if err != nil {
			return nil, err
		}
		hsDiv, err := w.Hierarchies(0.1, discretize.DivergenceGain)
		if err != nil {
			return nil, err
		}
		hsEnt, err := w.Hierarchies(0.1, discretize.EntropyGain)
		if err != nil {
			return nil, err
		}
		for _, s := range SweepSupports {
			repD, err := core.Explore(w.Table, core.Config{
				Outcome: w.Outcome, Hierarchies: hsDiv, MinSupport: s, Mode: core.Hierarchical,
			})
			if err != nil {
				return nil, err
			}
			repE, err := core.Explore(w.Table, core.Config{
				Outcome: w.Outcome, Hierarchies: hsEnt, MinSupport: s, Mode: core.Hierarchical,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig3bPoint{
				Dataset: name, S: s,
				Divergence: repD.MaxAbsDivergence(), Entropy: repE.MaxAbsDivergence(),
			})
		}
	}
	return out, nil
}

// RenderFigure3b renders the Figure 3b series.
func RenderFigure3b(points []Fig3bPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %6s %14s %14s\n", "dataset", "s", "divergence-crit", "entropy-crit")
	for _, p := range points {
		fmt.Fprintf(&b, "%-16s %6.3f %14.4g %14.4g\n", p.Dataset, p.S, p.Divergence, p.Entropy)
	}
	return b.String()
}

// Fig4Point compares complete and polarity-pruned hierarchical search.
type Fig4Point struct {
	Dataset      string
	S            float64
	CompleteMax  float64
	PrunedMax    float64
	CompleteTime time.Duration
	PrunedTime   time.Duration
	// Candidate counts expose the pruning factor independent of timer noise.
	CompleteCandidates int
	PrunedCandidates   int
}

// Figure4 reproduces Figure 4 and the §VI-F polarity-pruning speedups:
// complete vs polarity-pruned hierarchical exploration, quality and cost.
func Figure4(cfg Config) ([]Fig4Point, error) {
	var out []Fig4Point
	for _, name := range ClassificationNames {
		w, err := Load(name, cfg)
		if err != nil {
			return nil, err
		}
		hs, err := w.Hierarchies(0.1, discretize.DivergenceGain)
		if err != nil {
			return nil, err
		}
		for _, s := range SweepSupports {
			full, err := core.Explore(w.Table, core.Config{
				Outcome: w.Outcome, Hierarchies: hs, MinSupport: s, Mode: core.Hierarchical,
			})
			if err != nil {
				return nil, err
			}
			pruned, err := core.Explore(w.Table, core.Config{
				Outcome: w.Outcome, Hierarchies: hs, MinSupport: s, Mode: core.Hierarchical,
				PolarityPrune: true,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig4Point{
				Dataset: name, S: s,
				CompleteMax: full.MaxAbsDivergence(), PrunedMax: pruned.MaxAbsDivergence(),
				CompleteTime: full.Elapsed, PrunedTime: pruned.Elapsed,
				CompleteCandidates: full.Mining.Candidates, PrunedCandidates: pruned.Mining.Candidates,
			})
		}
	}
	return out, nil
}

// RenderFigure4 renders the Figure 4 series.
func RenderFigure4(points []Fig4Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %6s %10s %10s %11s %11s %9s\n",
		"dataset", "s", "full-maxΔ", "pr.-maxΔ", "full-time", "pr.-time", "cand-х")
	for _, p := range points {
		factor := float64(p.CompleteCandidates) / math.Max(1, float64(p.PrunedCandidates))
		fmt.Fprintf(&b, "%-16s %6.3f %10.4g %10.4g %11v %11v %8.1fx\n",
			p.Dataset, p.S, p.CompleteMax, p.PrunedMax,
			p.CompleteTime.Round(time.Millisecond), p.PrunedTime.Round(time.Millisecond), factor)
	}
	return b.String()
}

// Fig5Result is the top itemset found on synthetic-peak by one mode at one
// support threshold, with its per-attribute ranges.
type Fig5Result struct {
	S          float64
	Mode       string
	Itemset    string
	Support    float64
	Divergence float64
	// Ranges maps attribute → [lo, hi] of the item constraining it (±Inf
	// when unbounded); attributes absent from the itemset are not listed.
	Ranges map[string][2]float64
}

// Figure5 reproduces Figure 5: the ranges of the most divergent
// synthetic-peak itemset under base and generalized exploration at
// s ∈ {0.05, 0.025}, st = 0.1.
func Figure5(cfg Config) ([]Fig5Result, error) {
	w, err := Load("synthetic-peak", cfg)
	if err != nil {
		return nil, err
	}
	hs, err := w.Hierarchies(0.1, discretize.DivergenceGain)
	if err != nil {
		return nil, err
	}
	var out []Fig5Result
	for _, s := range []float64{0.05, 0.025} {
		for _, mode := range []core.Mode{core.Base, core.Hierarchical} {
			rep, err := core.Explore(w.Table, core.Config{
				Outcome: w.Outcome, Hierarchies: hs, MinSupport: s, Mode: mode,
			})
			if err != nil {
				return nil, err
			}
			best := topPositive(rep)
			if best == nil {
				continue
			}
			ranges := map[string][2]float64{}
			for _, it := range best.Itemset {
				ranges[it.Attr] = [2]float64{it.Lo, it.Hi}
			}
			out = append(out, Fig5Result{
				S: s, Mode: mode.String(),
				Itemset: best.Itemset.String(), Support: best.Support,
				Divergence: best.Divergence, Ranges: ranges,
			})
		}
	}
	return out, nil
}

// RenderFigure5 renders the Figure 5 results.
func RenderFigure5(results []Fig5Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "s=%.3f %-13s Δerror=%+.3f sup=%.3f  {%s}\n",
			r.S, r.Mode, r.Divergence, r.Support, r.Itemset)
		for _, attr := range []string{"a", "b", "c"} {
			if rg, ok := r.Ranges[attr]; ok {
				fmt.Fprintf(&b, "    %s ∈ (%.2f, %.2f]\n", attr, rg[0], rg[1])
			} else {
				fmt.Fprintf(&b, "    %s unconstrained\n", attr)
			}
		}
	}
	return b.String()
}

// Fig6Result is one Slice Finder run on synthetic-peak.
type Fig6Result struct {
	Threshold  float64
	Slice      string
	Length     int
	Support    float64
	EffectSize float64
}

// Figure6 reproduces Figure 6: Slice Finder on synthetic-peak leaf items
// with the default effect-size threshold (0.4) and with threshold 1.
func Figure6(cfg Config) ([]Fig6Result, error) {
	w, err := Load("synthetic-peak", cfg)
	if err != nil {
		return nil, err
	}
	hs, err := w.Hierarchies(0.1, discretize.DivergenceGain)
	if err != nil {
		return nil, err
	}
	u := fpm.BaseUniverse(w.Table, hs, w.Outcome)
	var out []Fig6Result
	for _, thr := range []float64{0.4, 1.0} {
		slices := slicefinder.Search(u, w.Outcome, slicefinder.Options{EffectSize: thr})
		if len(slices) == 0 {
			out = append(out, Fig6Result{Threshold: thr, Slice: "(none)"})
			continue
		}
		top := slices[0]
		out = append(out, Fig6Result{
			Threshold:  thr,
			Slice:      top.Itemset.String(),
			Length:     len(top.Itemset),
			Support:    top.Support,
			EffectSize: top.EffectSize,
		})
	}
	return out, nil
}

// RenderFigure6 renders the Figure 6 results.
func RenderFigure6(results []Fig6Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %-52s %6s %9s %6s\n", "threshold", "top slice", "len", "support", "eff")
	for _, r := range results {
		fmt.Fprintf(&b, "%10.2f %-52s %6d %9.4f %6.2f\n", r.Threshold, r.Slice, r.Length, r.Support, r.EffectSize)
	}
	return b.String()
}

// Fig7Point compares quantile discretization (best over 2–10 bins) with
// hierarchical tree discretization on synthetic-peak.
type Fig7Point struct {
	S            float64
	QuantileBest float64 // best base max |Δ| over bin counts 2..10
	TreeHier     float64 // hierarchical max |Δ| with tree discretization
}

// Figure7 reproduces Figure 7: for each s, the best quantile-discretization
// result (over bin counts 2–10, base exploration) against the tree
// hierarchical exploration.
func Figure7(cfg Config) ([]Fig7Point, error) {
	w, err := Load("synthetic-peak", cfg)
	if err != nil {
		return nil, err
	}
	hsTree, err := w.Hierarchies(0.1, discretize.DivergenceGain)
	if err != nil {
		return nil, err
	}
	supports := []float64{0.02, 0.03, 0.04, 0.05, 0.06}
	var out []Fig7Point
	for _, s := range supports {
		hier, err := core.Explore(w.Table, core.Config{
			Outcome: w.Outcome, Hierarchies: hsTree, MinSupport: s, Mode: core.Hierarchical,
		})
		if err != nil {
			return nil, err
		}
		bestQ := 0.0
		for bins := 2; bins <= 10; bins++ {
			hs := hierarchy.NewSet()
			for _, attr := range []string{"a", "b", "c"} {
				h, err := discretize.Quantile(w.Table, attr, bins)
				if err != nil {
					return nil, err
				}
				hs.Add(h)
			}
			rep, err := core.Explore(w.Table, core.Config{
				Outcome: w.Outcome, Hierarchies: hs, MinSupport: s, Mode: core.Base,
			})
			if err != nil {
				return nil, err
			}
			if d := rep.MaxAbsDivergence(); d > bestQ {
				bestQ = d
			}
		}
		out = append(out, Fig7Point{S: s, QuantileBest: bestQ, TreeHier: hier.MaxAbsDivergence()})
	}
	return out, nil
}

// RenderFigure7 renders the Figure 7 series.
func RenderFigure7(points []Fig7Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %15s %15s\n", "s", "quantile(best)", "tree-hier")
	for _, p := range points {
		fmt.Fprintf(&b, "%6.3f %15.4g %15.4g\n", p.S, p.QuantileBest, p.TreeHier)
	}
	return b.String()
}

// Fig8Point is one st-measurement of the sensitivity analysis.
type Fig8Point struct {
	Dataset string
	St      float64
	BaseMax float64
	HierMax float64
}

// Figure8 reproduces Figure 8: sensitivity of base and hierarchical
// exploration to the tree support st, at exploration support s = 0.025, for
// synthetic-peak and compas.
func Figure8(cfg Config) ([]Fig8Point, error) {
	sts := []float64{0.01, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2}
	const s = 0.025
	var out []Fig8Point
	for _, name := range []string{"synthetic-peak", "compas"} {
		w, err := Load(name, cfg)
		if err != nil {
			return nil, err
		}
		for _, st := range sts {
			hs, err := w.Hierarchies(st, discretize.DivergenceGain)
			if err != nil {
				return nil, err
			}
			base, err := core.Explore(w.Table, core.Config{
				Outcome: w.Outcome, Hierarchies: hs, MinSupport: s, Mode: core.Base,
			})
			if err != nil {
				return nil, err
			}
			hier, err := core.Explore(w.Table, core.Config{
				Outcome: w.Outcome, Hierarchies: hs, MinSupport: s, Mode: core.Hierarchical,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, Fig8Point{
				Dataset: name, St: st,
				BaseMax: base.MaxAbsDivergence(), HierMax: hier.MaxAbsDivergence(),
			})
		}
	}
	return out, nil
}

// RenderFigure8 renders the Figure 8 series.
func RenderFigure8(points []Fig8Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %7s %12s %12s\n", "dataset", "st", "base-maxΔ", "hier-maxΔ")
	for _, p := range points {
		fmt.Fprintf(&b, "%-16s %7.3f %12.4g %12.4g\n", p.Dataset, p.St, p.BaseMax, p.HierMax)
	}
	return b.String()
}

// SliceLineResult is one §VI-G SliceLine-vs-DivExplorer comparison row.
type SliceLineResult struct {
	S               float64
	SliceLineBest   string
	SliceLineErr    float64
	DivExplorerBest string
	DivExplorerErr  float64
	Match           bool
}

// SliceLineComparison reproduces the §VI-G SliceLine experiment: on
// synthetic-peak leaf items, SliceLine's best slice (α close to 1, i.e.
// ranked by slice error) matches base DivExplorer's most divergent itemset.
func SliceLineComparison(cfg Config) ([]SliceLineResult, error) {
	w, err := Load("synthetic-peak", cfg)
	if err != nil {
		return nil, err
	}
	hs, err := w.Hierarchies(0.1, discretize.DivergenceGain)
	if err != nil {
		return nil, err
	}
	u := fpm.BaseUniverse(w.Table, hs, w.Outcome)
	var out []SliceLineResult
	for _, s := range []float64{0.05, 0.025} {
		slices, err := sliceline.TopK(u, w.Outcome, sliceline.Options{K: 1, MinSupport: s, Alpha: 0.99})
		if err != nil {
			return nil, err
		}
		rep, err := core.ExploreUniverse(u, core.Config{Outcome: w.Outcome, MinSupport: s})
		if err != nil {
			return nil, err
		}
		best := topPositive(rep)
		r := SliceLineResult{S: s}
		if len(slices) > 0 {
			r.SliceLineBest = slices[0].Itemset.String()
			r.SliceLineErr = slices[0].AvgError
		}
		if best != nil {
			r.DivExplorerBest = best.Itemset.String()
			r.DivExplorerErr = best.Statistic
		}
		r.Match = r.SliceLineBest == r.DivExplorerBest
		out = append(out, r)
	}
	return out, nil
}

// RenderSliceLine renders the §VI-G comparison.
func RenderSliceLine(results []SliceLineResult) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "s=%.3f match=%v\n  sliceline:   {%s} err=%.4f\n  divexplorer: {%s} err=%.4f\n",
			r.S, r.Match, r.SliceLineBest, r.SliceLineErr, r.DivExplorerBest, r.DivExplorerErr)
	}
	return b.String()
}

// PerfResult holds the §VI-F performance analysis measurements.
type PerfResult struct {
	// DiscretizationTime is the tree-building time per dataset (wine and
	// intentions have the most continuous attributes).
	DiscretizationTime map[string]time.Duration
	// PolaritySpeedup is the average candidate-reduction factor per dataset
	// over the support sweep.
	PolaritySpeedup map[string]float64
}

// Perf reproduces the §VI-F performance analysis: discretization cost for
// the attribute-heavy datasets and the average polarity-pruning speedup.
func Perf(cfg Config) (*PerfResult, error) {
	res := &PerfResult{
		DiscretizationTime: map[string]time.Duration{},
		PolaritySpeedup:    map[string]float64{},
	}
	for _, name := range []string{"wine", "intentions"} {
		w, err := Load(name, cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := w.Hierarchies(0.1, discretize.DivergenceGain); err != nil {
			return nil, err
		}
		res.DiscretizationTime[name] = time.Since(start)
	}
	points, err := Figure4(cfg)
	if err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, p := range points {
		sums[p.Dataset] += float64(p.CompleteCandidates) / math.Max(1, float64(p.PrunedCandidates))
		counts[p.Dataset]++
	}
	for name, sum := range sums {
		res.PolaritySpeedup[name] = sum / float64(counts[name])
	}
	return res, nil
}

// RenderPerf renders the §VI-F measurements.
func RenderPerf(r *PerfResult) string {
	var b strings.Builder
	b.WriteString("discretization time (st=0.1):\n")
	for _, name := range []string{"wine", "intentions"} {
		fmt.Fprintf(&b, "  %-12s %v\n", name, r.DiscretizationTime[name].Round(time.Millisecond))
	}
	b.WriteString("avg polarity-pruning candidate reduction:\n")
	for _, name := range ClassificationNames {
		if f, ok := r.PolaritySpeedup[name]; ok {
			fmt.Fprintf(&b, "  %-12s %.1fx\n", name, f)
		}
	}
	return b.String()
}
