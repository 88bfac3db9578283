package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// testCfg keeps experiment tests fast: small datasets, small forest.
var testCfg = Config{
	Seed:        1,
	ForestTrees: 5,
	SizeOverride: map[string]int{
		"adult":          3_000,
		"bank":           3_000,
		"compas":         6_172,
		"folktables":     12_000,
		"german":         1_000,
		"intentions":     3_000,
		"synthetic-peak": 8_000,
		"wine":           3_000,
	},
}

func TestLoadAllWorkloads(t *testing.T) {
	for _, name := range append([]string{"folktables"}, ClassificationNames...) {
		w, err := Load(name, testCfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Table.NumRows() == 0 {
			t.Errorf("%s: empty table", name)
		}
		if w.Outcome.Len() != w.Table.NumRows() {
			t.Errorf("%s: outcome length mismatch", name)
		}
		hs, err := w.Hierarchies(0.1, 0)
		if err != nil {
			t.Fatalf("%s hierarchies: %v", name, err)
		}
		if err := hs.Validate(); err != nil {
			t.Errorf("%s: invalid hierarchies: %v", name, err)
		}
		if len(hs.AllItems()) == 0 {
			t.Errorf("%s: no items", name)
		}
	}
	if _, err := Load("nope", testCfg); err == nil {
		t.Error("unknown workload should fail")
	}
}

// TestCompasManualHierarchiesOrder builds Table III's manual universe
// repeatedly: its attribute order, and so its item order, on which the
// ranking's last tie-break depends, must not change between builds.
func TestCompasManualHierarchiesOrder(t *testing.T) {
	w, err := Load("compas", Config{Seed: 1, SizeOverride: map[string]int{"compas": 500}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"age", "prior", "stay", "sex", "race", "charge"}
	for i := 0; i < 20; i++ {
		hs, err := compasManualHierarchies(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := hs.Attrs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("build %d: Attrs = %v, want %v", i, got, want)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	// Row 0: whole dataset, Δ = 0, support 1.
	if rows[0].Divergence != 0 || rows[0].Support != 1 {
		t.Errorf("entire-dataset row wrong: %+v", rows[0])
	}
	// The paper's ordering: Δ(#prior>8) > Δ(#prior>3) > Δ(age<27) > 0, and
	// the age∩prior combo exceeds #prior>3 at small support.
	d3, d8, dAge, dBoth := rows[1].Divergence, rows[2].Divergence, rows[3].Divergence, rows[4].Divergence
	if !(d8 > d3 && d3 > dAge && dAge > 0 && dBoth > d3) {
		t.Errorf("Table I ordering violated: %+v", rows)
	}
	if rows[4].Support > 0.12 {
		t.Errorf("combo support %v too large", rows[4].Support)
	}
	txt := RenderTable1(rows)
	if !strings.Contains(txt, "Entire dataset") {
		t.Error("render missing rows")
	}
}

func TestFigure1Tree(t *testing.T) {
	txt, err := Figure1(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "root sup=1.00") || !strings.Contains(txt, "prior") {
		t.Errorf("Figure 1 tree malformed:\n%s", txt)
	}
	// The tree must have at least two levels (internal items).
	if strings.Count(txt, "\n") < 4 {
		t.Errorf("tree too shallow:\n%s", txt)
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows, err := Table2(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][4]int{ // |D|, |A|, num, cat
		"adult":          {45_222, 11, 4, 7},
		"bank":           {45_211, 15, 7, 8},
		"compas":         {6_172, 6, 3, 3},
		"folktables":     {195_556, 10, 2, 8},
		"german":         {1_000, 21, 7, 14},
		"intentions":     {12_330, 17, 11, 6},
		"synthetic-peak": {10_000, 3, 3, 0},
		"wine":           {9_796, 11, 11, 0},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		w := want[r.Dataset]
		if r.Rows != w[0] || r.Attrs != w[1] || r.NumAttrs != w[2] || r.CatAttrs != w[3] {
			t.Errorf("%s: got (%d,%d,%d,%d), want %v", r.Dataset, r.Rows, r.Attrs, r.NumAttrs, r.CatAttrs, w)
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	rows, err := Table3(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 supports × 3 approaches
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	// Per support threshold: tree-generalized ≥ tree-base (superset
	// guarantee) and tree-base ≥ manual is the paper's typical finding; we
	// require the guarantee strictly and the manual comparison weakly.
	byS := map[float64]map[string]Table3Row{}
	for _, r := range rows {
		if byS[r.S] == nil {
			byS[r.S] = map[string]Table3Row{}
		}
		byS[r.S][r.Approach] = r
		if r.Support < r.S-1e-9 {
			t.Errorf("row below its support threshold: %+v", r)
		}
	}
	for s, m := range byS {
		if m["tree-generalized"].Divergence+1e-9 < m["tree-base"].Divergence {
			t.Errorf("s=%v: generalized Δ %v < base Δ %v", s,
				m["tree-generalized"].Divergence, m["tree-base"].Divergence)
		}
	}
	// Lowering s must not lower the best achievable divergence.
	if byS[0.01]["tree-generalized"].Divergence+1e-9 < byS[0.05]["tree-generalized"].Divergence {
		t.Error("smaller support found less divergent subgroup")
	}
}

func TestTable4Shapes(t *testing.T) {
	rows, err := Table4(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 supports × 2 approaches
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	foundOCCPGroup := false
	for _, r := range rows {
		if r.Approach == "tree-generalized" && strings.Contains(r.Itemset, "OCCP=MGR") &&
			!strings.Contains(r.Itemset, "OCCP=MGR-") {
			foundOCCPGroup = true
		}
	}
	byS := map[float64]map[string]Table3Row{}
	for _, r := range rows {
		if byS[r.S] == nil {
			byS[r.S] = map[string]Table3Row{}
		}
		byS[r.S][r.Approach] = r
	}
	for s, m := range byS {
		if m["tree-generalized"].Divergence+1e-9 < m["tree-base"].Divergence {
			t.Errorf("s=%v: generalized %v < base %v", s,
				m["tree-generalized"].Divergence, m["tree-base"].Divergence)
		}
	}
	// The signature Table IV result: at some support the generalized top
	// itemset uses the OCCP supercategory item, unreachable by base
	// exploration.
	if !foundOCCPGroup {
		t.Log("rows:", rows)
		t.Error("no generalized top itemset used an OCCP supercategory item")
	}
}

func TestFigure2Superset(t *testing.T) {
	pts, err := Figure2(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(ClassificationNames)*len(SweepSupports) {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.HierMax+1e-9 < p.BaseMax {
			t.Errorf("%s s=%v: hier %v < base %v", p.Dataset, p.S, p.HierMax, p.BaseMax)
		}
	}
	// On at least half the measurements the hierarchy should be strictly
	// better — the paper's headline quality result.
	strict := 0
	for _, p := range pts {
		if p.HierMax > p.BaseMax+1e-9 {
			strict++
		}
	}
	if strict*2 < len(pts) {
		t.Errorf("hierarchical strictly better on only %d/%d points", strict, len(pts))
	}
}

func TestFigure3aSuperset(t *testing.T) {
	pts, err := Figure3a(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.HierMax+1e-9 < p.BaseMax {
			t.Errorf("s=%v: hier %v < base %v", p.S, p.HierMax, p.BaseMax)
		}
	}
}

func TestFigure3bCriteriaComparable(t *testing.T) {
	pts, err := Figure3b(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The two criteria must be similarly effective (paper: "similar
	// effectiveness"): on average within 35% of each other.
	var sumD, sumE float64
	for _, p := range pts {
		sumD += p.Divergence
		sumE += p.Entropy
	}
	ratio := sumD / sumE
	if ratio < 0.65 || ratio > 1.55 {
		t.Errorf("criteria effectiveness ratio = %v, want ≈ 1", ratio)
	}
}

func TestFigure4PruningQualityAndCost(t *testing.T) {
	pts, err := Figure4(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	var totalRelLoss float64
	for _, p := range pts {
		if p.PrunedCandidates > p.CompleteCandidates {
			t.Errorf("%s s=%v: pruning increased candidates", p.Dataset, p.S)
		}
		if p.PrunedMax > p.CompleteMax+1e-9 {
			t.Errorf("%s s=%v: pruned found more than complete", p.Dataset, p.S)
		}
		if p.CompleteMax > 0 {
			rel := (p.CompleteMax - p.PrunedMax) / p.CompleteMax
			totalRelLoss += rel
			// Paper: the highest divergence is "the same or very close"
			// under pruning — any individual loss must stay slight.
			if rel > 0.15 {
				t.Errorf("%s s=%v: pruning lost %.0f%% of max divergence", p.Dataset, p.S, rel*100)
			}
		}
	}
	if avg := totalRelLoss / float64(len(pts)); avg > 0.04 {
		t.Errorf("average relative quality loss %v, want slight", avg)
	}
	// The attribute-heavy wine dataset must show a large candidate
	// reduction at the smallest support in the sweep.
	for _, p := range pts {
		if p.Dataset == "wine" && p.S == 0.05 {
			factor := float64(p.CompleteCandidates) / float64(p.PrunedCandidates)
			if factor < 2 {
				t.Errorf("wine pruning factor = %v, want ≫ 1", factor)
			}
		}
	}
}

func TestFigure5PeakRecovery(t *testing.T) {
	res, err := Figure5(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d, want 4", len(res))
	}
	find := func(s float64, mode string) *Fig5Result {
		for i := range res {
			if res[i].S == s && res[i].Mode == mode {
				return &res[i]
			}
		}
		return nil
	}
	for _, s := range []float64{0.05, 0.025} {
		base, hier := find(s, "base"), find(s, "hierarchical")
		if base == nil || hier == nil {
			t.Fatalf("missing results at s=%v", s)
		}
		if hier.Divergence+1e-9 < base.Divergence {
			t.Errorf("s=%v: hier Δ %v < base Δ %v", s, hier.Divergence, base.Divergence)
		}
	}
	// The paper's headline: at s=0.05 the generalized itemset constrains
	// all three attributes and is several times more divergent than base.
	h05, b05 := find(0.05, "hierarchical"), find(0.05, "base")
	if len(h05.Ranges) != 3 {
		t.Errorf("s=0.05 generalized itemset constrains %d attrs, want 3 (%s)", len(h05.Ranges), h05.Itemset)
	}
	if h05.Divergence < 2*b05.Divergence {
		t.Errorf("s=0.05: hier Δ %v not ≫ base Δ %v", h05.Divergence, b05.Divergence)
	}
	// Each range should bracket the corresponding peak coordinate [0,1,2].
	peak := map[string]float64{"a": 0, "b": 1, "c": 2}
	for attr, rg := range h05.Ranges {
		if !(rg[0] <= peak[attr] && peak[attr] <= rg[1]) {
			t.Errorf("range %v for %s does not bracket peak %v", rg, attr, peak[attr])
		}
	}
}

func TestFigure6SliceFinderFailureModes(t *testing.T) {
	res, err := Figure6(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
	def, high := res[0], res[1]
	if high.Length <= def.Length {
		t.Errorf("T=1 slice not finer: %d vs %d", high.Length, def.Length)
	}
	if high.Support >= def.Support {
		t.Errorf("T=1 slice support %v not below default %v", high.Support, def.Support)
	}
	if high.Support >= 0.025 {
		t.Errorf("T=1 slice support %v, want below DivExplorer's smallest threshold", high.Support)
	}
}

func TestFigure7TreeBeatsQuantile(t *testing.T) {
	pts, err := Figure7(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, p := range pts {
		if p.TreeHier+1e-9 >= p.QuantileBest {
			wins++
		}
	}
	// Paper: "H-DivExplorer achieves the highest results for all the input
	// thresholds". Require it for at least all but one sweep point.
	if wins < len(pts)-1 {
		t.Errorf("tree-hier beat best-quantile on only %d/%d points", wins, len(pts))
	}
}

func TestFigure8Stability(t *testing.T) {
	pts, err := Figure8(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	byDS := map[string][]Fig8Point{}
	for _, p := range pts {
		byDS[p.Dataset] = append(byDS[p.Dataset], p)
		if p.HierMax+1e-9 < p.BaseMax {
			t.Errorf("%s st=%v: hier < base", p.Dataset, p.St)
		}
	}
	for name, series := range byDS {
		// Hierarchical exploration is stable for st ≤ 0.1: relative spread
		// of hier max Δ over st ∈ [0.01, 0.1] must be small, while base
		// exploration degrades for st < s (0.025).
		var hmin, hmax float64
		first := true
		var baseAtTiny, baseAtMid float64
		for _, p := range series {
			if p.St <= 0.1 {
				if first {
					hmin, hmax = p.HierMax, p.HierMax
					first = false
				} else {
					if p.HierMax < hmin {
						hmin = p.HierMax
					}
					if p.HierMax > hmax {
						hmax = p.HierMax
					}
				}
			}
			if p.St == 0.01 {
				baseAtTiny = p.BaseMax
			}
			if p.St == 0.05 {
				baseAtMid = p.BaseMax
			}
		}
		if hmin < 0.6*hmax {
			t.Errorf("%s: hierarchical unstable over st: [%v, %v]", name, hmin, hmax)
		}
		// For st=0.01 < s=0.025 the leaf items are finer than the
		// exploration support; base should do no better than at st=0.05.
		if baseAtTiny > baseAtMid+0.25*baseAtMid {
			t.Errorf("%s: base at st=0.01 (%v) unexpectedly beats st=0.05 (%v)", name, baseAtTiny, baseAtMid)
		}
	}
}

func TestPerfMeasurements(t *testing.T) {
	res, err := Perf(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wine", "intentions"} {
		if res.DiscretizationTime[name] <= 0 {
			t.Errorf("%s: no discretization time", name)
		}
	}
	// Wine (11 continuous attrs) must show a larger average reduction
	// factor than adult (4 continuous attrs) — the 2^(n−1) scaling.
	if res.PolaritySpeedup["wine"] <= res.PolaritySpeedup["adult"] {
		t.Errorf("wine speedup %v ≤ adult %v", res.PolaritySpeedup["wine"], res.PolaritySpeedup["adult"])
	}
}

func TestSliceLineComparisonMatches(t *testing.T) {
	res, err := SliceLineComparison(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.Match {
			t.Errorf("s=%v: SliceLine best %q != DivExplorer best %q", r.S, r.SliceLineBest, r.DivExplorerBest)
		}
	}
}

func TestRunDispatcher(t *testing.T) {
	if len(IDs()) != 16 {
		t.Errorf("IDs = %v", IDs())
	}
	a, err := Run("table2", testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "table2" || a.Title == "" || !strings.Contains(a.Text, "compas") {
		t.Errorf("artifact malformed: %+v", a)
	}
	if _, err := Run("nope", testCfg); err == nil {
		t.Error("unknown ID should fail")
	}
}

// The §V-A trade-off, both directions: on the isotropic synthetic-peak
// anomaly the exhaustive hierarchical lattice search dominates the
// combined tree's single partition; on compas the combined tree's
// conditional refinement can win. Either way both methods must produce
// non-trivial results.
func TestExtCombinedTree(t *testing.T) {
	rows, err := ExtCombinedTree(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TreeBest <= 0 || r.HierBest <= 0 || r.TreeTop == "" || r.HierTop == "" {
			t.Errorf("row incomplete: %+v", r)
		}
		if r.Dataset == "synthetic-peak" && r.HierBest+1e-9 < r.TreeBest {
			t.Errorf("peak s=%v: combined tree (%v) beat hierarchical (%v)",
				r.S, r.TreeBest, r.HierBest)
		}
	}
}

// Renderer smoke tests: every renderer produces a non-empty, well-formed
// header and one line per row/point.
func TestRenderers(t *testing.T) {
	rows1 := []Table1Row{{Subgroup: "x", FPR: 0.1, Divergence: 0.01, Support: 0.5}}
	if out := RenderTable1(rows1); !strings.Contains(out, "Data subgroup") || strings.Count(out, "\n") != 2 {
		t.Errorf("RenderTable1:\n%s", out)
	}
	rows2 := []Table2Row{{Dataset: "d", Rows: 10, Attrs: 3, NumAttrs: 2, CatAttrs: 1}}
	if out := RenderTable2(rows2); !strings.Contains(out, "|D|") {
		t.Errorf("RenderTable2:\n%s", out)
	}
	rows3 := []Table3Row{{S: 0.05, Approach: "manual", Itemset: "a>1", Support: 0.1, Divergence: 0.2, T: 3}}
	if out := RenderTable3(rows3); !strings.Contains(out, "manual") {
		t.Errorf("RenderTable3:\n%s", out)
	}
	f2 := []Fig2Point{{Dataset: "d", S: 0.05, BaseMax: 0.1, HierMax: 0.2}}
	if out := RenderFigure2(f2); !strings.Contains(out, "hier-maxΔ") {
		t.Errorf("RenderFigure2:\n%s", out)
	}
	f3a := []Fig3aPoint{{S: 0.05, BaseMax: 1, HierMax: 2}}
	if out := RenderFigure3a(f3a); strings.Count(out, "\n") != 2 {
		t.Errorf("RenderFigure3a:\n%s", out)
	}
	f3b := []Fig3bPoint{{Dataset: "d", S: 0.05, Divergence: 1, Entropy: 2}}
	if out := RenderFigure3b(f3b); !strings.Contains(out, "entropy-crit") {
		t.Errorf("RenderFigure3b:\n%s", out)
	}
	f4 := []Fig4Point{{Dataset: "d", S: 0.05, CompleteMax: 1, PrunedMax: 1, CompleteCandidates: 10, PrunedCandidates: 5}}
	if out := RenderFigure4(f4); !strings.Contains(out, "2.0x") {
		t.Errorf("RenderFigure4:\n%s", out)
	}
	f5 := []Fig5Result{{S: 0.05, Mode: "base", Itemset: "a>1", Ranges: map[string][2]float64{"a": {1, 2}}}}
	if out := RenderFigure5(f5); !strings.Contains(out, "a ∈") || !strings.Contains(out, "b unconstrained") {
		t.Errorf("RenderFigure5:\n%s", out)
	}
	f6 := []Fig6Result{{Threshold: 0.4, Slice: "a>1", Length: 1, Support: 0.1, EffectSize: 0.5}}
	if out := RenderFigure6(f6); !strings.Contains(out, "threshold") {
		t.Errorf("RenderFigure6:\n%s", out)
	}
	f7 := []Fig7Point{{S: 0.02, QuantileBest: 0.1, TreeHier: 0.4}}
	if out := RenderFigure7(f7); !strings.Contains(out, "quantile") {
		t.Errorf("RenderFigure7:\n%s", out)
	}
	f8 := []Fig8Point{{Dataset: "d", St: 0.05, BaseMax: 0.1, HierMax: 0.2}}
	if out := RenderFigure8(f8); !strings.Contains(out, "st") {
		t.Errorf("RenderFigure8:\n%s", out)
	}
	ext := []ExtTreeRow{{Dataset: "d", S: 0.05, TreeBest: 1, HierBest: 2, TreeTop: "a", HierTop: "b"}}
	if out := RenderExtCombinedTree(ext); !strings.Contains(out, "tree:") {
		t.Errorf("RenderExtCombinedTree:\n%s", out)
	}
	sl := []SliceLineResult{{S: 0.05, SliceLineBest: "a", DivExplorerBest: "a", Match: true}}
	if out := RenderSliceLine(sl); !strings.Contains(out, "match=true") {
		t.Errorf("RenderSliceLine:\n%s", out)
	}
	pr := &PerfResult{
		DiscretizationTime: map[string]time.Duration{"wine": time.Millisecond, "intentions": time.Millisecond},
		PolaritySpeedup:    map[string]float64{"wine": 3.5},
	}
	if out := RenderPerf(pr); !strings.Contains(out, "wine") {
		t.Errorf("RenderPerf:\n%s", out)
	}
}
