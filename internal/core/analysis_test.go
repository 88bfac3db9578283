package core

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/hierarchy"
)

func TestItemShapleySumsToDivergence(t *testing.T) {
	tab, o, hs := fixture(t, 2000, 21)
	rep, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := range rep.Subgroups {
		sg := &rep.Subgroups[i]
		if len(sg.Itemset) < 2 {
			continue
		}
		phi, err := ItemShapley(tab, o, sg.Itemset)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range phi {
			sum += v
		}
		if math.Abs(sum-sg.Divergence) > 1e-9 {
			t.Fatalf("Shapley sum %v != divergence %v for %v", sum, sg.Divergence, sg.Itemset)
		}
		checked++
		if checked >= 10 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no multi-item subgroups to check")
	}
}

func TestItemShapleyIdentifiesDriver(t *testing.T) {
	// In the planted fixture, divergence needs both x>7 and g=g1; each item
	// should receive a substantial positive share.
	tab, o, hs := fixture(t, 4000, 22)
	rep, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	top := rep.Top()
	if len(top.Itemset) < 2 {
		t.Skipf("top subgroup has %d items", len(top.Itemset))
	}
	phi, err := ItemShapley(tab, o, top.Itemset)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range phi {
		if v <= 0 {
			t.Errorf("item %v got non-positive Shapley %v", top.Itemset[i], v)
		}
	}
}

func TestItemShapleySingleItem(t *testing.T) {
	tab, o, hs := fixture(t, 1000, 23)
	_ = hs
	it := hierarchy.ContinuousItem("x", 7, math.Inf(1))
	phi, err := ItemShapley(tab, o, hierarchy.Itemset{it})
	if err != nil {
		t.Fatal(err)
	}
	want := o.DivergenceOf(it.Rows(tab))
	if math.Abs(phi[0]-want) > 1e-12 {
		t.Errorf("single-item Shapley %v != divergence %v", phi[0], want)
	}
}

func TestItemShapleyErrors(t *testing.T) {
	tab, o, _ := fixture(t, 200, 24)
	if _, err := ItemShapley(tab, o, nil); err == nil {
		t.Error("empty itemset should fail")
	}
	dup := hierarchy.Itemset{
		hierarchy.ContinuousItem("x", 0, 5),
		hierarchy.ContinuousItem("x", 5, 10),
	}
	if _, err := ItemShapley(tab, o, dup); err == nil {
		t.Error("duplicate attribute should fail")
	}
	long := make(hierarchy.Itemset, 21)
	for i := range long {
		long[i] = hierarchy.ContinuousItem("x", float64(i), float64(i+1))
	}
	if _, err := ItemShapley(tab, o, long); err == nil {
		t.Error("overlong itemset should fail")
	}
}

func TestPValueAndSignificant(t *testing.T) {
	tab, o, hs := fixture(t, 3000, 25)
	rep, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	top := rep.Top()
	if p := top.PValue(); p > 1e-6 {
		t.Errorf("planted subgroup p = %v, want tiny", p)
	}
	sig := rep.Significant(0.05)
	if len(sig) == 0 {
		t.Fatal("no significant subgroups")
	}
	if len(sig) > len(rep.Subgroups) {
		t.Fatal("more significant than total")
	}
	// The planted subgroup must survive screening, and tighter alpha must
	// not admit more subgroups.
	if sig[0].Itemset.String() != top.Itemset.String() {
		t.Error("top subgroup lost by FDR screening")
	}
	if len(rep.Significant(0.001)) > len(sig) {
		t.Error("tighter alpha admitted more subgroups")
	}
}

func TestReportJSON(t *testing.T) {
	tab, o, hs := fixture(t, 1000, 27)
	rep, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Global    float64 `json:"global"`
		NumRows   int     `json:"num_rows"`
		Subgroups []struct {
			Itemset    string  `json:"itemset"`
			Support    float64 `json:"support"`
			Divergence float64 `json:"divergence"`
			PValue     float64 `json:"p_value"`
		} `json:"subgroups"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumRows != rep.NumRows || back.Global != rep.Global {
		t.Error("JSON header mismatch")
	}
	if len(back.Subgroups) != len(rep.Subgroups) {
		t.Fatal("JSON subgroup count mismatch")
	}
	if back.Subgroups[0].Itemset != rep.Subgroups[0].Itemset.String() {
		t.Error("JSON itemset mismatch")
	}
}

func TestReportCSV(t *testing.T) {
	tab, o, hs := fixture(t, 1000, 28)
	rep, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rep.Subgroups)+1 {
		t.Fatalf("CSV lines = %d, want %d", len(lines), len(rep.Subgroups)+1)
	}
	if !strings.HasPrefix(lines[0], "itemset,support,count") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestTopKDiverse(t *testing.T) {
	tab, o, hs := fixture(t, 3000, 29)
	rep, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	diverse, err := rep.TopKDiverse(tab, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(diverse) == 0 || len(diverse) > 5 {
		t.Fatalf("diverse = %d", len(diverse))
	}
	// The first diverse subgroup is always the report's top.
	if diverse[0].Itemset.String() != rep.Top().Itemset.String() {
		t.Error("diverse selection must start from the top subgroup")
	}
	// Pairwise Jaccard must respect the bound.
	for i := range diverse {
		ri := diverse[i].Itemset.Rows(tab)
		for j := i + 1; j < len(diverse); j++ {
			rj := diverse[j].Itemset.Rows(tab)
			inter := ri.AndCount(rj)
			union := ri.Count() + rj.Count() - inter
			if union > 0 && float64(inter)/float64(union) > 0.5 {
				t.Fatalf("subgroups %d and %d overlap beyond the bound", i, j)
			}
		}
	}
	// Plain TopK(5) contains near-duplicates of the top subgroup; diverse
	// selection must differ from it whenever duplicates exist.
	plain := rep.TopK(5)
	if len(plain) == 5 && len(diverse) == 5 {
		same := true
		for i := range plain {
			if plain[i].Itemset.String() != diverse[i].Itemset.String() {
				same = false
			}
		}
		if same {
			t.Log("diverse == plain top-5 (acceptable but unusual for this fixture)")
		}
	}
	if _, err := rep.TopKDiverse(tab, 0, 0.5); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := rep.TopKDiverse(tab, 3, 1.0); err == nil {
		t.Error("maxJaccard=1 should fail")
	}
}

func TestEvaluateItemsets(t *testing.T) {
	tab, o, hs := fixture(t, 2000, 31)
	rep, err := Explore(tab, Config{Outcome: o, Hierarchies: hs, MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Identity: evaluating the mined patterns on the same table reproduces
	// the report's numbers exactly.
	var pats []hierarchy.Itemset
	for _, sg := range rep.TopK(10) {
		pats = append(pats, sg.Itemset)
	}
	got, err := EvaluateItemsets(tab, o, pats)
	if err != nil {
		t.Fatal(err)
	}
	for i, sg := range rep.TopK(10) {
		if got[i].Count != sg.Count || math.Abs(got[i].Divergence-sg.Divergence) > 1e-12 ||
			math.Abs(got[i].T-sg.T) > 1e-12 {
			t.Fatalf("evaluation differs from report for %v", sg.Itemset)
		}
	}
	// Drift: on a fresh snapshot (different seed, same generator) the same
	// patterns stay evaluable and the planted anomaly stays divergent.
	tab2, o2, _ := fixture(t, 2000, 32)
	got2, err := EvaluateItemsets(tab2, o2, pats[:1])
	if err != nil {
		t.Fatal(err)
	}
	if got2[0].Divergence < 0.1 {
		t.Errorf("planted anomaly lost on new snapshot: Δ=%v", got2[0].Divergence)
	}
}

func TestEvaluateItemsetsErrors(t *testing.T) {
	tab, o, _ := fixture(t, 200, 33)
	bad := hierarchy.Itemset{
		hierarchy.ContinuousItem("x", 0, 5),
		hierarchy.ContinuousItem("x", 5, 9),
	}
	if _, err := EvaluateItemsets(tab, o, []hierarchy.Itemset{bad}); err == nil {
		t.Error("invalid itemset should fail")
	}
	missing := hierarchy.Itemset{hierarchy.ContinuousItem("nope", 0, 1)}
	if _, err := EvaluateItemsets(tab, o, []hierarchy.Itemset{missing}); err == nil {
		t.Error("missing attribute should fail")
	}
	shortOutcome := outcomeOfLen(t, 5)
	if _, err := EvaluateItemsets(tab, shortOutcome, nil); err == nil {
		t.Error("outcome length mismatch should fail")
	}
	// Empty subgroup: zero support, NaN statistic, no error.
	empty := hierarchy.Itemset{hierarchy.ContinuousItem("x", 1e9, 2e9)}
	got, err := EvaluateItemsets(tab, o, []hierarchy.Itemset{empty})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Count != 0 || !math.IsNaN(got[0].Statistic) {
		t.Errorf("empty subgroup = %+v", got[0])
	}
}

func TestDrift(t *testing.T) {
	tab1, o1, hs := fixture(t, 2500, 40)
	rep, err := Explore(tab1, Config{Outcome: o1, Hierarchies: hs, MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var pats []hierarchy.Itemset
	for _, sg := range rep.TopK(8) {
		pats = append(pats, sg.Itemset)
	}
	before, err := EvaluateItemsets(tab1, o1, pats)
	if err != nil {
		t.Fatal(err)
	}
	tab2, o2, _ := fixture(t, 2500, 41)
	after, err := EvaluateItemsets(tab2, o2, pats)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := Drift(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if len(drift) != len(pats) {
		t.Fatalf("drift entries = %d", len(drift))
	}
	for i := 1; i < len(drift); i++ {
		if math.Abs(drift[i].DivergenceShift) > math.Abs(drift[i-1].DivergenceShift)+1e-12 {
			t.Fatal("drift not sorted by |shift|")
		}
	}
	for _, d := range drift {
		if math.Abs(d.DivergenceShift-(d.After.Divergence-d.Before.Divergence)) > 1e-12 {
			t.Fatal("shift arithmetic wrong")
		}
	}
	// Error paths.
	if _, err := Drift(before, after[:2]); err == nil {
		t.Error("length mismatch should fail")
	}
	swapped := append([]Subgroup(nil), after...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := Drift(before, swapped); err == nil {
		t.Error("pattern mismatch should fail")
	}
}
