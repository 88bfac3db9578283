package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// explainTrace builds a deterministic trace by hand so the profile's
// arithmetic can be checked exactly (real spans have measured durations).
func explainTrace() *Trace {
	return &Trace{
		ID: "req-1",
		Spans: []SpanRecord{
			{ID: 0, Parent: -1, Name: "explore", DurNS: 1000},
			{ID: 1, Parent: 0, Name: "explore.universe", DurNS: 200},
			{ID: 2, Parent: 0, Name: "mine", DurNS: 700},
			{ID: 3, Parent: 2, Name: "mine.scan", DurNS: 300},
		},
		Counters: map[string]int64{
			CtrCandidates:                           40,
			CtrPrunedSupport:                        15,
			CtrItemsetsEmitted:                      25,
			CtrWorkerTaskPrefix + "1":               3,
			CtrWorkerTaskPrefix + "0":               7,
			CtrBudgetExhaustedPrefix + "candidates": 1,
		},
		Gauges: map[string]float64{
			GaugeBudgetMaxCandidates: 50,
			GaugeBudgetMaxItemsets:   100,
			GaugeCacheHit:            1,
		},
	}
}

func TestNewExplainStages(t *testing.T) {
	e := NewExplain(explainTrace())
	if e == nil {
		t.Fatal("NewExplain returned nil for non-nil trace")
	}
	if e.RequestID != "req-1" {
		t.Errorf("RequestID = %q", e.RequestID)
	}
	if e.TotalNS != 1000 {
		t.Errorf("TotalNS = %d, want 1000 (sum of root spans)", e.TotalNS)
	}
	// Pre-order: explore, explore.universe, mine, mine.scan.
	names := make([]string, len(e.Stages))
	var selfSum int64
	var fracSum float64
	for i, st := range e.Stages {
		names[i] = st.Name
		selfSum += st.SelfNS
		fracSum += st.SelfFrac
	}
	if want := []string{"explore", "explore.universe", "mine", "mine.scan"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("stage order = %v, want %v", names, want)
	}
	// The self-time invariant: self columns sum exactly to the total, so
	// the "stage times sum within 10% of total" contract holds by
	// construction.
	if selfSum != e.TotalNS {
		t.Errorf("sum(SelfNS) = %d, want TotalNS %d", selfSum, e.TotalNS)
	}
	if fracSum < 0.999 || fracSum > 1.001 {
		t.Errorf("sum(SelfFrac) = %v, want 1", fracSum)
	}
	// explore: 1000 − (200 + 700) = 100 self; mine: 700 − 300 = 400.
	if e.Stages[0].SelfNS != 100 || e.Stages[2].SelfNS != 400 {
		t.Errorf("SelfNS explore=%d mine=%d, want 100, 400", e.Stages[0].SelfNS, e.Stages[2].SelfNS)
	}
	if e.Stages[0].Depth != 0 || e.Stages[1].Depth != 1 || e.Stages[3].Depth != 2 {
		t.Error("stage depths do not follow the span tree")
	}
}

func TestNewExplainNegativeSelfFloored(t *testing.T) {
	// Concurrent children whose summed duration exceeds the parent's must
	// floor to zero, not go negative.
	tr := &Trace{Spans: []SpanRecord{
		{ID: 0, Parent: -1, Name: "p", DurNS: 100},
		{ID: 1, Parent: 0, Name: "a", DurNS: 90},
		{ID: 2, Parent: 0, Name: "b", DurNS: 80},
	}}
	e := NewExplain(tr)
	if st := e.Stages[0]; st.SelfNS != 0 {
		t.Errorf("parent self not floored: %+v", st)
	}
}

func TestNewExplainCountersBudget(t *testing.T) {
	e := NewExplain(explainTrace())
	if e.Mining.Candidates != 40 || e.Mining.PrunedSupport != 15 || e.Mining.Itemsets != 25 {
		t.Errorf("mining counters = %+v", e.Mining)
	}
	if want := []ExplainWorker{{0, 7}, {1, 3}}; len(e.Workers) != 2 || e.Workers[0] != want[0] || e.Workers[1] != want[1] {
		t.Errorf("workers = %+v, want %+v", e.Workers, want)
	}
	if e.Cache == nil || !e.Cache.Hit {
		t.Errorf("cache = %+v, want hit", e.Cache)
	}
	if len(e.Budget) != 2 {
		t.Fatalf("budget rows = %+v, want candidates and itemsets", e.Budget)
	}
	cand := e.Budget[0]
	if cand.Dimension != "candidates" || cand.Used != 40 || cand.Limit != 50 || cand.Frac != 0.8 || !cand.Exhausted {
		t.Errorf("candidates budget row = %+v", cand)
	}
	if it := e.Budget[1]; it.Dimension != "itemsets" || it.Used != 25 || it.Limit != 100 || it.Exhausted {
		t.Errorf("itemsets budget row = %+v", it)
	}
}

func TestExplainDeterministic(t *testing.T) {
	full := NewExplain(explainTrace())
	// Measured fields present on the full profile...
	if full.TotalNS == 0 || full.Stages[0].TotalNS == 0 || len(full.Workers) == 0 {
		t.Fatal("test trace lost its measured fields")
	}
	d := full.Deterministic()
	// ...and stripped from the deterministic view.
	if d.TotalNS != 0 {
		t.Error("Deterministic kept TotalNS")
	}
	if len(d.Workers) != 0 {
		t.Error("Deterministic kept the worker split")
	}
	for _, st := range d.Stages {
		if st.TotalNS != 0 || st.SelfNS != 0 {
			t.Errorf("Deterministic kept measured stage fields: %+v", st)
		}
	}
	if len(d.Stages) != len(full.Stages) || d.Stages[2].Name != "mine" || d.Stages[2].Depth != 1 {
		t.Error("Deterministic lost the stage tree shape")
	}
	if d.Mining != full.Mining || d.Cache == nil || len(d.Budget) != 2 {
		t.Error("Deterministic dropped deterministic content")
	}
	for _, b := range d.Budget {
		if b.Dimension == "deadline" || b.Dimension == "heap" {
			t.Errorf("Deterministic kept measured budget row %q", b.Dimension)
		}
	}
	if (&Explain{}).Deterministic() == nil {
		t.Error("Deterministic on empty profile returned nil")
	}
	var nilEx *Explain
	if nilEx.Deterministic() != nil {
		t.Error("Deterministic on nil profile returned non-nil")
	}
}

func TestExplainDeadlineBudgetNeedsMineSpan(t *testing.T) {
	tr := explainTrace()
	tr.Gauges[GaugeBudgetSoftDeadlineNS] = 1e6
	e := NewExplain(tr)
	var deadline *ExplainBudget
	for i := range e.Budget {
		if e.Budget[i].Dimension == "deadline" {
			deadline = &e.Budget[i]
		}
	}
	if deadline == nil {
		t.Fatal("no deadline budget row despite soft-deadline gauge and mine span")
	}
	if deadline.Used != 700 { // the mine span's DurNS
		t.Errorf("deadline Used = %d, want the mine span duration 700", deadline.Used)
	}

	// Without a mine span (e.g. a request rejected before mining) the row
	// is omitted rather than reported as 0/limit.
	tr.Spans = tr.Spans[:2]
	for _, b := range NewExplain(tr).Budget {
		if b.Dimension == "deadline" {
			t.Error("deadline budget row emitted without a mine span")
		}
	}
}

func TestNewExplainFromRealTracer(t *testing.T) {
	tr := New()
	sp := tr.Start("outer")
	time.Sleep(time.Millisecond)
	in := sp.Start("inner")
	buf := make([]byte, 1<<16)
	_ = buf
	in.End()
	sp.End()
	e := NewExplain(tr.Snapshot())
	if len(e.Stages) != 2 || e.Stages[0].Name != "outer" {
		t.Fatalf("stages = %+v", e.Stages)
	}
	if e.TotalNS <= 0 {
		t.Error("TotalNS not measured")
	}
	var selfSum int64
	for _, st := range e.Stages {
		selfSum += st.SelfNS
	}
	if selfSum != e.TotalNS {
		t.Errorf("self sum %d != total %d on a live trace", selfSum, e.TotalNS)
	}
	if NewExplain(nil) != nil {
		t.Error("NewExplain(nil) != nil")
	}
}

func TestExplainTextAndJSON(t *testing.T) {
	e := NewExplain(explainTrace())
	text := e.Text()
	for _, want := range []string{
		"explain req-1", "explore.universe", "mine.scan",
		"candidates=40", "tasks=7", "cache: hit",
		"candidates 40/50 (80.0%) EXHAUSTED",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	var b strings.Builder
	if err := e.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back Explain
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("WriteJSON output does not round-trip: %v", err)
	}
	if back.Mining != e.Mining || back.TotalNS != e.TotalNS {
		t.Error("JSON round trip lost fields")
	}
}
