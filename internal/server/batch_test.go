package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	hdiv "repro"
	"repro/internal/obs"
)

func postBatch(t *testing.T, h http.Handler, req BatchExploreRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/explore/batch", bytes.NewReader(body)))
	return rec
}

// TestExploreBatch pins the /v1/explore/batch contract: one report per
// statistic in request order, the primary statistic byte-identical to a
// plain /v1/explore with the same parameters (both run the same mining
// code path over the same cached universe), and the batch-statistics
// counter advanced by the bundle size.
func TestExploreBatch(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	base := ExploreRequest{
		Dataset: "anomaly", Actual: "y", Predicted: "p",
		S: 0.05, ST: 0.1,
	}

	req := BatchExploreRequest{ExploreRequest: base, Stats: []string{"fpr", "fnr", "error"}}
	rec := postBatch(t, s, req)
	if rec.Code != 200 {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	var reps []struct {
		Stat   string          `json:"stat"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reps); err != nil {
		t.Fatalf("batch reply not a JSON array: %v", err)
	}
	if len(reps) != 3 {
		t.Fatalf("got %d reports, want 3", len(reps))
	}
	for i, want := range []string{"fpr", "fnr", "error"} {
		if reps[i].Stat != want {
			t.Errorf("report %d stat = %q, want %q", i, reps[i].Stat, want)
		}
		var rep struct {
			NumRows   int               `json:"num_rows"`
			Subgroups []json.RawMessage `json:"subgroups"`
		}
		if err := json.Unmarshal(reps[i].Report, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.NumRows != 600 || len(rep.Subgroups) == 0 {
			t.Errorf("report %d looks empty: rows=%d subgroups=%d", i, rep.NumRows, len(rep.Subgroups))
		}
	}

	// The primary statistic must rank identically to a plain explore with
	// stat = stats[0]: everything except the wall-clock elapsed_ms field
	// is byte-identical.
	single := base
	single.Stat = "fpr"
	srec := postExplore(t, s, single)
	if srec.Code != 200 {
		t.Fatalf("single: %d %s", srec.Code, srec.Body.String())
	}
	stripElapsed := func(raw []byte) map[string]json.RawMessage {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "elapsed_ms")
		return m
	}
	got, want := stripElapsed(reps[0].Report), stripElapsed(srec.Body.Bytes())
	if len(got) != len(want) {
		t.Fatalf("report fields differ: %d vs %d", len(got), len(want))
	}
	for k, v := range want {
		var g, w bytes.Buffer
		if err := json.Compact(&g, got[k]); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&w, v); err != nil {
			t.Fatal(err)
		}
		if g.String() != w.String() {
			t.Errorf("batch primary field %q differs from single explore:\nbatch:  %.200s\nsingle: %.200s", k, g.String(), w.String())
		}
	}

	snap := s.tracer.Snapshot()
	if got := snap.Counter(obs.CtrServerBatchStats); got != 3 {
		t.Errorf("batch statistics counter = %d, want 3", got)
	}
	// Both requests share one universe (keyed by the primary statistic).
	if m, h := snap.Counter(obs.CtrServerCacheMisses), snap.Counter(obs.CtrServerCacheHits); m != 1 || h != 1 {
		t.Errorf("cache counters: misses=%d hits=%d, want 1/1", m, h)
	}

	// CSV format: one block per statistic with # stat= separators.
	creq := req
	creq.Format = "csv"
	crec := postBatch(t, s, creq)
	if crec.Code != 200 {
		t.Fatalf("csv batch: %d %s", crec.Code, crec.Body.String())
	}
	for _, want := range []string{"# stat=fpr", "# stat=fnr", "# stat=error"} {
		if !strings.Contains(crec.Body.String(), want) {
			t.Errorf("csv batch missing separator %q", want)
		}
	}
}

// targetTable is anomalyTable plus a numeric target, income, that is
// highest in the mispredicted x > 80 tail, so exploring income as a
// feature would rank income items on their own statistic.
func targetTable(t testing.TB) *hdiv.Table {
	t.Helper()
	n := 600
	x := make([]float64, n)
	income := make([]float64, n)
	y := make([]string, n)
	p := make([]string, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i % 100)
		income[i] = float64(20 + i%37)
		y[i] = strconv.FormatBool(i%2 == 0)
		p[i] = y[i]
		if x[i] > 80 {
			income[i] += 60
			p[i] = strconv.FormatBool(i%2 != 0)
		}
	}
	return hdiv.NewTableBuilder().
		AddFloat("x", x).
		AddFloat("income", income).
		AddCategorical("y", y).
		AddCategorical("p", p).
		MustBuild()
}

// TestExploreBatchTargetMatchesCLI pins that a batch mixing rate and
// numeric statistics leaves every statistic's label columns out, as the
// CLI's -stats does: the batch CSV equals `hdivexplorer -stats
// error,numeric -format csv`, no subgroup has an item on the target, and
// the batch does not share the universe of a plain explore of its
// primary, which does explore the target.
func TestExploreBatchTargetMatchesCLI(t *testing.T) {
	tab := targetTable(t)
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "d", Table: tab}}})
	base := ExploreRequest{
		Dataset: "d", Actual: "y", Predicted: "p", Target: "income",
		S: 0.05, ST: 0.1, Format: "csv",
	}
	single := base
	single.Stat = "error"
	if rec := postExplore(t, s, single); rec.Code != 200 {
		t.Fatalf("single: %d %s", rec.Code, rec.Body.String())
	} else if !strings.Contains(rec.Body.String(), "income") {
		t.Fatalf("a plain error explore should explore income:\n%s", rec.Body.String())
	}

	rec := postBatch(t, s, BatchExploreRequest{ExploreRequest: base, Stats: []string{"error", "numeric"}})
	if rec.Code != 200 {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	if want := cliCSV(t, tab, base, "error", "numeric"); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("batch CSV differs from CLI CSV\nserver:\n%s\ncli:\n%s", rec.Body.Bytes(), want)
	}
	if strings.Contains(rec.Body.String(), "income") {
		t.Errorf("batch explored its numeric target:\n%s", rec.Body.String())
	}
	snap := s.tracer.Snapshot()
	if m, h := snap.Counter(obs.CtrServerCacheMisses), snap.Counter(obs.CtrServerCacheHits); m != 2 || h != 0 {
		t.Errorf("cache counters: misses=%d hits=%d, want 2/0", m, h)
	}
}

// TestExploreBatchErrors pins the 400 paths of the batch endpoint.
func TestExploreBatchErrors(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	base := ExploreRequest{Dataset: "anomaly", Actual: "y", Predicted: "p"}

	for name, stats := range map[string][]string{
		"empty stats":     nil,
		"blank stats":     {" ", ""},
		"duplicate stats": {"fpr", "fpr"},
		"unknown primary": {"wat"},
		"unknown extra":   {"fpr", "wat"},
	} {
		rec := postBatch(t, s, BatchExploreRequest{ExploreRequest: base, Stats: stats})
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
	}

	// Negative workers are rejected on both endpoints.
	neg := base
	neg.Stat = "fpr"
	neg.Workers = -1
	if rec := postExplore(t, s, neg); rec.Code != http.StatusBadRequest {
		t.Errorf("negative workers: code = %d, want 400", rec.Code)
	}
	neg.Stat = ""
	if rec := postBatch(t, s, BatchExploreRequest{ExploreRequest: neg, Stats: []string{"fpr", "fnr"}}); rec.Code != http.StatusBadRequest {
		t.Errorf("negative workers, batch: code = %d, want 400", rec.Code)
	}
}

// TestCacheLRUEviction bounds the universe cache: with CacheMax=2, a
// third distinct key evicts the least-recently-used entry (counted), and
// re-requesting the evicted key is a miss that rebuilds it.
func TestCacheLRUEviction(t *testing.T) {
	s := newTestServer(t, Config{
		Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		CacheMax: 2,
	})
	explore := func(stat string) {
		t.Helper()
		rec := postExplore(t, s, ExploreRequest{
			Dataset: "anomaly", Stat: stat, Actual: "y", Predicted: "p",
			S: 0.05, ST: 0.1,
		})
		if rec.Code != 200 {
			t.Fatalf("%s: %d %s", stat, rec.Code, rec.Body.String())
		}
	}

	explore("fpr")   // cache: fpr
	explore("fnr")   // cache: fnr, fpr
	explore("error") // cache: error, fnr — fpr evicted
	snap := s.tracer.Snapshot()
	if got := snap.Counter(obs.CtrServerCacheEvictions); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := s.cache.len(); got != 2 {
		t.Errorf("cache len = %d, want 2", got)
	}

	explore("fpr") // evicted above: must rebuild (miss), evicting fnr
	snap = s.tracer.Snapshot()
	if got := snap.Counter(obs.CtrServerCacheMisses); got != 4 {
		t.Errorf("misses = %d, want 4 (fpr was rebuilt)", got)
	}
	if got := snap.Counter(obs.CtrServerCacheEvictions); got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}

	explore("error") // still resident: a hit, refreshing its recency
	snap = s.tracer.Snapshot()
	if got := snap.Counter(obs.CtrServerCacheHits); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := s.cache.len(); got != 2 {
		t.Errorf("cache len = %d, want 2", got)
	}
}
