package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	hdiv "repro"
	"repro/internal/obs"
)

// anomalyTable builds the planted-anomaly dataset used across the repo's
// end-to-end tests: the x > 80 tail is mispredicted.
func anomalyTable(t testing.TB) *hdiv.Table {
	t.Helper()
	n := 600
	x := make([]float64, n)
	y := make([]string, n)
	p := make([]string, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i % 100)
		y[i] = "false"
		if i%2 == 0 {
			y[i] = "true"
		}
		p[i] = y[i]
		if x[i] > 80 {
			if p[i] == "true" {
				p[i] = "false"
			} else {
				p[i] = "true"
			}
		}
	}
	return hdiv.NewTableBuilder().
		AddFloat("x", x).
		AddCategorical("y", y).
		AddCategorical("p", p).
		MustBuild()
}

// slowTable builds a wide continuous dataset whose exploration at low
// support takes long enough to be cancelled mid-mine.
func slowTable(t *testing.T) *hdiv.Table {
	t.Helper()
	n := 4000
	b := hdiv.NewTableBuilder()
	for c := 0; c < 8; c++ {
		col := make([]float64, n)
		for i := range col {
			col[i] = float64((i*37 + c*1009 + i*i%97) % 211)
		}
		b.AddFloat(fmt.Sprintf("f%d", c), col)
	}
	y := make([]string, n)
	p := make([]string, n)
	for i := range y {
		y[i] = "false"
		if i%2 == 0 {
			y[i] = "true"
		}
		p[i] = y[i]
		if (i*31)%17 == 0 {
			p[i] = "false"
		}
	}
	b.AddCategorical("y", y)
	b.AddCategorical("p", p)
	return b.MustBuild()
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postExplore(t *testing.T, h http.Handler, req ExploreRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/explore", bytes.NewReader(body)))
	return rec
}

func TestHealthzAndDatasets(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/datasets", nil))
	if rec.Code != 200 {
		t.Fatalf("datasets = %d", rec.Code)
	}
	var infos []datasetInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "anomaly" || infos[0].Rows != 600 {
		t.Errorf("datasets = %+v", infos)
	}
	kinds := map[string]string{}
	for _, c := range infos[0].Columns {
		kinds[c.Name] = c.Kind
	}
	if kinds["x"] != "continuous" || kinds["y"] != "categorical" {
		t.Errorf("column kinds = %v", kinds)
	}
}

func TestLoadsCSVFromDisk(t *testing.T) {
	path := t.TempDir() + "/d.csv"
	if err := anomalyTable(t).WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "d", Path: path}}})
	if got := s.Datasets(); len(got) != 1 || got[0] != "d" {
		t.Errorf("Datasets() = %v", got)
	}
	if _, err := New(Config{Datasets: []DatasetConfig{{Name: "d", Path: path + ".missing"}}}); err == nil {
		t.Error("missing CSV should fail construction")
	}
}

// cliCSV renders the exploration the way `hdivexplorer -format csv` does:
// the same Pipeline call followed by Report.WriteCSV.
func cliCSV(t *testing.T, tab *hdiv.Table, req ExploreRequest) []byte {
	t.Helper()
	o, excl, err := hdiv.BuildStatistic(tab, req.Stat, req.Actual, req.Predicted, req.Target)
	if err != nil {
		t.Fatal(err)
	}
	opt := hdiv.PipelineOptions{
		TreeSupport:   req.ST,
		MinSupport:    req.S,
		MaxLen:        req.MaxLen,
		PolarityPrune: req.Polarity,
		Workers:       req.Workers,
		Exclude:       excl,
	}
	if opt.Criterion, err = hdiv.ParseCriterion(req.Criterion); err != nil {
		t.Fatal(err)
	}
	if opt.Mode, err = hdiv.ParseMode(req.Mode); err != nil {
		t.Fatal(err)
	}
	if opt.Algorithm, err = hdiv.ParseAlgorithm(req.Algorithm); err != nil {
		t.Fatal(err)
	}
	rep, err := hdiv.Pipeline(tab, o, opt)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := rep.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestConcurrentExploreMatchesCLI fires concurrent explorations with
// varied mining parameters and checks each CSV reply is byte-identical
// to what the CLI pipeline produces for the same parameters. Run under
// -race this also exercises cache sharing across goroutines.
func TestConcurrentExploreMatchesCLI(t *testing.T) {
	tab := anomalyTable(t)
	s := newTestServer(t, Config{
		Datasets:    []DatasetConfig{{Name: "anomaly", Table: tab}},
		MaxInFlight: 64, // above the 18 concurrent requests below: no 429s here
	})

	reqs := []ExploreRequest{
		{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1, Format: "csv"},
		{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1, Format: "csv", Workers: 4},
		{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1, Format: "csv", Algorithm: "apriori"},
		{Dataset: "anomaly", Stat: "fpr", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1, Format: "csv", Polarity: true},
		{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1, Format: "csv", Mode: "base"},
		{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1, Format: "csv", Criterion: "entropy", MaxLen: 2},
	}
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		want[i] = cliCSV(t, tab, r)
	}

	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i, r := range reqs {
			wg.Add(1)
			go func(i int, r ExploreRequest) {
				defer wg.Done()
				rec := postExplore(t, s, r)
				if rec.Code != 200 {
					t.Errorf("req %d: status %d: %s", i, rec.Code, rec.Body.String())
					return
				}
				if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
					t.Errorf("req %d: Content-Type %q", i, ct)
				}
				if !bytes.Equal(rec.Body.Bytes(), want[i]) {
					t.Errorf("req %d: server CSV differs from CLI CSV\nserver:\n%s\ncli:\n%s",
						i, rec.Body.Bytes(), want[i])
				}
			}(i, r)
		}
	}
	wg.Wait()

	// All six requests share a dataset but differ in mining-only
	// parameters for only two (dataset, stat, criterion, st) keys.
	if n := s.cache.len(); n != 3 {
		t.Errorf("cache holds %d entries, want 3 (error/div, fpr/div, error/entropy)", n)
	}
}

// TestWarmCacheSkipsDiscretize asserts the observable cache contract:
// a cold request's trace contains the discretize and universe-build
// spans, a warm repeat's trace contains neither, and the lifetime
// metrics count the hit.
func TestWarmCacheSkipsDiscretize(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	req := ExploreRequest{
		Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p",
		S: 0.05, ST: 0.1, Trace: true,
	}

	spanNames := func(rec *httptest.ResponseRecorder) map[string]bool {
		t.Helper()
		var rep struct {
			Trace struct {
				Spans []struct {
					Name string `json:"name"`
				} `json:"spans"`
			} `json:"trace"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			t.Fatalf("bad JSON reply: %v", err)
		}
		names := map[string]bool{}
		for _, sp := range rep.Trace.Spans {
			names[sp.Name] = true
		}
		return names
	}

	cold := postExplore(t, s, req)
	if cold.Code != 200 {
		t.Fatalf("cold: %d %s", cold.Code, cold.Body.String())
	}
	names := spanNames(cold)
	for _, want := range []string{obs.SpanDiscretize, obs.SpanMine} {
		if !names[want] {
			t.Errorf("cold trace missing span %q (have %v)", want, names)
		}
	}

	warm := postExplore(t, s, req)
	if warm.Code != 200 {
		t.Fatalf("warm: %d %s", warm.Code, warm.Body.String())
	}
	names = spanNames(warm)
	for _, absent := range []string{obs.SpanDiscretize, obs.SpanUniverse} {
		if names[absent] {
			t.Errorf("warm trace still contains span %q: stages 1-2 were re-run", absent)
		}
	}
	if !names[obs.SpanMine] {
		t.Errorf("warm trace missing mining span (have %v)", names)
	}

	snap := s.tracer.Snapshot()
	if snap.Counter(obs.CtrServerCacheMisses) != 1 || snap.Counter(obs.CtrServerCacheHits) != 1 {
		t.Errorf("cache counters: misses=%d hits=%d, want 1/1",
			snap.Counter(obs.CtrServerCacheMisses), snap.Counter(obs.CtrServerCacheHits))
	}
}

// TestCancelMidMineKeepsCacheIntact cancels a heavy exploration mid-mine
// via a tiny timeout_ms, checks the request returns promptly with 504,
// and then verifies a follow-up exploration over the same cached
// universe still matches the CLI byte for byte.
func TestCancelMidMineKeepsCacheIntact(t *testing.T) {
	tab := slowTable(t)
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "slow", Table: tab}}})
	heavy := ExploreRequest{
		Dataset: "slow", Stat: "error", Actual: "y", Predicted: "p",
		S: 0.002, ST: 0.05, Format: "csv", Algorithm: "apriori",
	}

	// Warm the cache first so the timeout below lands inside mining, not
	// inside the universe build.
	quick := heavy
	quick.S = 0.4
	if rec := postExplore(t, s, quick); rec.Code != 200 {
		t.Fatalf("warmup: %d %s", rec.Code, rec.Body.String())
	}

	cancelled := heavy
	cancelled.TimeoutMS = 25
	start := time.Now()
	rec := postExplore(t, s, cancelled)
	elapsed := time.Since(start)
	if rec.Code == 200 {
		t.Logf("mining finished inside %v; cancellation not exercised", elapsed)
	} else {
		if rec.Code != http.StatusGatewayTimeout {
			t.Errorf("cancelled request: status %d %s", rec.Code, rec.Body.String())
		}
		if elapsed > 2*time.Second {
			t.Errorf("cancelled request took %v, want prompt return", elapsed)
		}
		if got := s.tracer.Snapshot().Counter(obs.CtrServerCancelled); got == 0 {
			t.Error("cancelled exploration not counted")
		}
	}

	// The cached universe must be untouched: a moderate exploration over
	// it still matches a from-scratch CLI run exactly.
	check := heavy
	check.S = 0.3
	rec = postExplore(t, s, check)
	if rec.Code != 200 {
		t.Fatalf("post-cancel explore: %d %s", rec.Code, rec.Body.String())
	}
	if want := cliCSV(t, tab, check); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("post-cancel CSV differs from CLI:\nserver:\n%s\ncli:\n%s", rec.Body.Bytes(), want)
	}
}

// TestClientDisconnectCancels aborts the request context mid-mine and
// checks the handler notices (via the cancelled counter) promptly.
func TestClientDisconnectCancels(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "slow", Table: slowTable(t)}}})
	body, _ := json.Marshal(ExploreRequest{
		Dataset: "slow", Stat: "error", Actual: "y", Predicted: "p",
		S: 0.002, ST: 0.05, Algorithm: "apriori",
	})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/explore", bytes.NewReader(body)).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(httptest.NewRecorder(), req)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after client disconnect")
	}
}

// TestSaturationRejects fills the in-flight semaphore and checks the
// next exploration is turned away with 429 + Retry-After instead of
// queueing.
func TestSaturationRejects(t *testing.T) {
	s := newTestServer(t, Config{
		Datasets:    []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		MaxInFlight: 1,
	})
	s.sem <- struct{}{} // occupy the only slot
	rec := postExplore(t, s, ExploreRequest{
		Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p",
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated explore: status %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 reply missing Retry-After")
	}
	<-s.sem
	if rec := postExplore(t, s, ExploreRequest{
		Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p",
	}); rec.Code != 200 {
		t.Errorf("after slot freed: status %d %s", rec.Code, rec.Body.String())
	}
	if got := s.tracer.Snapshot().Counter(obs.CtrServerRejected); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestExploreErrors covers the request-validation failure paths, and
// that failed universe builds (bad column names) are not cached.
func TestExploreErrors(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	for name, tc := range map[string]struct {
		req  ExploreRequest
		code int
	}{
		"unknown dataset":   {ExploreRequest{Dataset: "nope"}, 404},
		"bad criterion":     {ExploreRequest{Dataset: "anomaly", Criterion: "nope"}, 400},
		"bad mode":          {ExploreRequest{Dataset: "anomaly", Mode: "nope"}, 400},
		"bad algorithm":     {ExploreRequest{Dataset: "anomaly", Algorithm: "nope"}, 400},
		"bad format":        {ExploreRequest{Dataset: "anomaly", Format: "nope"}, 400},
		"bad stat":          {ExploreRequest{Dataset: "anomaly", Stat: "nope", Actual: "y", Predicted: "p"}, 400},
		"missing label col": {ExploreRequest{Dataset: "anomaly", Stat: "fpr", Actual: "missing", Predicted: "p"}, 400},
	} {
		rec := postExplore(t, s, tc.req)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, tc.code, rec.Body.String())
		}
	}
	if n := s.cache.len(); n != 0 {
		t.Errorf("failed builds left %d cache entries, want 0", n)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/explore", strings.NewReader(`{"bogus_field": 1}`)))
	if rec.Code != 400 {
		t.Errorf("unknown JSON field: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/explore", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/explore: status %d, want 405", rec.Code)
	}
}

// TestMetricsEndpoint checks /metrics renders the server counters in
// Prometheus text format after some traffic.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	if rec := postExplore(t, s, ExploreRequest{
		Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p",
	}); rec.Code != 200 {
		t.Fatalf("explore: %d %s", rec.Code, rec.Body.String())
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"server_requests_explore 1",
		"server_explores 1",
		"server_universe_cache_misses 1",
		"# TYPE server_datasets gauge",
		"server_datasets 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestGracefulShutdownDrains starts a real http.Server, begins an
// exploration, shuts the server down mid-request, and checks the
// in-flight exploration completes with a full, valid reply.
func TestGracefulShutdownDrains(t *testing.T) {
	tab := slowTable(t)
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "slow", Table: tab}}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Moderate request: the universe build over 8 continuous attributes
	// keeps the request in flight when Shutdown fires, while mining at
	// high support stays quick enough to drain well inside the budget.
	req := ExploreRequest{
		Dataset: "slow", Stat: "error", Actual: "y", Predicted: "p",
		S: 0.4, ST: 0.1, Format: "csv",
	}
	body, _ := json.Marshal(req)
	type result struct {
		code int
		body []byte
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/explore", "application/json", bytes.NewReader(body))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		resc <- result{code: resp.StatusCode, body: b, err: err}
	}()

	time.Sleep(30 * time.Millisecond) // let the request reach the handler
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown did not drain: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v", err)
	}

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", res.err)
	}
	if res.code != 200 {
		t.Fatalf("in-flight request got %d: %s", res.code, res.body)
	}
	if want := cliCSV(t, tab, req); !bytes.Equal(res.body, want) {
		t.Error("drained reply truncated or corrupted")
	}
}
