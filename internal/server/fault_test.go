package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fpm"
	"repro/internal/obs"
)

// leakCheck asserts the server holds no per-request state: every
// semaphore slot free, no in-flight gauge residue, no active registry
// entry. Run it after failure paths to prove containment released
// everything during unwinding.
func leakCheck(t *testing.T, s *Server) {
	t.Helper()
	if n := len(s.sem); n != 0 {
		t.Errorf("%d semaphore slots leaked", n)
	}
	if n := s.inFlight.Load(); n != 0 {
		t.Errorf("in-flight count leaked: %d", n)
	}
	if _, ok := s.requests.oldestActive(); ok {
		t.Error("request registry still holds an active entry")
	}
}

// TestFaultMinerPanicContained injects a panic into the mining hot path
// and checks the containment chain end to end: the request is answered
// 500, the panic is recovered and counted, no request state leaks, and
// the daemon keeps serving — the very next exploration succeeds.
func TestFaultMinerPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"}

	// Warm the cache so the panic lands inside mining, not the build.
	if rec := postExplore(t, s, req); rec.Code != 200 {
		t.Fatalf("warmup: %d %s", rec.Code, rec.Body.String())
	}
	before := runtime.NumGoroutine()

	if err := faultinject.Arm(faultinject.SiteCandidateBatch, "panic(injected miner panic)"); err != nil {
		t.Fatal(err)
	}
	rec := postExplore(t, s, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking exploration: status %d %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "injected miner panic") {
		t.Errorf("500 body does not name the panic: %q", rec.Body.String())
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("failed request lost its correlation ID")
	}
	leakCheck(t, s)
	snap := s.tracer.Snapshot()
	if snap.Counter(obs.CtrPanicsRecovered) < 1 {
		t.Error("miner panic recovery not counted")
	}

	faultinject.Reset()
	if rec := postExplore(t, s, req); rec.Code != 200 {
		t.Errorf("daemon did not keep serving after panic: %d %s", rec.Code, rec.Body.String())
	}
	leakCheck(t, s)

	// Goroutine count settles back to the pre-fault baseline (generous
	// slack for the runtime's own background goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+4 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+4 {
		t.Errorf("goroutines leaked: %d before the fault, %d after", before, n)
	}
}

// TestFaultHandlerPanicMiddleware drives the ServeHTTP recovery
// middleware directly with a panicking route: 500 naming the request,
// panic counted, liveness intact. http.ErrAbortHandler must pass
// through untouched — it is net/http's own control flow.
func TestFaultHandlerPanicMiddleware(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	s.mux.HandleFunc("GET /test/panic", func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	})
	s.mux.HandleFunc("GET /test/abort", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/test/panic", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal error (request") {
		t.Errorf("500 body = %q", rec.Body.String())
	}
	if got := s.tracer.Snapshot().Counter(obs.CtrServerPanics); got != 1 {
		t.Errorf("server panics counter = %d, want 1", got)
	}

	func() {
		defer func() {
			if recover() != http.ErrAbortHandler {
				t.Error("http.ErrAbortHandler was swallowed by the recovery middleware")
			}
		}()
		s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/test/abort", nil))
	}()

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("healthz after panics: %d", rec.Code)
	}
}

// TestFaultCacheFillErrorReleasesWaiters errors the universe build under
// concurrent identical requests: singleflight must hand every waiter the
// error, cache nothing, and let the next request rebuild cleanly.
func TestFaultCacheFillErrorReleasesWaiters(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := newTestServer(t, Config{
		Datasets:    []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		MaxInFlight: 16,
	})
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"}

	if err := faultinject.Arm(faultinject.SiteCacheFill, "error(disk gone)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	codes := make([]int, 8)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postExplore(t, s, req)
			codes[i] = rec.Code
			if !strings.Contains(rec.Body.String(), "disk gone") {
				t.Errorf("waiter %d: body %q does not carry the injected error", i, rec.Body.String())
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters not released after failed build")
	}
	for i, code := range codes {
		if code != http.StatusBadRequest {
			t.Errorf("waiter %d: status %d, want 400", i, code)
		}
	}
	if n := s.cache.len(); n != 0 {
		t.Errorf("failed build left %d cache entries", n)
	}
	leakCheck(t, s)

	// Disarmed, the same request rebuilds and succeeds — the failure was
	// never cached.
	faultinject.Reset()
	if rec := postExplore(t, s, req); rec.Code != 200 {
		t.Fatalf("retry after failed build: %d %s", rec.Code, rec.Body.String())
	}
	if n := s.cache.len(); n != 1 {
		t.Errorf("successful rebuild cached %d entries, want 1", n)
	}
}

// TestFaultCacheFillPanicContained panics the universe build, which runs
// on a detached goroutine: without containment this would kill the whole
// process. It must instead answer 500, cache nothing, and leave the
// daemon serving.
func TestFaultCacheFillPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"}

	if err := faultinject.Arm(faultinject.SiteCacheFill, "panic(build exploded)"); err != nil {
		t.Fatal(err)
	}
	rec := postExplore(t, s, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking build: status %d %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "build exploded") {
		t.Errorf("500 body = %q", rec.Body.String())
	}
	if n := s.cache.len(); n != 0 {
		t.Errorf("panicked build left %d cache entries", n)
	}
	leakCheck(t, s)

	faultinject.Reset()
	if rec := postExplore(t, s, req); rec.Code != 200 {
		t.Errorf("daemon did not keep serving after build panic: %d %s", rec.Code, rec.Body.String())
	}
}

// TestFaultDiscretizeErrorNotCached errors the tree-discretization
// failpoint inside the universe build: the request fails, nothing is
// cached, and the next request rebuilds successfully.
func TestFaultDiscretizeErrorNotCached(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"}

	if err := faultinject.Arm(faultinject.SiteDiscretizeTree, "error(split storage lost)"); err != nil {
		t.Fatal(err)
	}
	rec := postExplore(t, s, req)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "split storage lost") {
		t.Fatalf("discretize fault: %d %s", rec.Code, rec.Body.String())
	}
	if n := s.cache.len(); n != 0 {
		t.Errorf("failed discretization left %d cache entries", n)
	}
	leakCheck(t, s)

	faultinject.Reset()
	if rec := postExplore(t, s, req); rec.Code != 200 {
		t.Errorf("daemon did not keep serving after discretize fault: %d %s", rec.Code, rec.Body.String())
	}
}

// TestFaultCSVLoadFailsConstruction errors the CSV-load failpoint: a
// daemon booting against a faulty dataset source fails construction
// cleanly instead of serving a partial dataset set.
func TestFaultCSVLoadFailsConstruction(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	path := t.TempDir() + "/d.csv"
	if err := anomalyTable(t).WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(faultinject.SiteCSVLoad, "error(io stalled)"); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Datasets: []DatasetConfig{{Name: "d", Path: path}}}); err == nil || !strings.Contains(err.Error(), "io stalled") {
		t.Fatalf("New with faulty CSV load: err = %v, want injected error", err)
	}
	faultinject.Reset()
	if _, err := New(Config{Datasets: []DatasetConfig{{Name: "d", Path: path}}}); err != nil {
		t.Fatalf("disarmed New failed: %v", err)
	}
}

// truncatedReply is the part of the exploration JSON reply the budget
// tests care about.
type truncatedReply struct {
	Truncated bool              `json:"truncated"`
	Exhausted string            `json:"exhausted"`
	Subgroups []json.RawMessage `json:"subgroups"`
}

// TestFaultBudgetTruncatedOverHTTP checks graceful degradation end to
// end: a budget-exhausted exploration answers 200 with the report
// flagged truncated (never an error), the truncation is counted, and the
// ranked prefix is byte-identical across worker settings.
func TestFaultBudgetTruncatedOverHTTP(t *testing.T) {
	s := newTestServer(t, Config{
		Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		Budget:   fpm.Budget{MaxItemsets: 1},
	})
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"}

	rec := postExplore(t, s, req)
	if rec.Code != 200 {
		t.Fatalf("budgeted exploration: status %d %s", rec.Code, rec.Body.String())
	}
	var rep truncatedReply
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.Exhausted != fpm.ExhaustedItemsets {
		t.Fatalf("reply truncated=%v exhausted=%q, want true/%q", rep.Truncated, rep.Exhausted, fpm.ExhaustedItemsets)
	}
	if len(rep.Subgroups) == 0 {
		t.Error("truncated reply carries no ranked prefix")
	}
	if got := s.tracer.Snapshot().Counter(obs.CtrServerTruncated); got != 1 {
		t.Errorf("truncated counter = %d, want 1", got)
	}

	// The truncated ranked prefix is deterministic: CSV replies across
	// worker settings are byte-identical.
	csvReq := req
	csvReq.Format = "csv"
	var ref []byte
	for _, workers := range []int{1, 4} {
		r := csvReq
		r.Workers = workers
		rec := postExplore(t, s, r)
		if rec.Code != 200 {
			t.Fatalf("w%d: status %d %s", workers, rec.Code, rec.Body.String())
		}
		if ref == nil {
			ref = rec.Body.Bytes()
			continue
		}
		if !bytes.Equal(rec.Body.Bytes(), ref) {
			t.Errorf("w%d: truncated CSV differs from the w1 reply", workers)
		}
	}
}

// TestFaultBudgetRequestTightening covers the per-request budget knob:
// a request can impose a budget on an unbudgeted server and tighten a
// configured one, but can never loosen it, and negative dimensions are
// rejected.
func TestFaultBudgetRequestTightening(t *testing.T) {
	unbudgeted := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	req := ExploreRequest{
		Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p",
		Budget: &BudgetRequest{MaxItemsets: 1},
	}
	rec := postExplore(t, unbudgeted, req)
	if rec.Code != 200 {
		t.Fatalf("request budget: status %d %s", rec.Code, rec.Body.String())
	}
	var rep truncatedReply
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.Exhausted != fpm.ExhaustedItemsets {
		t.Errorf("request budget ignored: truncated=%v exhausted=%q", rep.Truncated, rep.Exhausted)
	}

	// A request asking for more than the server allows still runs under
	// the server's (tighter) cap.
	budgeted := newTestServer(t, Config{
		Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		Budget:   fpm.Budget{MaxItemsets: 1},
	})
	wide := req
	wide.Budget = &BudgetRequest{MaxItemsets: 1 << 20}
	rec = postExplore(t, budgeted, wide)
	if rec.Code != 200 {
		t.Fatalf("loosening request: status %d %s", rec.Code, rec.Body.String())
	}
	rep = truncatedReply{}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated {
		t.Error("request loosened the server budget")
	}

	bad := req
	bad.Budget = &BudgetRequest{MaxCandidates: -1}
	if rec := postExplore(t, unbudgeted, bad); rec.Code != http.StatusBadRequest {
		t.Errorf("negative budget: status %d, want 400", rec.Code)
	}
}

// TestFaultUnbudgetedOmitsFlags pins the wire-compatibility contract:
// without a budget the JSON reply must not grow truncated/exhausted
// fields (omitempty keeps it byte-identical to earlier releases).
func TestFaultUnbudgetedOmitsFlags(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	rec := postExplore(t, s, ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"})
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if body := rec.Body.String(); strings.Contains(body, `"truncated"`) || strings.Contains(body, `"exhausted"`) {
		t.Error("unbudgeted reply carries truncation fields")
	}
}

// TestReadyzDrainLifecycle covers the readiness satellite: ready while
// serving, 503 during drain while liveness and in-flight work continue.
func TestReadyzDrainLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != 200 || rec.Body.String() != "ready\n" {
		t.Errorf("readyz = %d %q, want 200 ready", rec.Code, rec.Body.String())
	}

	s.StartDrain()
	s.StartDrain() // idempotent
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != "draining\n" {
		t.Errorf("draining readyz = %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Errorf("healthz during drain = %d, want 200", rec.Code)
	}
	if rec := postExplore(t, s, ExploreRequest{
		Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p",
	}); rec.Code != 200 {
		t.Errorf("exploration during drain = %d, want 200 (in-flight work must finish)", rec.Code)
	}
}

// TestRetryAfterEstimate pins the 429 Retry-After computation: the hint
// is the oldest in-flight exploration's residual timeout, rounded up,
// clamped to [1, ceil(timeout)] — and 1 when nothing is registered yet.
func TestRetryAfterEstimate(t *testing.T) {
	s := newTestServer(t, Config{
		Datasets:       []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		RequestTimeout: 30 * time.Second,
	})
	now := time.Now()

	if got := s.retryAfter(now); got != 1 {
		t.Errorf("no active requests: Retry-After %d, want 1", got)
	}

	for _, tc := range []struct {
		elapsed time.Duration
		want    int
	}{
		{0, 30},                       // just admitted: full window
		{25 * time.Second, 5},         // mid-flight: the residual
		{29100 * time.Millisecond, 1}, // nearly done: rounded up from 900ms
		{40 * time.Second, 1},         // overdue: clamped to the floor
	} {
		st := s.requests.start("retry-test", "anomaly", obs.NewProgress())
		st.Started = now.Add(-tc.elapsed)
		if got := s.retryAfter(now); got != tc.want {
			t.Errorf("elapsed %v: Retry-After %d, want %d", tc.elapsed, got, tc.want)
		}
		s.requests.finish(st, FlightRecord{ID: "retry-test", Status: "done"}, nil)
	}

	// Several in flight: the oldest one drives the estimate.
	a := s.requests.start("retry-a", "anomaly", obs.NewProgress())
	a.Started = now.Add(-20 * time.Second)
	b := s.requests.start("retry-b", "anomaly", obs.NewProgress())
	b.Started = now.Add(-5 * time.Second)
	if got := s.retryAfter(now); got != 10 {
		t.Errorf("two active: Retry-After %d, want 10 (oldest wins)", got)
	}
	s.requests.finish(a, FlightRecord{ID: "retry-a", Status: "done"}, nil)
	s.requests.finish(b, FlightRecord{ID: "retry-b", Status: "done"}, nil)
}
