package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestLifetimeSpansBounded is the span-leak regression test: the daemon's
// lifetime tracer must not accumulate spans across requests (each request
// runs on its own tracer and only counters/gauges/histograms are folded
// in), while /metrics still accumulates mining work across requests.
func TestLifetimeSpansBounded(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"}

	const n = 6
	for i := 0; i < n; i++ {
		if rec := postExplore(t, s, req); rec.Code != 200 {
			t.Fatalf("explore %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}

	snap := s.tracer.Snapshot()
	if len(snap.Spans) != 0 {
		t.Errorf("lifetime tracer holds %d spans after %d requests; spans must stay per-request", len(snap.Spans), n)
	}
	// The mining counters still accumulate across requests via Absorb.
	cand := snap.Counter(obs.CtrCandidates)
	if cand <= 0 || cand%int64(n) != 0 {
		t.Errorf("lifetime fpm.candidates = %d, want a positive multiple of %d", cand, n)
	}
	if got := snap.Histograms[obs.HistRequestSeconds].Count; got != n {
		t.Errorf("request-latency histogram count = %d, want %d", got, n)
	}
	if got := snap.Histograms[obs.HistItemsetSupport].Count; got <= 0 || got%int64(n) != 0 {
		t.Errorf("itemset-support histogram count = %d, want a positive multiple of %d", got, n)
	}
}

// TestMetricsHistograms checks /metrics renders all three canonical
// histograms with coherent _bucket/_sum/_count series after traffic.
func TestMetricsHistograms(t *testing.T) {
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
	for _, h := range []string{"server_request_seconds", "fpm_candidate_batch", "fpm_itemset_support"} {
		for _, want := range []string{
			"# TYPE " + h + " histogram",
			h + `_bucket{le="+Inf"}`,
			h + "_sum",
			h + "_count",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("metrics missing %q:\n%s", want, body)
			}
		}
	}
}

// TestRequestIDHeader checks the correlation-ID contract: well-formed
// client IDs are honoured and echoed, malformed ones replaced, absent
// ones generated.
func TestRequestIDHeader(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	body, _ := json.Marshal(ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"})

	post := func(id string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/explore", bytes.NewReader(body))
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		s.ServeHTTP(rec, req)
		return rec
	}

	if rec := post("my-req.01"); rec.Header().Get("X-Request-ID") != "my-req.01" {
		t.Errorf("client ID not echoed: %q", rec.Header().Get("X-Request-ID"))
	}
	if rec := post("bad id\n"); rec.Header().Get("X-Request-ID") == "bad id\n" || rec.Header().Get("X-Request-ID") == "" {
		t.Errorf("malformed client ID not replaced: %q", rec.Header().Get("X-Request-ID"))
	}
	if rec := post(""); len(rec.Header().Get("X-Request-ID")) != 16 {
		t.Errorf("generated ID = %q, want 16 hex chars", rec.Header().Get("X-Request-ID"))
	}
}

// TestProgressEndpointLive drives a slow exploration with a
// client-supplied request ID and polls /v1/progress/{id} while it runs:
// counts must advance monotonically and the final state must be done
// with status "done".
func TestProgressEndpointLive(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "slow", Table: slowTable(t)}}})
	const id = "live-poll-1"

	// Warm the universe cache so polling observes mining, not the build.
	if rec := postExplore(t, s, ExploreRequest{
		Dataset: "slow", Stat: "error", Actual: "y", Predicted: "p", S: 0.4, ST: 0.05,
	}); rec.Code != 200 {
		t.Fatalf("warmup: %d %s", rec.Code, rec.Body.String())
	}

	// ~0.5–1s of mining on the warm cache: long enough for many polls,
	// well inside the 30s request timeout.
	body, _ := json.Marshal(ExploreRequest{
		Dataset: "slow", Stat: "error", Actual: "y", Predicted: "p",
		S: 0.008, ST: 0.05, Algorithm: "apriori", MaxLen: 3, Top: 5,
	})
	var wg sync.WaitGroup
	var reply struct {
		Mining struct {
			Candidates int64 `json:"candidates"`
			Frequent   int64 `json:"frequent"`
		} `json:"mining"`
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/explore", bytes.NewReader(body))
		req.Header.Set("X-Request-ID", id)
		s.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Errorf("explore: %d %s", rec.Code, rec.Body.String())
		} else if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Errorf("explore reply: %v", err)
		}
	}()

	poll := func() (progressReply, int) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/progress/"+id, nil))
		var pr progressReply
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
				t.Fatalf("bad progress JSON: %v", err)
			}
		}
		return pr, rec.Code
	}

	sawRunning := false
	var prev int64 = -1
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		pr, code := poll()
		if code == 404 { // not registered yet
			time.Sleep(time.Millisecond)
			continue
		}
		if code != 200 {
			t.Fatalf("progress poll: %d", code)
		}
		if pr.Progress.Candidates < prev {
			t.Fatalf("candidates went backwards: %d after %d", pr.Progress.Candidates, prev)
		}
		prev = pr.Progress.Candidates
		if pr.Status == "running" && pr.Progress.Candidates > 0 {
			sawRunning = true
		}
		if pr.Progress.Done {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()

	pr, code := poll()
	if code != 200 || pr.Status != "done" || !pr.Progress.Done {
		t.Errorf("final progress: code=%d %+v", code, pr)
	}
	if pr.Progress.Candidates <= 0 || pr.Progress.Frequent <= 0 {
		t.Errorf("final counts empty: %+v", pr.Progress)
	}
	if pr.Progress.Candidates != reply.Mining.Candidates || pr.Progress.Frequent != reply.Mining.Frequent {
		t.Errorf("final progress %+v disagrees with the reply's mining %+v", pr.Progress, reply.Mining)
	}
	if pr.Dataset != "slow" || pr.ID != id {
		t.Errorf("progress identity: %+v", pr)
	}
	if !sawRunning {
		t.Log("mining finished before a running snapshot was observed; live polling not exercised")
	}

	// The listing endpoint knows the request too.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/progress", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), id) {
		t.Errorf("progress list: %d %s", rec.Code, rec.Body.String())
	}
}

// TestTraceEndpoint checks /v1/trace/{id}: the default Chrome export
// passes structural validation and carries the request ID; the json and
// tree formats render; unknown IDs 404.
func TestTraceEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	const id = "trace-req-1"
	body, _ := json.Marshal(ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/explore", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", id)
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("explore: %d %s", rec.Code, rec.Body.String())
	}

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}

	chrome := get("/v1/trace/" + id)
	if chrome.Code != 200 {
		t.Fatalf("trace: %d %s", chrome.Code, chrome.Body.String())
	}
	if n, err := obs.ValidateChromeTrace(bytes.NewReader(chrome.Body.Bytes())); err != nil {
		t.Errorf("chrome trace invalid: %v", err)
	} else if n < 3 {
		t.Errorf("chrome trace has only %d events", n)
	}
	if !strings.Contains(chrome.Body.String(), id) {
		t.Error("chrome trace lost the request ID")
	}

	raw := get("/v1/trace/" + id + "?format=json")
	var tr obs.Trace
	if err := json.Unmarshal(raw.Body.Bytes(), &tr); err != nil || tr.ID != id {
		t.Errorf("raw trace: err=%v id=%q", err, tr.ID)
	}
	if tr.Span(obs.SpanMine) == nil {
		t.Error("raw trace missing mining span")
	}

	if tree := get("/v1/trace/" + id + "?format=tree"); tree.Code != 200 || !strings.Contains(tree.Body.String(), obs.SpanMine) {
		t.Errorf("tree trace: %d %s", tree.Code, tree.Body.String())
	}
	if bad := get("/v1/trace/" + id + "?format=nope"); bad.Code != 400 {
		t.Errorf("bad format: %d", bad.Code)
	}
	if missing := get("/v1/trace/absent"); missing.Code != 404 {
		t.Errorf("unknown trace id: %d", missing.Code)
	}
	if missing := get("/v1/progress/absent"); missing.Code != 404 {
		t.Errorf("unknown progress id: %d", missing.Code)
	}
}

// TestStructuredRequestLog checks the per-request slog line: JSON
// output, request_id matching the response header, and the request's
// outcome fields.
func TestStructuredRequestLog(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	s := newTestServer(t, Config{
		Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		Logger:   logger,
	})
	body, _ := json.Marshal(ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/explore", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "log-req-1")
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("explore: %d %s", rec.Code, rec.Body.String())
	}

	mu.Lock()
	line := buf.String()
	mu.Unlock()
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, line)
	}
	if entry["request_id"] != "log-req-1" || entry["dataset"] != "anomaly" || entry["status"] != "done" {
		t.Errorf("log entry = %v", entry)
	}
	if entry["subgroups"] == nil || entry["elapsed_ms"] == nil {
		t.Errorf("log entry missing outcome fields: %v", entry)
	}
}

// lockedWriter serializes writes from handler goroutines during tests.
type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestRecentRingBounded checks completed requests are retained for
// trace export but the retention is bounded.
func TestRecentRingBounded(t *testing.T) {
	g := newRequestLog(DefaultTraceRing, slowCaptures, time.Second)
	for i := 0; i < DefaultTraceRing+20; i++ {
		id := obs.NewRequestID()
		st := g.start(id, "d", obs.NewProgress())
		g.finish(st, FlightRecord{ID: id, Status: "done"}, &obs.Trace{})
	}
	g.mu.Lock()
	n, active := len(g.ring), len(g.active)
	g.mu.Unlock()
	if n != DefaultTraceRing || active != 0 {
		t.Errorf("registry holds %d recent / %d active, want %d / 0", n, active, DefaultTraceRing)
	}

	// An explicit capacity is honoured.
	small := newRequestLog(3, slowCaptures, time.Second)
	for i := 0; i < 10; i++ {
		id := obs.NewRequestID()
		st := small.start(id, "d", obs.NewProgress())
		small.finish(st, FlightRecord{ID: id, Status: "done"}, &obs.Trace{})
	}
	small.mu.Lock()
	n = len(small.ring)
	small.mu.Unlock()
	if n != 3 {
		t.Errorf("registry with cap 3 holds %d recent", n)
	}
}

// TestMetricsExpositionWhole scrapes /metrics in both formats after a
// scripted session (explore, batch explore, accepted append, 400
// explore) and checks the joined tracer, runtime and SLO output as one
// exposition: every family has exactly one TYPE line and at most one
// HELP line ahead of its samples, every sample sits inside its own
// family's block, and the format-specific syntax (_total suffixes,
// exemplars, the # EOF terminator) appears in exactly one rendering.
func TestMetricsExpositionWhole(t *testing.T) {
	slo, err := ParseSLO("p99=250ms,availability=99.9")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		SLO:      slo,
	})
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", Workers: 1}
	if rec := postExplore(t, s, req); rec.Code != 200 {
		t.Fatalf("explore: %d %s", rec.Code, rec.Body.String())
	}
	if rec := postBatch(t, s, BatchExploreRequest{ExploreRequest: req, Stats: []string{"fpr", "fnr"}}); rec.Code != 200 {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	if rec := postAppend(t, s, "anomaly", quietBatch(20, 0)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	if rec := postExplore(t, s, ExploreRequest{Dataset: "anomaly", Criterion: "nope"}); rec.Code != 400 {
		t.Fatalf("bad explore: %d, want 400", rec.Code)
	}
	// The lifetime latency histogram counts both exploration endpoints,
	// rejected answers included, but not appends or mux-level 405s.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/explore", nil))
	if rec.Code != 405 {
		t.Fatalf("GET /v1/explore: %d, want 405", rec.Code)
	}
	if n := s.tracer.Snapshot().Histograms[obs.HistRequestSeconds].Count; n != 3 {
		t.Errorf("request-latency histogram count = %d, want 3", n)
	}

	scrape := func(accept string) string {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest("GET", "/metrics", nil)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		s.ServeHTTP(rec, r)
		if rec.Code != 200 {
			t.Fatalf("metrics (Accept %q): %d", accept, rec.Code)
		}
		return rec.Body.String()
	}
	for _, openMetrics := range []bool{false, true} {
		accept := ""
		if openMetrics {
			accept = "application/openmetrics-text; version=1.0.0"
		}
		body := scrape(accept)
		lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
		types := map[string]string{}
		helps := map[string]int{}
		var family string
		var eofs int
		exemplar := false
		for i, line := range lines {
			switch {
			case line == "# EOF":
				eofs++
				if !openMetrics || i != len(lines)-1 {
					t.Errorf("openmetrics=%v: # EOF at line %d of %d", openMetrics, i+1, len(lines))
				}
			case strings.HasPrefix(line, "# HELP "):
				name := strings.Fields(line)[2]
				if helps[name]++; helps[name] > 1 || types[name] != "" {
					t.Errorf("openmetrics=%v: HELP for %s repeated or after its TYPE", openMetrics, name)
				}
			case strings.HasPrefix(line, "# TYPE "):
				f := strings.Fields(line)
				if len(f) != 4 || types[f[2]] != "" {
					t.Errorf("openmetrics=%v: malformed or repeated %q", openMetrics, line)
					continue
				}
				family, types[f[2]] = f[2], f[3]
			case strings.HasPrefix(line, "#"):
				t.Errorf("openmetrics=%v: stray comment %q", openMetrics, line)
			default:
				name := line[:strings.IndexAny(line, "{ ")]
				var want []string
				switch types[family] {
				case "histogram":
					want = []string{family + "_bucket", family + "_sum", family + "_count"}
				case "counter":
					if openMetrics {
						want = []string{family + "_total"}
					} else {
						want = []string{family}
					}
				default:
					want = []string{family}
				}
				if !slices.Contains(want, name) {
					t.Errorf("openmetrics=%v: sample %q outside its family (current %s %s)", openMetrics, line, family, types[family])
				}
				if strings.Contains(line, " # {") {
					if !openMetrics || name != family+"_bucket" {
						t.Errorf("openmetrics=%v: exemplar on %q", openMetrics, line)
					}
					if strings.HasPrefix(line, "server_request_seconds_bucket{") && strings.Contains(line, `# {request_id="`) {
						exemplar = true
					}
				}
			}
		}
		for name := range helps {
			if types[name] == "" {
				t.Errorf("openmetrics=%v: HELP for %s without a TYPE", openMetrics, name)
			}
		}
		for _, name := range []string{"server_requests_explore", "server_appends", "server_request_seconds",
			"go_gc_cycles", "server_window_requests", "server_slo_burn_rate", "server_slo_budget_remaining"} {
			if types[name] == "" {
				t.Errorf("openmetrics=%v: family %s missing", openMetrics, name)
			}
		}
		if openMetrics {
			if eofs != 1 {
				t.Errorf("# EOF appears %d times, want once", eofs)
			}
			if !exemplar {
				t.Error("explore latency histogram carries no request_id exemplar")
			}
		} else if eofs != 0 {
			t.Errorf("classic exposition has %d # EOF lines", eofs)
		}
	}
}
