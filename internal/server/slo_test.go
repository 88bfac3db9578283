package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseSLO(t *testing.T) {
	cfg, err := ParseSLO("p99=250ms,p999=1s,availability=99.9,short=5s,long=30s,epoch=500ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Latency) != 2 {
		t.Fatalf("latency objectives = %+v, want 2", cfg.Latency)
	}
	// Sorted by quantile ascending.
	if cfg.Latency[0].Quantile != 0.99 || cfg.Latency[0].Target != 250*time.Millisecond {
		t.Errorf("objective 0 = %+v", cfg.Latency[0])
	}
	if cfg.Latency[1].Quantile != 0.999 || cfg.Latency[1].Target != time.Second {
		t.Errorf("objective 1 = %+v", cfg.Latency[1])
	}
	if cfg.Latency[0].Name() != "p99" || cfg.Latency[1].Name() != "p999" {
		t.Errorf("names = %q, %q", cfg.Latency[0].Name(), cfg.Latency[1].Name())
	}
	if cfg.Availability != 99.9 {
		t.Errorf("availability = %g", cfg.Availability)
	}
	if cfg.ShortWindow != 5*time.Second || cfg.LongWindow != 30*time.Second || cfg.Epoch != 500*time.Millisecond {
		t.Errorf("windows = %v/%v epoch %v", cfg.ShortWindow, cfg.LongWindow, cfg.Epoch)
	}
	if got := cfg.slowCaptureThreshold(); got != 250*time.Millisecond {
		t.Errorf("slowCaptureThreshold = %v, want the tightest target", got)
	}

	if cfg, err := ParseSLO(""); err != nil || len(cfg.Latency) != 0 {
		t.Errorf("empty spec = %+v, %v", cfg, err)
	}
	for _, bad := range []string{
		"p99",              // no value
		"p99=fast",         // not a duration
		"p5=10ms",          // single digit: quantile ambiguous
		"p00=10ms",         // quantile 0
		"q99=10ms",         // unknown key
		"availability=101", // out of range
		"availability=0",
		"short=-1s",
		"p99=250ms,,",
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted", bad)
		}
	}
}

func TestSLOConfigNormalize(t *testing.T) {
	var cfg SLOConfig
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Epoch != time.Second || cfg.ShortWindow != 10*time.Second || cfg.LongWindow != 60*time.Second {
		t.Errorf("defaults = %+v", cfg)
	}
	bad := SLOConfig{ShortWindow: time.Minute, LongWindow: time.Second}
	if err := bad.normalize(); err == nil {
		t.Error("short > long accepted")
	}
	huge := SLOConfig{Epoch: time.Millisecond, LongWindow: time.Hour}
	if err := huge.normalize(); err == nil {
		t.Error("3.6M-slot ring accepted")
	}
}

// TestSLOBurnRateCrossesOne is the acceptance-criterion integration test:
// a server declaring an unattainable latency objective (p99 ≤ 1ns) is
// driven with real traffic, and GET /v1/slo reports the error-budget burn
// rate crossing 1.0 with the objective marked violated.
func TestSLOBurnRateCrossesOne(t *testing.T) {
	slo, err := ParseSLO("p99=1ns,availability=99.9")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		SLO:      slo,
	})
	for i := 0; i < 30; i++ {
		rec := postExplore(t, s, ExploreRequest{Dataset: "anomaly", Actual: "y", Predicted: "p", Top: 3})
		if rec.Code != 200 {
			t.Fatalf("explore %d = %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /v1/slo = %d", rec.Code)
	}
	var st SLOStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.OK {
		t.Error("overall ok = true with every request over the 1ns objective")
	}
	var explore *EndpointSLO
	for i := range st.Endpoints {
		if st.Endpoints[i].Endpoint == "explore" {
			explore = &st.Endpoints[i]
		}
	}
	if explore == nil {
		t.Fatalf("no explore endpoint in %+v", st.Endpoints)
	}
	if explore.Requests != 30 {
		t.Errorf("windowed explore requests = %d, want 30", explore.Requests)
	}
	var p99, avail *ObjectiveStatus
	for i := range explore.Objectives {
		switch explore.Objectives[i].Name {
		case "p99":
			p99 = &explore.Objectives[i]
		case "availability":
			avail = &explore.Objectives[i]
		}
	}
	if p99 == nil || avail == nil {
		t.Fatalf("objectives = %+v", explore.Objectives)
	}
	// Every request violates 1ns, so the burn is 1/0.01 = 100x budget.
	if p99.OK || p99.BurnLong <= 1 || p99.BurnShort <= 1 {
		t.Errorf("p99 = %+v, want burn rates over 1.0 and ok=false", p99)
	}
	if p99.BudgetRemaining != 0 {
		t.Errorf("p99 budget remaining = %g, want 0", p99.BudgetRemaining)
	}
	if p99.Violations != 30 || p99.Breaches != 30 {
		t.Errorf("p99 violations/breaches = %d/%d, want 30/30", p99.Violations, p99.Breaches)
	}
	// No 5xx was served, so the availability objective holds.
	if !avail.OK || avail.BurnLong != 0 || avail.BudgetRemaining != 1 {
		t.Errorf("availability = %+v, want clean", avail)
	}

	// The text rendering carries the same verdict.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/slo?format=text", nil))
	if rec.Code != 200 || !strings.Contains(rec.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("text variant = %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	body := rec.Body.String()
	if !strings.Contains(body, "slo: VIOLATED") || !strings.Contains(body, "p99") {
		t.Errorf("text rendering:\n%s", body)
	}

	// The windowed families ride on /metrics with endpoint labels.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	metrics := rec.Body.String()
	for _, want := range []string{
		`server_window_requests{endpoint="explore"} 30`,
		`server_window_latency_seconds{endpoint="explore",quantile="0.99"}`,
		`server_slo_burn_rate{endpoint="explore",objective="p99",window="long"}`,
		`server_slo_budget_remaining{endpoint="explore",objective="p99"} 0`,
		"server_slo_breaches_explore_p99 30",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSLOWindowedNotLifetime pins the windowing contract: burn rates and
// violation counts come from the sliding windows, so they decay to zero
// once the violating traffic ages past the long window, while the
// lifetime breach counter keeps the history.
func TestSLOWindowedNotLifetime(t *testing.T) {
	var ns atomic.Int64
	cfg := SLOConfig{
		Latency:     []LatencyObjective{{Quantile: 0.99, Target: 10 * time.Millisecond}},
		ShortWindow: 2 * time.Second,
		LongWindow:  4 * time.Second,
		Epoch:       time.Second,
		now:         func() time.Time { return time.Unix(0, ns.Load()) },
	}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	e := newSLOEngine(cfg, tr)
	for i := 0; i < 20; i++ {
		e.observe("explore", 200, 50*time.Millisecond) // all violate 10ms
	}
	st := e.status()
	p99 := st.Endpoints[0].Objectives[0]
	if st.Endpoints[0].Endpoint != "explore" || p99.BurnLong <= 1 || p99.Violations != 20 {
		t.Fatalf("fresh violations not visible: %+v", st.Endpoints[0])
	}

	// Age the traffic out: advance past the long window entirely.
	ns.Add(int64(10 * time.Second))
	st = e.status()
	ep := st.Endpoints[0]
	p99 = ep.Objectives[0]
	if ep.Requests != 0 || p99.BurnLong != 0 || p99.BurnShort != 0 || p99.Violations != 0 {
		t.Errorf("windowed numbers did not age out: %+v", ep)
	}
	if !p99.OK || p99.BudgetRemaining != 1 {
		t.Errorf("aged-out objective not ok: %+v", p99)
	}
	if p99.Breaches != 20 {
		t.Errorf("lifetime breaches = %d, want 20 (history survives the window)", p99.Breaches)
	}
}

// TestSLOAvailabilityBurn drives 5xx and 429 answers through the engine
// and checks the availability objective burns on 5xx only (shed load is
// back-pressure, not an error) while both windows see the split.
func TestSLOAvailabilityBurn(t *testing.T) {
	cfg := SLOConfig{Availability: 99.0}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	e := newSLOEngine(cfg, obs.New())
	for i := 0; i < 90; i++ {
		e.observe("explore", 200, time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		e.observe("explore", 500, time.Millisecond)
		e.observe("explore", 429, time.Millisecond)
	}
	st := e.status()
	ep := st.Endpoints[0]
	if ep.Requests != 100 || ep.Errors != 5 || ep.Rejected != 5 {
		t.Fatalf("windowed split = %+v", ep)
	}
	avail := ep.Objectives[0]
	// 5% errors against a 1% budget: burning at 5x.
	if avail.Name != "availability" || avail.OK || avail.BurnLong < 4.9 || avail.BurnLong > 5.1 {
		t.Errorf("availability = %+v, want ~5x burn", avail)
	}
}

// TestSLOSlowThresholdAutoDerived checks the flight recorder's slow bar
// follows the tightest latency objective, and is 1s without one.
func TestSLOSlowThresholdAutoDerived(t *testing.T) {
	slo, err := ParseSLO("p99=250ms,p95=2s")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		SLO:      slo,
	})
	if s.requests.threshold != 250*time.Millisecond {
		t.Errorf("auto slow threshold = %v, want 250ms (tightest objective)", s.requests.threshold)
	}
	s = newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	if s.requests.threshold != time.Second {
		t.Errorf("no-SLO auto slow threshold = %v, want 1s", s.requests.threshold)
	}
}

// TestSLOEndpointClassification pins the request-path attribution.
func TestSLOEndpointClassification(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/explore":       "explore",
		"/v1/explore/batch": "explore_batch",
		"/v1/progress":      "progress",
		"/v1/progress/abc":  "progress",
		"/metrics":          "metrics",
		"/v1/slo":           "slo",
		"/healthz":          "other",
		"/v1/datasets":      "other",
	} {
		if got := endpointClass(path); got != want {
			t.Errorf("endpointClass(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestSLONoObjectives checks the windowed surfaces stay live without any
// declared objective: /v1/slo serves quantiles and counts, reports ok,
// and lists no objectives.
func TestSLONoObjectives(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /v1/slo = %d", rec.Code)
	}
	var st SLOStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.OK {
		t.Error("ok = false with no objectives declared")
	}
	for _, ep := range st.Endpoints {
		if len(ep.Objectives) != 0 {
			t.Errorf("endpoint %s grew objectives: %+v", ep.Endpoint, ep.Objectives)
		}
		if ep.Endpoint == "other" && ep.Requests != 1 {
			t.Errorf("healthz not attributed to other: %+v", ep)
		}
	}
}

// TestSLOObservesRecoveredPanic checks the middleware ordering: a
// panicking handler's recovery 500 is what the SLO engine records.
func TestSLOObservesRecoveredPanic(t *testing.T) {
	cfg := SLOConfig{Availability: 99.9}
	s := newTestServer(t, Config{
		Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		SLO:      cfg,
	})
	s.mux.HandleFunc("GET /v1/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/boom", nil))
	if rec.Code != 500 {
		t.Fatalf("panicking handler = %d, want 500", rec.Code)
	}
	st := s.slo.status()
	for _, ep := range st.Endpoints {
		if ep.Endpoint == "other" {
			if ep.Errors != 1 {
				t.Errorf("recovered panic not counted as windowed 5xx: %+v", ep)
			}
			return
		}
	}
	t.Fatal("no other endpoint class")
}
