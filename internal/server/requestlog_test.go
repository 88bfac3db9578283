package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestFlightRecorderRingWrap drives more records than slots through the
// ring: the snapshot returns the newest records first, lifetime sequence
// numbers survive the wrap, and recorded counts every offer.
func TestFlightRecorderRingWrap(t *testing.T) {
	f := newRequestLog(4, 2, 0)
	for i := 0; i < 10; i++ {
		f.finish(nil, FlightRecord{ID: fmt.Sprintf("req-%d", i), Status: "done"}, nil)
	}
	if got := f.dump().Recorded; got != 10 {
		t.Errorf("recorded = %d, want 10", got)
	}
	recs := f.dump().Recent
	if len(recs) != 4 {
		t.Fatalf("snapshot holds %d records, want the 4 ring slots", len(recs))
	}
	for i, rec := range recs {
		wantSeq := uint64(9 - i) // newest first
		if rec.Seq != wantSeq || rec.ID != fmt.Sprintf("req-%d", wantSeq) {
			t.Errorf("snapshot[%d] = seq %d id %q, want seq %d", i, rec.Seq, rec.ID, wantSeq)
		}
	}
}

// TestFlightRecorderConcurrent hammers the ring from many writers
// while a reader snapshots: every record that comes back stable must be
// internally consistent (its ID matches its sequence number), i.e. no
// torn reads. Run under -race in CI.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := newRequestLog(8, 2, 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.finish(nil, FlightRecord{Status: "done"}, nil)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		for _, rec := range f.dump().Recent {
			if rec.Status != "done" {
				t.Fatalf("torn record: %+v", rec)
			}
		}
	}
	close(stop)
	wg.Wait()
	// A consistency pass with quiesced writers: IDs must match Seqs.
	f2 := newRequestLog(8, 2, 0)
	for i := 0; i < 20; i++ {
		f2.finish(nil, FlightRecord{ID: fmt.Sprintf("req-%d", i)}, nil)
	}
	for _, rec := range f2.dump().Recent {
		if rec.ID != fmt.Sprintf("req-%d", rec.Seq) {
			t.Errorf("record %d carries id %q", rec.Seq, rec.ID)
		}
	}
}

// TestNoteSlowCompetition checks the N-slowest capture: requests under
// the threshold are ignored, the capture keeps only the slowest keep
// entries sorted slowest-first, and the retained trace is recoverable by
// request ID for the explain fallback.
func TestNoteSlowCompetition(t *testing.T) {
	f := newRequestLog(4, 2, 10*time.Millisecond)
	offer := func(id string, lat time.Duration) {
		f.finish(nil, FlightRecord{ID: id, LatencyNS: lat.Nanoseconds()}, &obs.Trace{ID: id})
	}
	offer("fast", 5*time.Millisecond) // below threshold: dropped
	offer("slow-20", 20*time.Millisecond)
	offer("slow-30", 30*time.Millisecond)
	offer("slow-15", 15*time.Millisecond) // competes, loses to 20 and 30

	slow := f.dump().Slow
	if len(slow) != 2 || slow[0].Record.ID != "slow-30" || slow[1].Record.ID != "slow-20" {
		ids := make([]string, len(slow))
		for i, c := range slow {
			ids[i] = c.Record.ID
		}
		t.Fatalf("slow captures = %v, want [slow-30 slow-20]", ids)
	}
	if slow[0].Explain == nil {
		t.Error("slow capture lost its explain profile")
	}
	// slowTrace looks up the slow captures alone: the ring holds every
	// offer, captured or not.
	slowTrace := func(id string) *obs.Trace {
		for _, c := range f.dump().Slow {
			if c.Record.ID == id {
				return c.trace
			}
		}
		return nil
	}
	if tr := slowTrace("slow-20"); tr == nil || tr.ID != "slow-20" {
		t.Errorf("slowTrace(slow-20) = %+v", tr)
	}
	if slowTrace("slow-15") != nil {
		t.Error("evicted capture still resolvable")
	}
	if slowTrace("fast") != nil {
		t.Error("sub-threshold request captured")
	}
}

// TestExploreExplainField checks the explain opt-in on POST /v1/explore:
// the response report carries the profile (with stages, mining counters
// and total time) while the full trace stays server-side.
func TestExploreExplainField(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	rec := postExplore(t, s, ExploreRequest{
		Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", Explain: true,
	})
	if rec.Code != 200 {
		t.Fatalf("explore: %d %s", rec.Code, rec.Body.String())
	}
	var rep struct {
		Explain *obs.Explain    `json:"explain"`
		Trace   json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Trace != nil {
		t.Error("explain response leaked the raw trace")
	}
	if rep.Explain == nil {
		t.Fatal("explain=true produced no explain profile")
	}
	if len(rep.Explain.Stages) == 0 || rep.Explain.TotalNS <= 0 {
		t.Errorf("explain profile empty: %+v", rep.Explain)
	}
	if rep.Explain.Mining.Candidates <= 0 {
		t.Errorf("explain mining counters empty: %+v", rep.Explain.Mining)
	}

	// Without the opt-in the field is absent entirely.
	plain := postExplore(t, s, ExploreRequest{
		Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p",
	})
	if bytes.Contains(plain.Body.Bytes(), []byte(`"explain"`)) {
		t.Error("explain profile present without explain:true")
	}
}

// TestExplainEndpoint checks GET /v1/explain/{id}: JSON by default, the
// aligned text table on ?format=text, 400 on unknown formats and 404 on
// unknown IDs.
func TestExplainEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	const id = "explain-req-1"
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

	jr := get("/v1/explain/" + id)
	if jr.Code != 200 {
		t.Fatalf("explain: %d %s", jr.Code, jr.Body.String())
	}
	var ex obs.Explain
	if err := json.Unmarshal(jr.Body.Bytes(), &ex); err != nil {
		t.Fatalf("explain body is not a profile: %v", err)
	}
	if ex.RequestID != id || len(ex.Stages) == 0 || ex.TotalNS <= 0 {
		t.Errorf("explain profile = %+v", ex)
	}
	var selfSum int64
	for _, st := range ex.Stages {
		selfSum += st.SelfNS
	}
	if selfSum != ex.TotalNS {
		t.Errorf("served profile violates the self-time invariant: %d != %d", selfSum, ex.TotalNS)
	}

	if text := get("/v1/explain/" + id + "?format=text"); text.Code != 200 ||
		!strings.Contains(text.Body.String(), "explain "+id) {
		t.Errorf("text explain: %d %s", text.Code, text.Body.String())
	}
	if bad := get("/v1/explain/" + id + "?format=nope"); bad.Code != 400 {
		t.Errorf("bad format: %d", bad.Code)
	}
	if missing := get("/v1/explain/absent"); missing.Code != 404 {
		t.Errorf("unknown explain id: %d", missing.Code)
	}
}

// TestDebugRequestsEndpoint checks GET /v1/debug/requests end to end:
// every request — including rejected ones — lands in the ring with its
// outcome, and with an aggressive slow threshold the slow captures carry
// explain profiles and keep /v1/explain answering after the request
// rotates out of the trace ring.
func TestDebugRequestsEndpoint(t *testing.T) {
	slo, err := ParseSLO("p99=1ns") // every request is "slow"
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		SLO:      slo,
	})
	// A size-1 ring rotates traces out immediately.
	s.requests = newRequestLog(1, 4, s.requests.threshold)
	const first = "debug-req-1"
	body, _ := json.Marshal(ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/explore", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", first)
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("explore: %d %s", rec.Code, rec.Body.String())
	}
	// A second success rotates the first out of the size-1 trace ring; a
	// malformed request exercises the rejected path.
	if rec := postExplore(t, s, ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"}); rec.Code != 200 {
		t.Fatalf("explore 2: %d %s", rec.Code, rec.Body.String())
	}
	bad := httptest.NewRecorder()
	s.ServeHTTP(bad, httptest.NewRequest("POST", "/v1/explore", strings.NewReader("{not json")))
	if bad.Code != 400 {
		t.Fatalf("malformed explore: %d", bad.Code)
	}

	dr := httptest.NewRecorder()
	s.ServeHTTP(dr, httptest.NewRequest("GET", "/v1/debug/requests", nil))
	if dr.Code != 200 {
		t.Fatalf("debug/requests: %d %s", dr.Code, dr.Body.String())
	}
	var reply debugRequestsReply
	if err := json.Unmarshal(dr.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.RingSize != 1 || reply.Recorded < 3 {
		t.Errorf("ring_size=%d recorded=%d, want 1 and >=3", reply.RingSize, reply.Recorded)
	}
	statuses := map[string]int{}
	for _, r := range append(reply.Recent, flightRecords(reply.Slow)...) {
		statuses[r.Status]++
		if r.LatencyNS <= 0 || r.UnixNano <= 0 {
			t.Errorf("record missing timing: %+v", r)
		}
	}
	if statuses["rejected"] == 0 {
		t.Errorf("rejected request not in the flight record: %v", statuses)
	}
	if statuses["done"] == 0 {
		t.Errorf("completed request not in the flight record: %v", statuses)
	}
	if len(reply.Slow) == 0 {
		t.Fatal("no slow captures despite 1ns threshold")
	}
	for _, c := range reply.Slow {
		if c.Explain == nil || len(c.Explain.Stages) == 0 {
			t.Errorf("slow capture %q has no explain profile", c.Record.ID)
		}
	}

	// The first request's trace left the size-1 ring, but the slow capture
	// still answers for it.
	er := httptest.NewRecorder()
	s.ServeHTTP(er, httptest.NewRequest("GET", "/v1/explain/"+first, nil))
	if er.Code != 200 {
		t.Errorf("explain after rotation: %d %s (slow-capture fallback broken)", er.Code, er.Body.String())
	}
	tr := httptest.NewRecorder()
	s.ServeHTTP(tr, httptest.NewRequest("GET", "/v1/trace/"+first+"?format=json", nil))
	if tr.Code != 200 {
		t.Errorf("trace after rotation: %d (slow-capture fallback broken)", tr.Code)
	}
}

// flightRecords projects the records out of slow captures for shared
// assertions.
func flightRecords(slow []*SlowCapture) []FlightRecord {
	out := make([]FlightRecord, len(slow))
	for i, c := range slow {
		out[i] = c.Record
	}
	return out
}

// TestMetricsOpenMetrics checks content negotiation on /metrics: an
// OpenMetrics Accept header switches the exposition to the suffixed
// counter syntax terminated by # EOF, with the runtime-metrics families
// present in both renderings and exemplars only in the OpenMetrics one.
func TestMetricsOpenMetrics(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	const id = "exemplar-req-1"
	body, _ := json.Marshal(ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/explore", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", id)
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("explore: %d %s", rec.Code, rec.Body.String())
	}

	scrape := func(accept string) (*httptest.ResponseRecorder, string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		s.ServeHTTP(rec, req)
		return rec, rec.Body.String()
	}

	crec, classic := scrape("")
	if got := crec.Header().Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Errorf("classic content type = %q", got)
	}
	if strings.Contains(classic, "# EOF") || strings.Contains(classic, "request_id=") {
		t.Error("classic exposition carries OpenMetrics syntax")
	}

	orec, om := scrape("application/openmetrics-text; version=1.0.0")
	if got := orec.Header().Get("Content-Type"); !strings.Contains(got, "application/openmetrics-text") {
		t.Errorf("openmetrics content type = %q", got)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("OpenMetrics exposition not terminated by # EOF")
	}
	if !strings.Contains(om, "fpm_candidates_total ") {
		t.Error("OpenMetrics counters missing _total suffix")
	}
	if !strings.Contains(om, `request_id="`+id+`"`) {
		t.Error("latency histogram lost the request-ID exemplar")
	}
	for _, family := range []string{"go_mem_heap_objects_bytes", "go_gc_pauses_seconds", "go_goroutines"} {
		for _, body := range []string{classic, om} {
			if !strings.Contains(body, "# TYPE "+family+" ") {
				t.Errorf("runtime family %s missing from a /metrics rendering", family)
			}
		}
	}
}

// TestRequestHistoryOneLog pins the request-history contract across the
// progress, trace, explain and debug endpoints: a reused ID resolves to
// its newest request and is listed once, a rejected request is recorded
// but stays invisible to progress, trace and explain, and every request
// keeps its own flight record with a distinct sequence number.
func TestRequestHistoryOneLog(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	body, _ := json.Marshal(ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p"})
	post := func(id, body string) int {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/explore", strings.NewReader(body))
		req.Header.Set("X-Request-ID", id)
		s.ServeHTTP(rec, req)
		return rec.Code
	}
	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}
	if code := post("dup", string(body)); code != 200 { // cold
		t.Fatalf("first dup explore: %d", code)
	}
	if code := post("dup", string(body)); code != 200 { // warm
		t.Fatalf("second dup explore: %d", code)
	}
	if code := post("bad", "{not json"); code != 400 {
		t.Fatalf("malformed explore: %d", code)
	}

	var list []progressReply
	if err := json.Unmarshal(get("/v1/progress").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	listed := map[string]int{}
	for _, p := range list {
		listed[p.ID]++
	}
	if listed["dup"] != 1 || listed["bad"] != 0 {
		t.Errorf("/v1/progress lists dup %d times and bad %d times, want 1 and 0", listed["dup"], listed["bad"])
	}
	for _, url := range []string{"/v1/progress/bad", "/v1/trace/bad", "/v1/explain/bad"} {
		if code := get(url).Code; code != 404 {
			t.Errorf("GET %s = %d, want 404", url, code)
		}
	}

	tr := get("/v1/trace/dup?format=json")
	if tr.Code != 200 {
		t.Fatalf("trace dup: %d %s", tr.Code, tr.Body.String())
	}
	var trace obs.Trace
	if err := json.Unmarshal(tr.Body.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	if hit := trace.Gauges[obs.GaugeCacheHit]; hit != 1 {
		t.Errorf("trace dup carries %s = %v, want 1 (the warm request's trace)", obs.GaugeCacheHit, hit)
	}

	var reply debugRequestsReply
	if err := json.Unmarshal(get("/v1/debug/requests").Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	dupSeqs := map[uint64]bool{}
	bad := 0
	for _, r := range reply.Recent {
		switch r.ID {
		case "dup":
			dupSeqs[r.Seq] = true
		case "bad":
			bad++
			if r.Status != "rejected" {
				t.Errorf("bad record status = %q, want rejected", r.Status)
			}
		}
	}
	if len(dupSeqs) != 2 || bad != 1 {
		t.Errorf("debug/requests holds %d distinct dup seqs and %d bad records, want 2 and 1", len(dupSeqs), bad)
	}
}
