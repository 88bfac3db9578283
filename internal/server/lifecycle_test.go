package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	hdiv "repro"
	"repro/internal/faultinject"
	"repro/internal/fpm"
	"repro/internal/obs"
)

// postAppend POSTs a row batch to /v1/datasets/{name}/rows.
func postAppend(t *testing.T, h http.Handler, name, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/datasets/"+name+"/rows", strings.NewReader(body)))
	return rec
}

// quietBatch builds an append body matching anomalyTable's generation
// pattern (x = i%100, alternating correct labels, no anomaly), so the
// appended rows sit inside the dataset's distribution.
func quietBatch(n, offset int) string {
	var rows []string
	for i := 0; i < n; i++ {
		x := (offset + i) % 100
		y := "false"
		if (offset+i)%2 == 0 {
			y = "true"
		}
		rows = append(rows, fmt.Sprintf(`[%d,%q,%q]`, x, y, y))
	}
	return `{"columns":["x","y","p"],"rows":[` + strings.Join(rows, ",") + `]}`
}

// anomalousBatch builds rows concentrated in the x > 80 tail with every
// prediction wrong — appended on top of a clean dataset it creates a
// divergent subgroup that was not there before.
func anomalousBatch(n int) string {
	var rows []string
	for i := 0; i < n; i++ {
		x := 81 + i%19
		y := "false"
		p := "true"
		if i%2 == 0 {
			y, p = p, y
		}
		rows = append(rows, fmt.Sprintf(`[%d,%q,%q]`, x, y, p))
	}
	return `{"columns":["x","y","p"],"rows":[` + strings.Join(rows, ",") + `]}`
}

// lowErrorBatch builds rows in the x < 40 head with every prediction
// wrong: appended onto anomalyTable it splits x's tree at new cuts, adds
// subgroups and moves the t-values of the ones already there.
func lowErrorBatch(n int) string {
	var rows []string
	for i := 0; i < n; i++ {
		y, p := "false", "true"
		if i%2 == 0 {
			y, p = p, y
		}
		rows = append(rows, fmt.Sprintf(`[%d,%q,%q]`, i%40, y, p))
	}
	return `{"columns":["x","y","p"],"rows":[` + strings.Join(rows, ",") + `]}`
}

// cleanTable is anomalyTable without the anomaly: every prediction
// matches the label, so no subgroup diverges at epoch 1.
func cleanTable(t *testing.T) *hdiv.Table {
	t.Helper()
	n := 600
	x := make([]float64, n)
	y := make([]string, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i % 100)
		y[i] = "false"
		if i%2 == 0 {
			y[i] = "true"
		}
	}
	return hdiv.NewTableBuilder().
		AddFloat("x", x).
		AddCategorical("y", y).
		AddCategorical("p", append([]string(nil), y...)).
		MustBuild()
}

// datasetEpoch reads one dataset's epoch and row count from
// GET /v1/datasets.
func datasetEpoch(t *testing.T, h http.Handler, name string) (uint64, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/datasets", nil))
	if rec.Code != 200 {
		t.Fatalf("datasets: %d %s", rec.Code, rec.Body.String())
	}
	var infos []struct {
		Name  string `json:"name"`
		Rows  int    `json:"rows"`
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.Name == name {
			return info.Epoch, info.Rows
		}
	}
	t.Fatalf("dataset %q not in reply", name)
	return 0, 0
}

// TestAppendLifecycleEpochPin walks the live-dataset lifecycle over
// HTTP: an append bumps the epoch and row count, current explorations
// see the new rows, an epoch-pinned exploration replays the pre-append
// reply byte for byte, a future epoch is rejected and an uncached pinned
// epoch is rebuilt from that epoch's rows.
func TestAppendLifecycleEpochPin(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1, Format: "csv"}

	before := postExplore(t, s, req)
	if before.Code != 200 {
		t.Fatalf("epoch-1 explore: %d %s", before.Code, before.Body.String())
	}
	if got := before.Header().Get("X-Dataset-Epoch"); got != "1" {
		t.Errorf("epoch-1 explore: X-Dataset-Epoch %q, want 1", got)
	}

	rec := postAppend(t, s, "anomaly", quietBatch(30, 600))
	if rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	var ap appendReply
	if err := json.Unmarshal(rec.Body.Bytes(), &ap); err != nil {
		t.Fatal(err)
	}
	if ap.Epoch != 2 || ap.Rows != 30 || ap.TotalRows != 630 {
		t.Errorf("append reply = %+v, want epoch 2, 30 rows, 630 total", ap)
	}
	if epoch, rows := datasetEpoch(t, s, "anomaly"); epoch != 2 || rows != 630 {
		t.Errorf("datasets reply: epoch %d rows %d, want 2/630", epoch, rows)
	}

	after := postExplore(t, s, req)
	if after.Code != 200 {
		t.Fatalf("epoch-2 explore: %d %s", after.Code, after.Body.String())
	}
	if got := after.Header().Get("X-Dataset-Epoch"); got != "2" {
		t.Errorf("epoch-2 explore: X-Dataset-Epoch %q, want 2", got)
	}

	// The pinned replay answers from the retained epoch-1 entry,
	// byte-identical to the pre-append reply.
	pinned := req
	pinned.Epoch = 1
	repin := postExplore(t, s, pinned)
	if repin.Code != 200 {
		t.Fatalf("pinned explore: %d %s", repin.Code, repin.Body.String())
	}
	if got := repin.Header().Get("X-Dataset-Epoch"); got != "1" {
		t.Errorf("pinned explore: X-Dataset-Epoch %q, want 1", got)
	}
	if !bytes.Equal(repin.Body.Bytes(), before.Body.Bytes()) {
		t.Errorf("pinned epoch-1 reply differs from the original:\npinned:\n%s\noriginal:\n%s",
			repin.Body.Bytes(), before.Body.Bytes())
	}

	future := req
	future.Epoch = 99
	if rec := postExplore(t, s, future); rec.Code != http.StatusBadRequest {
		t.Errorf("future epoch: status %d, want 400", rec.Code)
	}

	// A pinned epoch whose universe was never built (fpr at epoch 1) is
	// rebuilt on the epoch's rows, equal to a from-scratch build on them.
	uncached := pinned
	uncached.Stat = "fpr"
	rebuilt := postExplore(t, s, uncached)
	if rebuilt.Code != 200 {
		t.Fatalf("uncached pinned epoch: status %d %s, want 200", rebuilt.Code, rebuilt.Body.String())
	}
	fresh := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	uncached.Epoch = 0
	if want := postExplore(t, fresh, uncached); !bytes.Equal(rebuilt.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("uncached pinned epoch differs from a from-scratch build:\npinned:\n%s\nfresh:\n%s",
			rebuilt.Body.Bytes(), want.Body.Bytes())
	}
}

// lifecyclePeriod is the cycle length of lifecycleTable's row pattern.
const lifecyclePeriod = 400

// lifecycleTable builds the equivalence fixture: a continuous column, a
// categorical column with one rare level (sparse enough for a compressed
// container in the universe), an x-tail anomaly, and one missing value
// per cycle. Every column is a pure function of i % lifecyclePeriod.
func lifecycleTable(t *testing.T, n int) *hdiv.Table {
	t.Helper()
	x := make([]float64, n)
	c := make([]string, n)
	y := make([]string, n)
	p := make([]string, n)
	for i := 0; i < n; i++ {
		j := i % lifecyclePeriod
		x[i] = float64(j%128) + float64(j%7)/8
		switch {
		case j%200 == 0:
			c[i] = "rare"
		case j%3 == 0:
			c[i] = "b"
		default:
			c[i] = "a"
		}
		y[i] = "false"
		if j%2 == 0 {
			y[i] = "true"
		}
		p[i] = y[i]
		if x[i] > 100 && j%4 != 0 {
			if p[i] == "true" {
				p[i] = "false"
			} else {
				p[i] = "true"
			}
		}
		// One missing value per cycle exercises the null path through
		// the append JSON without perturbing the distribution.
		if j == 5 {
			x[i] = math.NaN()
		}
	}
	return hdiv.NewTableBuilder().
		AddFloat("x", x).
		AddCategorical("c", c).
		AddCategorical("y", y).
		AddCategorical("p", p).
		MustBuild()
}

// batchFromTable renders rows [lo,hi) of a table as an append body.
func batchFromTable(t *testing.T, tab *hdiv.Table, lo, hi int) string {
	t.Helper()
	type cols struct {
		names []string
		rows  [][]any
	}
	b := cols{rows: make([][]any, hi-lo)}
	for _, f := range tab.Fields() {
		b.names = append(b.names, f.Name)
	}
	for i := lo; i < hi; i++ {
		row := make([]any, 0, len(b.names))
		for _, name := range b.names {
			if tab.KindOf(name) == hdiv.Categorical {
				row = append(row, tab.Levels(name)[tab.Codes(name)[i]])
			} else if v := tab.Floats(name)[i]; math.IsNaN(v) {
				row = append(row, nil)
			} else {
				row = append(row, v)
			}
		}
		b.rows[i-lo] = row
	}
	raw, err := json.Marshal(map[string]any{"columns": b.names, "rows": b.rows})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestAppendEquivalenceRebuild is the lifecycle equivalence property: a
// server that grew its dataset by appending the last rows over HTTP
// answers every exploration byte-identically (ranked CSV and the
// deterministic explain profile) to a server loaded with the full table
// from the start, across worker settings, although the appending
// server built and cached the prefix epoch's universes first. The prefix
// ends mid-cycle, so the prefix and the full table have different
// distributions and the discretizer picks different cutpoints on them.
func TestAppendEquivalenceRebuild(t *testing.T) {
	const n = 8000
	full := lifecycleTable(t, n)
	prefixRows := n - n/10 - lifecyclePeriod/2
	prefix := lifecycleTable(t, n)
	// Rebuild the prefix table from the same generator, truncated: the
	// builder copies its inputs, so slicing the full table's columns is
	// not possible — regenerate and cut instead.
	prefix = prefixTable(t, prefix, prefixRows)

	grown := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "d", Table: prefix}}, MaxInFlight: 8})
	fresh := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "d", Table: full}}, MaxInFlight: 8})

	// Warm the epoch-1 universe, so the cache holds an earlier epoch's
	// entry when the appended epoch builds.
	warm := ExploreRequest{Dataset: "d", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1}
	if rec := postExplore(t, grown, warm); rec.Code != 200 {
		t.Fatalf("warm explore: %d %s", rec.Code, rec.Body.String())
	}
	if rec := postAppend(t, grown, "d", batchFromTable(t, full, prefixRows, n)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}

	for _, workers := range []int{0, 4} {
		name := fmt.Sprintf("w%d", workers)
		req := ExploreRequest{
			Dataset: "d", Stat: "error", Actual: "y", Predicted: "p",
			S: 0.05, ST: 0.1, Format: "csv", Workers: workers,
		}
		g := postExplore(t, grown, req)
		f := postExplore(t, fresh, req)
		if g.Code != 200 || f.Code != 200 {
			t.Fatalf("%s: grown %d, fresh %d", name, g.Code, f.Code)
		}
		if !bytes.Equal(g.Body.Bytes(), f.Body.Bytes()) {
			t.Errorf("%s: appended dataset's CSV differs from from-scratch build:\ngrown:\n%s\nfresh:\n%s",
				name, g.Body.Bytes(), f.Body.Bytes())
		}

		// The deterministic slice of the explain profile (stage tree,
		// candidate/itemset counts, universe stats) must agree too.
		exReq := req
		exReq.Format = ""
		exReq.Explain = true
		ge := deterministicExplain(t, postExplore(t, grown, exReq))
		fe := deterministicExplain(t, postExplore(t, fresh, exReq))
		if !reflect.DeepEqual(ge, fe) {
			gj, _ := json.Marshal(ge)
			fj, _ := json.Marshal(fe)
			t.Errorf("%s: deterministic explain differs:\ngrown: %s\nfresh: %s", name, gj, fj)
		}
	}
}

// prefixTable cuts a generated table down to its first rows rows by
// re-building from the column data.
func prefixTable(t *testing.T, tab *hdiv.Table, rows int) *hdiv.Table {
	t.Helper()
	b := hdiv.NewTableBuilder()
	for _, f := range tab.Fields() {
		if f.Kind == hdiv.Categorical {
			codes := tab.Codes(f.Name)
			levels := tab.Levels(f.Name)
			vals := make([]string, rows)
			for i := 0; i < rows; i++ {
				vals[i] = levels[codes[i]]
			}
			b.AddCategorical(f.Name, vals)
		} else {
			b.AddFloat(f.Name, append([]float64(nil), tab.Floats(f.Name)[:rows]...))
		}
	}
	return b.MustBuild()
}

// deterministicExplain decodes a JSON explore reply's explain profile
// and strips its measured fields.
func deterministicExplain(t *testing.T, rec *httptest.ResponseRecorder) *obs.Explain {
	t.Helper()
	if rec.Code != 200 {
		t.Fatalf("explain explore: %d %s", rec.Code, rec.Body.String())
	}
	var rep struct {
		Explain *obs.Explain `json:"explain"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Explain == nil {
		t.Fatal("reply carries no explain profile")
	}
	return rep.Explain.Deterministic()
}

// TestFaultAppendParseAtomic arms the append parse failpoint and proves
// the append is atomic: the request is rejected 400, the epoch and row
// count are untouched, and the identical batch succeeds once the fault
// clears.
func TestFaultAppendParseAtomic(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	body := quietBatch(20, 600)

	if err := faultinject.Arm(faultinject.SiteAppendParse, "error(injected parse fault)"); err != nil {
		t.Fatal(err)
	}
	rec := postAppend(t, s, "anomaly", body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("faulted append: status %d %s, want 400", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "injected parse fault") {
		t.Errorf("400 body does not name the fault: %q", rec.Body.String())
	}
	if epoch, rows := datasetEpoch(t, s, "anomaly"); epoch != 1 || rows != 600 {
		t.Errorf("rejected append changed state: epoch %d rows %d, want 1/600", epoch, rows)
	}

	// Malformed bodies are equally atomic, fault machinery aside.
	for _, bad := range []string{`{"columns":["x","y","p"],"rows":[[1,"true"]]}`, `not json`} {
		if rec := postAppend(t, s, "anomaly", bad); rec.Code != http.StatusBadRequest {
			t.Errorf("bad body %q: status %d, want 400", bad, rec.Code)
		}
	}
	if epoch, rows := datasetEpoch(t, s, "anomaly"); epoch != 1 || rows != 600 {
		t.Errorf("malformed appends changed state: epoch %d rows %d, want 1/600", epoch, rows)
	}

	faultinject.Reset()
	if rec := postAppend(t, s, "anomaly", body); rec.Code != 200 {
		t.Fatalf("append after reset: %d %s", rec.Code, rec.Body.String())
	}
	if epoch, rows := datasetEpoch(t, s, "anomaly"); epoch != 2 || rows != 620 {
		t.Errorf("append after reset: epoch %d rows %d, want 2/620", epoch, rows)
	}
}

// TestFaultDriftReminePanicContained panics the background drift
// re-mine: the panic must stay inside the monitor goroutine (recorded on
// the watch, counted), the daemon must keep serving, and a later healthy
// epoch bump must re-mine successfully.
func TestFaultDriftReminePanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := newTestServer(t, Config{
		Datasets:      []DatasetConfig{{Name: "clean", Table: cleanTable(t)}},
		DriftT:        2,
		DriftDebounce: time.Millisecond,
	})
	req := ExploreRequest{Dataset: "clean", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1}
	if rec := postExplore(t, s, req); rec.Code != 200 {
		t.Fatalf("baseline explore: %d %s", rec.Code, rec.Body.String())
	}

	if err := faultinject.Arm(faultinject.SiteDriftRemine, "panic(injected remine panic)"); err != nil {
		t.Fatal(err)
	}
	if rec := postAppend(t, s, "clean", quietBatch(30, 600)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}

	reply := awaitDrift(t, s, "clean", func(d driftReply) bool { return d.LastError != "" })
	if !strings.Contains(reply.LastError, "injected remine panic") {
		t.Errorf("drift last_error = %q, want the injected panic", reply.LastError)
	}
	if got := s.tracer.Snapshot().Counter(obs.CtrServerPanics); got < 1 {
		t.Error("remine panic was not counted")
	}
	if rec := postExplore(t, s, req); rec.Code != 200 {
		t.Errorf("daemon stopped serving after remine panic: %d", rec.Code)
	}

	faultinject.Reset()
	if rec := postAppend(t, s, "clean", quietBatch(30, 630)); rec.Code != 200 {
		t.Fatalf("append after reset: %d %s", rec.Code, rec.Body.String())
	}
	reply = awaitDrift(t, s, "clean", func(d driftReply) bool {
		return d.LastError == "" && d.BaselineEpoch == 3
	})
	if reply.BaselineEpoch != 3 {
		t.Errorf("baseline epoch = %d after recovery, want 3", reply.BaselineEpoch)
	}
}

// awaitDrift polls GET /v1/drift/{name} until done(reply) or a deadline.
func awaitDrift(t *testing.T, s *Server, name string, done func(driftReply) bool) driftReply {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last driftReply
	for time.Now().Before(deadline) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/drift/"+name, nil))
		if rec.Code != 200 {
			t.Fatalf("drift: %d %s", rec.Code, rec.Body.String())
		}
		// Decode into a zero value: fields omitted by omitempty (a
		// cleared last_error, say) must not inherit a prior poll's state.
		last = driftReply{}
		if err := json.Unmarshal(rec.Body.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
		if done(last) {
			return last
		}
		time.Sleep(25 * time.Millisecond)
	}
	raw, _ := json.Marshal(last)
	t.Fatalf("drift condition not reached before deadline; last reply: %s", raw)
	return last
}

// TestDriftMonitorDetectsCrossing appends an anomalous batch onto a
// clean dataset and waits for the debounced re-mine to report subgroups
// whose |t| crossed the threshold.
func TestDriftMonitorDetectsCrossing(t *testing.T) {
	s := newTestServer(t, Config{
		Datasets:      []DatasetConfig{{Name: "clean", Table: cleanTable(t)}},
		DriftT:        2,
		DriftDebounce: time.Millisecond,
	})
	req := ExploreRequest{Dataset: "clean", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1}
	if rec := postExplore(t, s, req); rec.Code != 200 {
		t.Fatalf("baseline explore: %d %s", rec.Code, rec.Body.String())
	}
	if d := awaitDrift(t, s, "clean", func(d driftReply) bool { return d.Watching }); d.BaselineEpoch != 1 {
		t.Fatalf("baseline epoch = %d, want 1", d.BaselineEpoch)
	}

	// 150 mispredicted rows concentrated in the x > 80 tail: the tail
	// subgroup's error rate leaps while the global rate stays moderate.
	if rec := postAppend(t, s, "clean", anomalousBatch(150)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}

	reply := awaitDrift(t, s, "clean", func(d driftReply) bool { return len(d.Events) > 0 })
	ev := reply.Events[0]
	if ev.Direction != "crossed_up" {
		t.Errorf("event direction = %q, want crossed_up", ev.Direction)
	}
	if ev.FromEpoch != 1 || ev.ToEpoch != 2 {
		t.Errorf("event epochs = %d -> %d, want 1 -> 2", ev.FromEpoch, ev.ToEpoch)
	}
	if math.Abs(ev.TAfter) < 2 {
		t.Errorf("crossed-up event has |t_after| = %v below the threshold", math.Abs(ev.TAfter))
	}
	if reply.BaselineEpoch != 2 {
		t.Errorf("baseline epoch after remine = %d, want 2", reply.BaselineEpoch)
	}
	if reply.WindowEvents < 1 {
		t.Errorf("window events = %d, want >= 1", reply.WindowEvents)
	}
	snap := s.tracer.Snapshot()
	if snap.Counter(obs.CtrServerDriftRemines) < 1 || snap.Counter(obs.CtrServerDriftEvents) < 1 {
		t.Errorf("drift counters: remines=%d events=%d, want >= 1 each",
			snap.Counter(obs.CtrServerDriftRemines), snap.Counter(obs.CtrServerDriftEvents))
	}
}

// TestDriftRemineDiffsExploredReports pins a re-mine to the reports an
// explore returns: its events equal diffSubgroups over the full reports
// of the watched request explored at the base epoch and at the new one,
// so the baseline mined in the re-mine is the explored report. At t 10
// the fixture gives one crossing each way, one of them from a base
// subgroup's nonzero t.
func TestDriftRemineDiffsExploredReports(t *testing.T) {
	s := newTestServer(t, Config{
		Datasets:      []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		DriftT:        10,
		DriftDebounce: time.Millisecond,
	})
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1}
	explored := func() map[string]subgroupSnap {
		t.Helper()
		rec := postExplore(t, s, req)
		if rec.Code != 200 {
			t.Fatalf("explore: %d %s", rec.Code, rec.Body.String())
		}
		var rep struct {
			Subgroups []struct {
				Itemset                string
				Support, Divergence, T float64
			}
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		out := map[string]subgroupSnap{}
		for _, sg := range rep.Subgroups {
			out[sg.Itemset] = subgroupSnap{Support: sg.Support, Divergence: sg.Divergence, T: sg.T}
		}
		return out
	}
	before := explored()
	if rec := postAppend(t, s, "anomaly", lowErrorBatch(100)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	reply := awaitDrift(t, s, "anomaly", func(d driftReply) bool { return d.BaselineEpoch == 2 })
	// Explored after the re-mine, at the epoch it already moved the base
	// to, so this explore leaves the watch as it is.
	want := diffSubgroups(before, explored(), 10, 1, 2)
	if len(want) < 2 || want[0].Direction == want[len(want)-1].Direction {
		t.Fatalf("fixture gives %d events %+v, want crossings in both directions", len(want), want)
	}
	got := reply.Events
	if len(got) != len(want) {
		t.Fatalf("re-mine events = %+v, want %+v", got, want)
	}
	for i := range got {
		got[i].UnixNano, want[i].UnixNano = 0, 0
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestDriftBudgetTruncatedRemineKeepsBase checks that a re-mine cut short
// by the server's budget does not become the base, where each subgroup
// it misses would read as crossed_down: the first epoch's 2 itemsets fit
// MaxItemsets 3, the appended epoch's do not, so the re-mine reports the
// exhausted dimension, emits no event and keeps the base at epoch 1.
func TestDriftBudgetTruncatedRemineKeepsBase(t *testing.T) {
	s := newTestServer(t, Config{
		Datasets:      []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		DriftT:        2,
		DriftDebounce: time.Millisecond,
		Budget:        fpm.Budget{MaxItemsets: 3},
	})
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1}
	rec := postExplore(t, s, req)
	if rec.Code != 200 || strings.Contains(rec.Body.String(), `"truncated":true`) {
		t.Fatalf("base explore: %d %s, want a complete report", rec.Code, rec.Body.String())
	}
	if rec := postAppend(t, s, "anomaly", lowErrorBatch(100)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	reply := awaitDrift(t, s, "anomaly", func(d driftReply) bool { return d.LastError != "" })
	if !strings.Contains(reply.LastError, fpm.ExhaustedItemsets) || !strings.Contains(reply.LastError, "epoch 2") {
		t.Errorf("last_error = %q, want the truncated epoch 2 and its %q budget", reply.LastError, fpm.ExhaustedItemsets)
	}
	if reply.BaselineEpoch != 1 || len(reply.Events) != 0 || reply.WindowEvents != 0 {
		t.Errorf("truncated re-mine: baseline %d, %d events, %d in window; want 1, 0, 0",
			reply.BaselineEpoch, len(reply.Events), reply.WindowEvents)
	}
}

// TestDiffSubgroupsOrder pins the drift-event order: crossed_up before
// crossed_down, then larger |t_after| first, then the subgroup label;
// a subgroup absent from one side reads as t = 0 there, and subgroups
// that stay on one side of the threshold produce no event.
func TestDiffSubgroupsOrder(t *testing.T) {
	before := map[string]subgroupSnap{
		"a": {T: 1}, "b": {T: 4}, "c": {T: -5}, "d": {T: 0.5},
		"gone": {T: 6}, "stay": {T: 5}, "quiet": {T: 1},
	}
	after := map[string]subgroupSnap{
		"a": {T: 4}, "b": {T: 1}, "c": {T: -0.5}, "d": {T: -4},
		"new": {T: 5}, "stay": {T: 6}, "quiet": {T: 2},
	}
	want := []struct {
		label, dir      string
		tBefore, tAfter float64
	}{
		{"new", "crossed_up", 0, 5},
		{"a", "crossed_up", 1, 4},
		{"d", "crossed_up", 0.5, -4}, // ties a on |t_after|: label decides
		{"b", "crossed_down", 4, 1},
		{"c", "crossed_down", -5, -0.5},
		{"gone", "crossed_down", 6, 0},
	}
	// Map iteration order varies between calls; the result must not.
	for run := 0; run < 20; run++ {
		events := diffSubgroups(before, after, 3, 4, 5)
		if len(events) != len(want) {
			t.Fatalf("run %d: %d events, want %d: %+v", run, len(events), len(want), events)
		}
		for i, w := range want {
			ev := events[i]
			if ev.Subgroup != w.label || ev.Direction != w.dir || ev.TBefore != w.tBefore || ev.TAfter != w.tAfter {
				t.Fatalf("run %d: event %d = %s %s %v -> %v, want %s %s %v -> %v", run, i,
					ev.Subgroup, ev.Direction, ev.TBefore, ev.TAfter, w.label, w.dir, w.tBefore, w.tAfter)
			}
			if ev.FromEpoch != 4 || ev.ToEpoch != 5 {
				t.Fatalf("run %d: event %d epochs = %d -> %d, want 4 -> 5", run, i, ev.FromEpoch, ev.ToEpoch)
			}
		}
	}
}

// TestCacheStaleEviction proves eviction prefers stale-epoch entries
// over the plain LRU tail: with the cache full, an append that outdates
// the most-recently-used entry makes it the victim, and the
// least-recently-used current-epoch entry survives.
func TestCacheStaleEviction(t *testing.T) {
	s := newTestServer(t, Config{
		Datasets: []DatasetConfig{
			{Name: "a", Table: anomalyTable(t)},
			{Name: "b", Table: anomalyTable(t)},
		},
		CacheMax: 2,
	})
	reqA := ExploreRequest{Dataset: "a", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1}
	reqB := ExploreRequest{Dataset: "b", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1}

	// LRU order after these: front = a@1 (most recent), back = b@1.
	if rec := postExplore(t, s, reqB); rec.Code != 200 {
		t.Fatalf("explore b: %d", rec.Code)
	}
	if rec := postExplore(t, s, reqA); rec.Code != 200 {
		t.Fatalf("explore a: %d", rec.Code)
	}

	// The append outdates a@1 — now the MRU entry is the stale one.
	if rec := postAppend(t, s, "a", quietBatch(20, 600)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}

	// Overflowing the cache must evict stale a@1, not LRU-tail b@1.
	reqB2 := reqB
	reqB2.Stat = "fpr"
	if rec := postExplore(t, s, reqB2); rec.Code != 200 {
		t.Fatalf("explore b/fpr: %d", rec.Code)
	}

	snap := s.tracer.Snapshot()
	if got := snap.Counter(obs.CtrServerCacheStaleEvictions); got != 1 {
		t.Errorf("stale evictions = %d, want 1", got)
	}
	hitsBefore := snap.Counter(obs.CtrServerCacheHits)
	if rec := postExplore(t, s, reqB); rec.Code != 200 {
		t.Fatalf("re-explore b: %d", rec.Code)
	}
	if got := s.tracer.Snapshot().Counter(obs.CtrServerCacheHits); got != hitsBefore+1 {
		t.Errorf("b@1 did not survive the stale-preferring eviction (hits %d -> %d)", hitsBefore, got)
	}
}

// TestCachePinnedSurvivesInsertion proves a pinned (stale-epoch) entry
// is never evicted by its own insertion: with the cache full of current
// entries, a pinned explore evicts the LRU tail instead, so an identical
// pinned explore right after it hits the cache.
func TestCachePinnedSurvivesInsertion(t *testing.T) {
	s := newTestServer(t, Config{
		Datasets: []DatasetConfig{
			{Name: "a", Table: anomalyTable(t)},
			{Name: "b", Table: anomalyTable(t)},
		},
		CacheMax: 2,
	})
	reqA := ExploreRequest{Dataset: "a", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1}
	reqB := reqA
	reqB.Dataset = "b"
	if rec := postAppend(t, s, "a", quietBatch(20, 600)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	// These fill the cache with two current entries, b@1 and a@2.
	for _, req := range []ExploreRequest{reqB, reqA} {
		if rec := postExplore(t, s, req); rec.Code != 200 {
			t.Fatalf("explore %s: %d %s", req.Dataset, rec.Code, rec.Body.String())
		}
	}
	pinned := reqA
	pinned.Epoch, pinned.Explain = 1, true
	for i, want := range []bool{false, true} {
		if got := deterministicExplain(t, postExplore(t, s, pinned)).Cache.Hit; got != want {
			t.Errorf("pinned explore %d: cache.hit = %v, want %v", i+1, got, want)
		}
	}
	if got := s.tracer.Snapshot().Counter(obs.CtrServerCacheStaleEvictions); got != 0 {
		t.Errorf("stale evictions = %d, want 0 (the only stale entry is the one just inserted)", got)
	}
}

// TestPinnedEpochWithoutWAL pins the retention contract on a server with
// no write-ahead log and a one-entry cache: an evicted pinned epoch is
// rebuilt, byte-identical to a fresh server whose current epoch holds the
// same rows; an epoch at or below current−EpochRetain answers 410 Gone
// and a future epoch 400.
func TestPinnedEpochWithoutWAL(t *testing.T) {
	s := newTestServer(t, Config{
		Datasets:    []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		CacheMax:    1,
		EpochRetain: 2,
	})
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1, Format: "csv"}
	batches := []string{quietBatch(30, 600), quietBatch(30, 630)}
	for i, b := range batches { // epoch 1 -> 3, exploring each epoch
		if rec := postExplore(t, s, req); rec.Code != 200 {
			t.Fatalf("explore before append %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if rec := postAppend(t, s, "anomaly", b); rec.Code != 200 {
			t.Fatalf("append %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if rec := postExplore(t, s, req); rec.Code != 200 {
		t.Fatalf("epoch-3 explore: %d %s", rec.Code, rec.Body.String())
	}

	// Epoch 2's universe was evicted by epoch 3's.
	pinned := req
	pinned.Epoch = 2
	got := postExplore(t, s, pinned)
	if got.Code != 200 {
		t.Fatalf("evicted pinned epoch 2: %d %s, want 200", got.Code, got.Body.String())
	}
	if h := got.Header().Get("X-Dataset-Epoch"); h != "2" {
		t.Errorf("pinned epoch 2: X-Dataset-Epoch %q, want 2", h)
	}
	fresh := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
	if rec := postAppend(t, fresh, "anomaly", batches[0]); rec.Code != 200 {
		t.Fatalf("fresh append: %d %s", rec.Code, rec.Body.String())
	}
	if want := postExplore(t, fresh, req); !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("pinned epoch 2 differs from a fresh server at epoch 2:\npinned:\n%s\nfresh:\n%s",
			got.Body.Bytes(), want.Body.Bytes())
	}

	gone := req
	gone.Epoch = 1 // 3 − EpochRetain
	if rec := postExplore(t, s, gone); rec.Code != http.StatusGone {
		t.Errorf("pinned epoch 1 (retired): %d %s, want 410", rec.Code, rec.Body.String())
	}
	future := req
	future.Epoch = 4
	if rec := postExplore(t, s, future); rec.Code != http.StatusBadRequest {
		t.Errorf("future epoch 4: %d %s, want 400", rec.Code, rec.Body.String())
	}
}
