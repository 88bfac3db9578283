package obs

import (
	"strings"
	"testing"
)

// TestWriteOpenMetrics pins the OpenMetrics rendering against the classic
// exposition: counter samples gain the _total suffix, histogram buckets
// with a recorded exemplar carry the `# {request_id="..."} v ts` clause,
// and the classic rendering of the same trace carries neither.
func TestWriteOpenMetrics(t *testing.T) {
	tr := New()
	tr.Counter("fpm.candidates").Add(42)
	tr.SetGauge("server.in_flight", 2)
	h := tr.Histogram("server.request_seconds", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.ObserveExemplar(0.5, "req-abc", 1700000000000000000)
	snap := tr.Snapshot()

	var om strings.Builder
	if err := WriteExposition(&om, snap.Families(), true); err != nil {
		t.Fatal(err)
	}
	out := om.String()
	for _, want := range []string{
		"# TYPE fpm_candidates counter\n",
		"fpm_candidates_total 42\n",
		"server_in_flight 2\n", // gauges keep their bare name
		`server_request_seconds_bucket{le="1"} 2 # {request_id="req-abc"} 0.5 1.7e+09`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics output missing %q:\n%s", want, out)
		}
	}
	// Buckets without an exemplar carry no clause.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, `le="0.1"`) && strings.Contains(line, "#") {
			t.Errorf("exemplar leaked onto an unexemplared bucket: %q", line)
		}
	}

	var classic strings.Builder
	if err := WriteExposition(&classic, snap.Families(), false); err != nil {
		t.Fatal(err)
	}
	cout := classic.String()
	if strings.Contains(cout, "_total") {
		t.Error("classic exposition grew _total suffixes")
	}
	if strings.Contains(cout, "request_id=") {
		t.Error("classic exposition carries exemplars (no syntax for them)")
	}
	if !strings.Contains(cout, "fpm_candidates 42\n") {
		t.Errorf("classic exposition lost the counter:\n%s", cout)
	}
}

// TestExemplarSurvivesAbsorb mirrors the server's lifecycle: the
// per-request tracer's histograms are folded into the lifetime tracer,
// and the exemplar must travel along.
func TestExemplarSurvivesAbsorb(t *testing.T) {
	life := New()
	life.Histogram("server.request_seconds", LatencyBuckets)

	req := New()
	req.Histogram("server.request_seconds", LatencyBuckets).
		ObserveExemplar(0.25, "req-xyz", 1700000000000000000)
	life.Absorb(req.Snapshot())

	var b strings.Builder
	if err := WriteExposition(&b, life.Snapshot().Families(), true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `request_id="req-xyz"`) {
		t.Errorf("exemplar lost across Absorb:\n%s", b.String())
	}
}

func TestObserveExemplarEmptyLabel(t *testing.T) {
	tr := New()
	h := tr.Histogram("h", []float64{1})
	h.ObserveExemplar(0.5, "", 123)
	rec := tr.Snapshot().Histograms["h"]
	if rec.Count != 1 {
		t.Fatalf("observation not recorded: %+v", rec)
	}
	if rec.Exemplars != nil {
		t.Error("empty label produced an exemplar")
	}
	var nilH *Histogram
	nilH.ObserveExemplar(1, "x", 1) // must not panic
}
