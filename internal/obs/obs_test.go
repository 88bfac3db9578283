package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheus checks the exposition format: sanitized names, TYPE
// lines, deterministic order.
func TestWritePrometheus(t *testing.T) {
	tr := New()
	tr.Counter("fpm.candidates").Add(42)
	tr.Counter("server.requests.explore").Add(3)
	tr.SetGauge("server.in_flight", 2)
	var b strings.Builder
	if err := WriteExposition(&b, tr.Snapshot().Families(), false); err != nil {
		t.Fatal(err)
	}
	want := "# HELP fpm_candidates Itemset candidates whose support was evaluated.\n" +
		"# TYPE fpm_candidates counter\n" +
		"fpm_candidates 42\n" +
		"# TYPE server_requests_explore counter\n" +
		"server_requests_explore 3\n" +
		"# HELP server_in_flight Explorations currently running.\n" +
		"# TYPE server_in_flight gauge\n" +
		"server_in_flight 2\n"
	if b.String() != want {
		t.Errorf("WritePrometheus:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestWritePrometheusConformance pins the exposition-format contract:
// dotted/dashed names sanitize to [a-zA-Z0-9_:], output is sorted by
// sanitized name within each family, HELP text is escaped, and names
// that collide after sanitization produce exactly one HELP/TYPE line
// (counters merge by sum; gauges drop all but the first).
func TestWritePrometheusConformance(t *testing.T) {
	MetricHelp["weird_help"] = "line one\nline two with a \\ backslash"
	defer delete(MetricHelp, "weird_help")

	tr := New()
	tr.Counter("a.b-c").Add(1)                        // sanitizes to a_b_c
	tr.Counter("a.b.c").Add(2)                        // collides with a.b-c -> merged sum 3
	tr.Counter("z.last").Add(9)                       // sorts after a_b_c
	tr.SetGauge("a.b.c", 5)                           // collides with the counter family -> dropped
	tr.SetGauge("weird.help", 7)                      // has multi-line HELP registered
	tr.Histogram("z.last", []float64{1}).Observe(0.5) // collides with counter -> dropped

	var b strings.Builder
	if err := WriteExposition(&b, tr.Snapshot().Families(), false); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	want := "# TYPE a_b_c counter\n" +
		"a_b_c 3\n" +
		"# TYPE z_last counter\n" +
		"z_last 9\n" +
		"# HELP weird_help line one\\nline two with a \\\\ backslash\n" +
		"# TYPE weird_help gauge\n" +
		"weird_help 7\n"
	if out != want {
		t.Errorf("conformance output:\n%s\nwant:\n%s", out, want)
	}

	// No duplicate HELP/TYPE lines for any name, ever.
	seen := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") || strings.HasPrefix(line, "# HELP ") {
			key := strings.Join(strings.Fields(line)[:3], " ")
			seen[key]++
			if seen[key] > 1 {
				t.Errorf("duplicate metadata line %q", line)
			}
		}
	}

	// Two snapshots render byte-identically (stable order).
	var b2 strings.Builder
	if err := WriteExposition(&b2, tr.Snapshot().Families(), false); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("WritePrometheus output is not stable across snapshots")
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"fpm.worker_tasks.w0": "fpm_worker_tasks_w0",
		"0bad":                "_bad",
		"a:b-c":               "a:b_c",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	sp := tr.Start("x")
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	child := sp.Start("y")
	if child != nil {
		t.Fatal("nil span returned non-nil child")
	}
	sp.End() // must not panic
	child.End()
	c := tr.Counter("n")
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter holds a value")
	}
	tr.SetGauge("g", 1)
	tr.MaxGauge("g", 2)
	if snap := tr.Snapshot(); snap != nil {
		t.Error("nil tracer snapshot should be nil")
	}
	var snap *Trace
	if snap.Span("x") != nil || snap.Counter("n") != 0 {
		t.Error("nil trace accessors should be empty")
	}
}

func TestSpanTreeAndSnapshot(t *testing.T) {
	tr := New()
	root := tr.Start("pipeline")
	a := root.Start("parse")
	time.Sleep(time.Millisecond)
	a.End()
	b := root.Start("mine")
	bb := b.Start("mine.grow")
	bb.End()
	b.End()
	root.End()
	open := tr.Start("dangling") // left unfinished on purpose
	_ = open

	snap := tr.Snapshot()
	if len(snap.Spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(snap.Spans))
	}
	if snap.Spans[0].Parent != -1 || snap.Spans[1].Parent != 0 || snap.Spans[3].Parent != 2 {
		t.Errorf("bad parent links: %+v", snap.Spans)
	}
	if got := snap.Span("parse"); got == nil || got.Duration() < time.Millisecond {
		t.Errorf("parse span missing or too short: %+v", got)
	}
	if !snap.Span("dangling").Unfinished {
		t.Error("open span not marked unfinished")
	}
	if snap.Span("pipeline").Unfinished {
		t.Error("ended span marked unfinished")
	}

	tree := snap.Tree()
	for _, want := range []string{"pipeline", "  parse", "  mine", "    mine.grow", "(unfinished)"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree rendering missing %q:\n%s", want, tree)
		}
	}
}

func TestSpanDoubleEnd(t *testing.T) {
	tr := New()
	sp := tr.Start("x")
	sp.End()
	d := tr.Snapshot().Span("x").DurNS
	time.Sleep(2 * time.Millisecond)
	sp.End() // second End must not extend the duration
	if got := tr.Snapshot().Span("x").DurNS; got != d {
		t.Errorf("double End changed duration: %d != %d", got, d)
	}
}

func TestCountersAndGauges(t *testing.T) {
	tr := New()
	c := tr.Counter("hits")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if tr.Counter("hits") != c {
		t.Error("Counter must return the same instance per name")
	}
	tr.MaxGauge("depth", 3)
	tr.MaxGauge("depth", 7)
	tr.MaxGauge("depth", 5)
	tr.SetGauge("workers", 4)
	snap := tr.Snapshot()
	if snap.Gauges["depth"] != 7 {
		t.Errorf("MaxGauge = %v, want 7", snap.Gauges["depth"])
	}
	if snap.Counter("hits") != 8000 || snap.Counter("absent") != 0 {
		t.Errorf("snapshot counters wrong: %v", snap.Counters)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New()
	root := tr.Start("root")
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := root.Start("worker")
			tr.Counter("spawned").Add(1)
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	snap := tr.Snapshot()
	if len(snap.Spans) != 17 {
		t.Fatalf("got %d spans, want 17", len(snap.Spans))
	}
	if snap.Counter("spawned") != 16 {
		t.Errorf("spawned = %d", snap.Counter("spawned"))
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	tr := New()
	sp := tr.Start("stage")
	tr.Counter("fpm.candidates").Add(42)
	tr.SetGauge("fpm.workers", 4)
	sp.End()

	var buf bytes.Buffer
	if err := tr.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if back.Span("stage") == nil || back.Counter("fpm.candidates") != 42 || back.Gauges["fpm.workers"] != 4 {
		t.Errorf("round-trip lost data: %+v", back)
	}
}

// BenchmarkDisabledCounter measures the nil-tracer fast path that every
// instrumented hot loop pays.
func BenchmarkDisabledCounter(b *testing.B) {
	var tr *Tracer
	c := tr.Counter("x")
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
