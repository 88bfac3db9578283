package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// chromeEvents decodes the writer's output for direct inspection.
func chromeEvents(t *testing.T, tr *Trace) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file chromeTraceFile
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	return file.TraceEvents
}

// TestChromeTraceNested checks a serial nested trace collapses onto one
// track with balanced, monotonic B/E events that round-trip the
// validator.
func TestChromeTraceNested(t *testing.T) {
	tr := &Trace{
		ID: "req42",
		Spans: []SpanRecord{
			{ID: 0, Parent: -1, Name: "pipeline", StartNS: 0, DurNS: 1000},
			{ID: 1, Parent: 0, Name: "parse", StartNS: 0, DurNS: 200},
			{ID: 2, Parent: 0, Name: "mine", StartNS: 300, DurNS: 600},
			{ID: 3, Parent: 2, Name: "mine.grow", StartNS: 400, DurNS: 100},
		},
	}
	events := chromeEvents(t, tr)
	tids := map[int]bool{}
	var seq []string
	for _, ev := range events {
		if ev.Ph == "M" {
			if name, _ := ev.Args["name"].(string); !strings.Contains(name, "req42") {
				t.Errorf("process_name metadata lost the request ID: %v", ev.Args)
			}
			continue
		}
		tids[ev.TID] = true
		seq = append(seq, ev.Ph+":"+ev.Name)
	}
	if len(tids) != 1 {
		t.Errorf("serial nested spans spread over %d tracks, want 1", len(tids))
	}
	want := []string{
		"B:pipeline", "B:parse", "E:parse", "B:mine", "B:mine.grow",
		"E:mine.grow", "E:mine", "E:pipeline",
	}
	if len(seq) != len(want) {
		t.Fatalf("event sequence %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("event sequence %v, want %v", seq, want)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateChromeTrace(&buf); err != nil || n != len(events) {
		t.Errorf("validator: n=%d err=%v", n, err)
	}
}

// TestChromeTraceOverlap checks genuinely concurrent (overlapping,
// non-nesting) spans are fanned out across tracks so each track stays
// stack-disciplined, and unfinished spans still close.
func TestChromeTraceOverlap(t *testing.T) {
	tr := &Trace{
		Spans: []SpanRecord{
			{ID: 0, Parent: -1, Name: "w1", StartNS: 0, DurNS: 500},
			{ID: 1, Parent: -1, Name: "w2", StartNS: 100, DurNS: 600}, // overlaps w1, not nested
			{ID: 2, Parent: -1, Name: "w3", StartNS: 600, DurNS: 100}, // fits after w1 on track 1
			{ID: 3, Parent: -1, Name: "open", StartNS: 800, DurNS: 50, Unfinished: true},
		},
	}
	events := chromeEvents(t, tr)
	tidOf := map[string]int{}
	for _, ev := range events {
		if ev.Ph == "B" {
			tidOf[ev.Name] = ev.TID
		}
	}
	if tidOf["w1"] == tidOf["w2"] {
		t.Errorf("overlapping spans share track %d", tidOf["w1"])
	}
	if tidOf["w3"] != tidOf["w1"] {
		t.Errorf("w3 on track %d, want reuse of w1's track %d", tidOf["w3"], tidOf["w1"])
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace(&buf); err != nil {
		t.Errorf("overlapping trace fails validation: %v", err)
	}
}

// TestChromeTraceFromLiveTracer exercises the full path: real spans from
// concurrent goroutines, snapshot, export, validate.
func TestChromeTraceFromLiveTracer(t *testing.T) {
	tr := New()
	root := tr.Start("root")
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			sp := root.Start("worker")
			time.Sleep(time.Millisecond)
			sp.End()
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	root.End()
	var buf bytes.Buffer
	if err := tr.Snapshot().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateChromeTrace(&buf); err != nil {
		t.Errorf("live trace invalid: %v", err)
	} else if n < 2*5 { // 5 spans → 10 B/E events + metadata
		t.Errorf("only %d events", n)
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	for name, payload := range map[string]string{
		"not json":      "nope",
		"empty":         `{"traceEvents": []}`,
		"unbalanced":    `[{"name":"a","ph":"B","ts":1,"pid":1,"tid":1}]`,
		"name mismatch": `[{"name":"a","ph":"B","ts":1,"pid":1,"tid":1},{"name":"b","ph":"E","ts":2,"pid":1,"tid":1}]`,
		"orphan end":    `[{"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]`,
		"backwards ts": `[{"name":"a","ph":"B","ts":5,"pid":1,"tid":1},` +
			`{"name":"a","ph":"E","ts":3,"pid":1,"tid":1}]`,
		"bad phase":    `[{"name":"a","ph":"Q","ts":1,"pid":1,"tid":1}]`,
		"no durations": `[{"name":"process_name","ph":"M","pid":1}]`,
	} {
		if _, err := ValidateChromeTrace(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: validator accepted invalid trace", name)
		}
	}
	// The bare-array form with X events is accepted.
	ok := `[{"name":"a","ph":"X","ts":1,"pid":1,"tid":1}]`
	if n, err := ValidateChromeTrace(strings.NewReader(ok)); err != nil || n != 1 {
		t.Errorf("bare array: n=%d err=%v", n, err)
	}
}

func TestProgressMonotonicAndFinish(t *testing.T) {
	var nilP *Progress
	nilP.Attach(&MiningCounters{})
	nilP.Finish()
	if s := nilP.Snapshot(); s.Done || s.Candidates != 0 {
		t.Errorf("nil progress snapshot = %+v", s)
	}

	p := NewProgress()
	if s := p.Snapshot(); s.Candidates != 0 || s.Level != 0 {
		t.Errorf("unattached snapshot = %+v", s)
	}
	c := &MiningCounters{}
	p.Attach(c)
	var prev int64
	for i := 0; i < 5; i++ {
		c.Candidates.Add(10)
		c.PrunedSupport.Add(2)
		c.PrunedPolarity.Add(1)
		c.Frequent.Add(2)
		c.Level.Store(int64(i + 1))
		s := p.Snapshot()
		if s.Candidates <= prev {
			t.Errorf("candidates not advancing: %d after %d", s.Candidates, prev)
		}
		prev = s.Candidates
		if s.Done {
			t.Error("done before Finish")
		}
	}
	p.Finish()
	s1 := p.Snapshot()
	if !s1.Done || s1.Level != 5 || s1.Candidates != 50 || s1.Pruned != 15 || s1.Frequent != 10 {
		t.Errorf("final snapshot = %+v", s1)
	}
	time.Sleep(2 * time.Millisecond)
	if s2 := p.Snapshot(); s2.ElapsedMS != s1.ElapsedMS {
		t.Errorf("elapsed advanced after Finish: %d -> %d", s1.ElapsedMS, s2.ElapsedMS)
	}
}

func TestRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || len(b) != 16 || a == b {
		t.Errorf("request IDs: %q, %q", a, b)
	}
	ctx := WithRequestID(context.Background(), a)
	if got := RequestIDFrom(ctx); got != a {
		t.Errorf("RequestIDFrom = %q, want %q", got, a)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Errorf("empty context yields %q", got)
	}

	tr := New()
	tr.SetID(a)
	if snap := tr.Snapshot(); snap.ID != a {
		t.Errorf("snapshot ID = %q", snap.ID)
	}
	var buf bytes.Buffer
	if err := tr.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), a) {
		t.Error("trace JSON lost the request ID")
	}
}
