// Package obs is the pipeline-wide observability layer: a Tracer of
// hierarchical spans (wall time) and a registry of named counters and
// gauges. Every stage of the H-DivExplorer pipeline — CSV parsing, tree
// discretization, universe construction, mining, ranking — reports into
// an optional *Tracer, so regressions can be attributed per stage and the
// paper's pruning claims (§V-C) validated by counter instead of by
// stopwatch.
//
// The whole API is nil-safe: a nil *Tracer, *Span or *Counter accepts
// every call as a no-op, so instrumented code needs no "if tracing"
// branches and a disabled pipeline pays only a nil check. All types are
// safe for concurrent use; Counter.Add is a single atomic add, suitable
// for worker goroutines.
//
// A Tracer is consumed by taking a Snapshot, an immutable Trace that
// marshals to JSON (for BENCH_*.json trajectories and -trace-json) and
// renders as an indented span tree (for -trace).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects spans, counters and gauges for one pipeline run. The
// zero value is not useful; construct with New. A nil *Tracer disables
// all collection at near-zero cost.
type Tracer struct {
	mu         sync.Mutex
	id         string
	start      time.Time
	spans      []*Span
	counters   map[string]*Counter
	gauges     map[string]float64
	histograms map[string]*Histogram
}

// New returns an empty tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{
		start:      time.Now(),
		counters:   map[string]*Counter{},
		gauges:     map[string]float64{},
		histograms: map[string]*Histogram{},
	}
}

// Enabled reports whether the tracer is collecting (i.e. non-nil).
func (t *Tracer) Enabled() bool { return t != nil }

// SetID labels the tracer with a correlation (request) ID; snapshots
// carry it so every span of a trace can be tied back to the request that
// produced it. No-op on nil.
func (t *Tracer) SetID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// Absorb folds a finished trace's cumulative metrics into the tracer:
// counter values add, gauges merge by maximum (a lifetime high-water
// view), and histograms with identical bounds merge bin-wise (histograms
// whose bounds differ are absorbed only if the name is new). Spans are
// deliberately not absorbed — they describe one run, and copying them
// would reintroduce the unbounded span growth per-request tracers exist
// to avoid. No-op on a nil tracer or nil trace.
func (t *Tracer) Absorb(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	for name, v := range tr.Counters {
		t.Counter(name).Add(v)
	}
	for name, v := range tr.Gauges {
		t.MaxGauge(name, v)
	}
	for name, rec := range tr.Histograms {
		h := t.Histogram(name, rec.Bounds)
		if len(h.bounds) != len(rec.Bounds) {
			continue
		}
		match := true
		for i, b := range h.bounds {
			if b != rec.Bounds[i] {
				match = false
				break
			}
		}
		if match {
			h.add(rec)
		}
	}
}

// Span is one timed region of the pipeline. Spans form a tree: children
// are started from their parent with Span.Start. A span is finished with
// End, which records the wall time since the span started.
type Span struct {
	t      *Tracer
	id     int
	parent int // -1 for top-level spans
	name   string
	start  time.Time

	mu    sync.Mutex
	dur   time.Duration
	ended bool
}

// newSpan registers a span under the given parent id. Caller holds no
// locks.
func (t *Tracer) newSpan(parent int, name string) *Span {
	s := &Span{t: t, parent: parent, name: name, start: time.Now()}
	t.mu.Lock()
	s.id = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Start opens a top-level span. Returns nil (which is itself usable) on a
// nil tracer.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(-1, name)
}

// Start opens a child span. Nil-safe: a nil span yields a nil child.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.newSpan(s.id, name)
}

// End finishes the span, recording its duration. A second End (and End
// on nil) is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
}

// Tracer returns the tracer that owns the span (nil for a nil span).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.t
}

// Counter is shorthand for s.Tracer().Counter(name).
func (s *Span) Counter(name string) *Counter { return s.Tracer().Counter(name) }

// Counter is a named monotonically adjusted int64, safe for concurrent
// use. A nil *Counter ignores Add and reads as zero.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a usable no-op counter) on a nil tracer. Hot loops should hoist
// the lookup out of the loop and call Add on the result.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counters[name]
	if !ok {
		c = &Counter{}
		t.counters[name] = c
	}
	return c
}

// SetGauge records a point-in-time value under the given name,
// overwriting any previous value. No-op on nil.
func (t *Tracer) SetGauge(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.gauges[name] = v
	t.mu.Unlock()
}

// MaxGauge records v only if it exceeds the current value of the gauge
// (useful for high-water marks such as recursion depth). No-op on nil.
func (t *Tracer) MaxGauge(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if cur, ok := t.gauges[name]; !ok || v > cur {
		t.gauges[name] = v
	}
	t.mu.Unlock()
}

// SpanRecord is the immutable snapshot of one span.
type SpanRecord struct {
	// ID is the span's index in creation order; Parent is the ID of the
	// enclosing span, -1 for top-level spans.
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// StartNS is the span's start offset from tracer creation; DurNS its
	// wall-clock duration. Both in nanoseconds.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// Unfinished marks spans still open when the snapshot was taken;
	// their DurNS is the time elapsed so far.
	Unfinished bool `json:"unfinished,omitempty"`
}

// Duration returns the span's wall time.
func (r *SpanRecord) Duration() time.Duration { return time.Duration(r.DurNS) }

// Trace is an immutable snapshot of a tracer: all spans in creation
// order plus the counter, gauge and histogram registries. It marshals
// directly to the -trace-json format.
type Trace struct {
	// ID is the correlation (request) ID set via Tracer.SetID, empty for
	// untagged traces.
	ID         string                     `json:"request_id,omitempty"`
	Spans      []SpanRecord               `json:"spans"`
	Counters   map[string]int64           `json:"counters,omitempty"`
	Gauges     map[string]float64         `json:"gauges,omitempty"`
	Histograms map[string]HistogramRecord `json:"histograms,omitempty"`
}

// Snapshot captures the tracer's current state. Unfinished spans are
// included with their elapsed-so-far duration and marked Unfinished.
// Returns nil on a nil tracer.
func (t *Tracer) Snapshot() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	counters := make(map[string]int64, len(t.counters))
	for k, c := range t.counters {
		counters[k] = c.Value()
	}
	gauges := make(map[string]float64, len(t.gauges))
	for k, v := range t.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]HistogramRecord, len(t.histograms))
	for k, h := range t.histograms {
		histograms[k] = h.snapshot()
	}
	id := t.id
	start := t.start
	t.mu.Unlock()

	tr := &Trace{ID: id, Counters: counters, Gauges: gauges, Histograms: histograms}
	if len(counters) == 0 {
		tr.Counters = nil
	}
	if len(gauges) == 0 {
		tr.Gauges = nil
	}
	if len(histograms) == 0 {
		tr.Histograms = nil
	}
	tr.Spans = make([]SpanRecord, len(spans))
	for i, s := range spans {
		s.mu.Lock()
		rec := SpanRecord{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			StartNS: s.start.Sub(start).Nanoseconds(),
			DurNS:   s.dur.Nanoseconds(),
		}
		if !s.ended {
			rec.DurNS = time.Since(s.start).Nanoseconds()
			rec.Unfinished = true
		}
		s.mu.Unlock()
		tr.Spans[i] = rec
	}
	return tr
}

// Span returns the first span record with the given name, or nil.
func (tr *Trace) Span(name string) *SpanRecord {
	if tr == nil {
		return nil
	}
	for i := range tr.Spans {
		if tr.Spans[i].Name == name {
			return &tr.Spans[i]
		}
	}
	return nil
}

// Counter returns the value of a named counter (0 if absent or nil).
func (tr *Trace) Counter(name string) int64 {
	if tr == nil {
		return 0
	}
	return tr.Counters[name]
}

// WriteJSON writes the trace as indented JSON followed by a newline.
func (tr *Trace) WriteJSON(w io.Writer) error {
	raw, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// ReadJSON parses a trace snapshot previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Tree renders the spans as an indented tree with their durations,
// followed by sorted counters and gauges — the -trace human-readable
// report.
func (tr *Trace) Tree() string {
	var b strings.Builder
	children := map[int][]int{}
	for i := range tr.Spans {
		children[tr.Spans[i].Parent] = append(children[tr.Spans[i].Parent], i)
	}
	var walk func(id, depth int)
	walk = func(id, depth int) {
		s := &tr.Spans[id]
		mark := ""
		if s.Unfinished {
			mark = " (unfinished)"
		}
		fmt.Fprintf(&b, "%-44s %10s%s\n",
			strings.Repeat("  ", depth)+s.Name, fmtDuration(s.Duration()), mark)
		for _, c := range children[id] {
			walk(c, depth+1)
		}
	}
	for _, id := range children[-1] {
		walk(id, 0)
	}
	if len(tr.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, k := range sortedKeys(tr.Counters) {
			fmt.Fprintf(&b, "  %-42s %12d\n", k, tr.Counters[k])
		}
	}
	if len(tr.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, k := range sortedKeys(tr.Gauges) {
			fmt.Fprintf(&b, "  %-42s %12g\n", k, tr.Gauges[k])
		}
	}
	if len(tr.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, k := range sortedKeys(tr.Histograms) {
			h := tr.Histograms[k]
			fmt.Fprintf(&b, "  %-42s n=%d sum=%g p50=%g p99=%g\n",
				k, h.Count, h.Sum, h.Quantile(0.50), h.Quantile(0.99))
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
