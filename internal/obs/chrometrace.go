package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// chromeEvent is one Chrome/Perfetto trace_event object. Only the fields
// the viewers read are emitted: name, phase, timestamp (microseconds),
// process/thread lane and free-form args.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTraceFile is the JSON-object trace container Perfetto and
// chrome://tracing both load.
type chromeTraceFile struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace renders the trace's spans as Chrome trace_event JSON
// (the `{"traceEvents": [...]}` form), loadable in Perfetto or
// chrome://tracing. Every span becomes a balanced B/E duration pair.
// Chrome requires events on one thread lane to nest like a call stack,
// but spans from concurrent goroutines may overlap arbitrarily, so spans
// are assigned greedily to the lowest "track" (tid) on which they nest
// properly; serial pipelines collapse to a single track. Events are
// globally sorted by timestamp, and unfinished spans close at their
// snapshot-elapsed time, so the output always validates as balanced and
// monotonic (see ValidateChromeTrace).
func (tr *Trace) WriteChromeTrace(w io.Writer) error {
	type spanIv struct {
		rec   *SpanRecord
		start int64
		end   int64
	}
	ivs := make([]spanIv, len(tr.Spans))
	for i := range tr.Spans {
		r := &tr.Spans[i]
		end := r.StartNS + r.DurNS
		if end < r.StartNS { // defensive: negative durations clamp to zero
			end = r.StartNS
		}
		ivs[i] = spanIv{rec: r, start: r.StartNS, end: end}
	}
	sort.SliceStable(ivs, func(a, b int) bool {
		if ivs[a].start != ivs[b].start {
			return ivs[a].start < ivs[b].start
		}
		if ivs[a].end != ivs[b].end {
			return ivs[a].end > ivs[b].end // enclosing spans first
		}
		return ivs[a].rec.ID < ivs[b].rec.ID
	})

	// Greedy track assignment: each track keeps a stack of open span end
	// times; a span joins the first track where, after closing everything
	// that ended before it starts, it either opens fresh or nests inside
	// the currently open span.
	type track struct {
		stack []int64  // open span end times, outermost first
		spans []spanIv // assignment, in start order
	}
	var tracks []*track
	for _, iv := range ivs {
		placed := false
		for _, t := range tracks {
			for len(t.stack) > 0 && t.stack[len(t.stack)-1] <= iv.start {
				t.stack = t.stack[:len(t.stack)-1]
			}
			if len(t.stack) == 0 || t.stack[len(t.stack)-1] >= iv.end {
				t.stack = append(t.stack, iv.end)
				t.spans = append(t.spans, iv)
				placed = true
				break
			}
		}
		if !placed {
			tracks = append(tracks, &track{stack: []int64{iv.end}, spans: []spanIv{iv}})
		}
	}

	// Per track, unroll the assignment into a balanced B/E sequence, then
	// merge all tracks with a stable sort by timestamp: each track's
	// sequence is non-decreasing in ts, so stability preserves its
	// internal B/E discipline while interleaving tracks.
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var events []chromeEvent
	for ti, t := range tracks {
		type open struct {
			name string
			end  int64
		}
		var stack []open
		pop := func(upTo int64) {
			for len(stack) > 0 && stack[len(stack)-1].end <= upTo {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				events = append(events, chromeEvent{
					Name: top.name, Ph: "E", TS: us(top.end), PID: 1, TID: ti + 1,
				})
			}
		}
		for _, iv := range t.spans {
			pop(iv.start)
			args := map[string]any{"span_id": iv.rec.ID}
			if iv.rec.Unfinished {
				args["unfinished"] = true
			}
			events = append(events, chromeEvent{
				Name: iv.rec.Name, Ph: "B", TS: us(iv.start), PID: 1, TID: ti + 1, Args: args,
			})
			stack = append(stack, open{name: iv.rec.Name, end: iv.end})
		}
		pop(math.MaxInt64) // flush everything still open
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].TS < events[b].TS })

	out := chromeTraceFile{DisplayTimeUnit: "ms"}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": processName(tr)},
	})
	out.TraceEvents = append(out.TraceEvents, events...)
	raw, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// processName labels the trace's process lane with the request ID when
// the trace carries one.
func processName(tr *Trace) string {
	if tr.ID != "" {
		return "hdivexplorer request " + tr.ID
	}
	return "hdivexplorer"
}

// ValidateChromeTrace structurally checks Chrome trace_event JSON the way
// cmd/checktrace does: the stream must decode (either the traceEvents
// object form or a bare event array), non-metadata timestamps must be
// monotonically non-decreasing in file order, and every thread lane's
// B/E events must balance with matching names, LIFO-style. Returns the
// number of events checked.
func ValidateChromeTrace(r io.Reader) (int, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	var file chromeTraceFile
	if err := json.Unmarshal(raw, &file); err != nil {
		var arr []chromeEvent
		if err2 := json.Unmarshal(raw, &arr); err2 != nil {
			return 0, fmt.Errorf("chrome trace does not parse: %w", err)
		}
		file.TraceEvents = arr
	}
	if len(file.TraceEvents) == 0 {
		return 0, fmt.Errorf("chrome trace has no events")
	}
	type lane struct{ pid, tid int }
	stacks := map[lane][]string{}
	lastTS := map[lane]float64{}
	durations := 0
	for i, ev := range file.TraceEvents {
		l := lane{ev.PID, ev.TID}
		switch ev.Ph {
		case "M": // metadata carries no timeline position
			continue
		case "B":
			stacks[l] = append(stacks[l], ev.Name)
			durations++
		case "E":
			st := stacks[l]
			if len(st) == 0 {
				return 0, fmt.Errorf("event %d: E %q on pid=%d tid=%d with no open B", i, ev.Name, ev.PID, ev.TID)
			}
			if top := st[len(st)-1]; top != ev.Name {
				return 0, fmt.Errorf("event %d: E %q does not match open B %q", i, ev.Name, top)
			}
			stacks[l] = st[:len(st)-1]
		case "X":
			durations++
		default:
			return 0, fmt.Errorf("event %d: unsupported phase %q", i, ev.Ph)
		}
		if prev, seen := lastTS[l]; seen && ev.TS < prev {
			return 0, fmt.Errorf("event %d: timestamp %g goes backwards (prev %g) on pid=%d tid=%d", i, ev.TS, prev, ev.PID, ev.TID)
		}
		lastTS[l] = ev.TS
	}
	for l, st := range stacks {
		if len(st) > 0 {
			return 0, fmt.Errorf("pid=%d tid=%d: %d unbalanced B events (first open: %q)", l.pid, l.tid, len(st), st[0])
		}
	}
	if durations == 0 {
		return 0, fmt.Errorf("chrome trace has no duration events")
	}
	return len(file.TraceEvents), nil
}
