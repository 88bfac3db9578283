package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one recorded call into a layer.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's origin
	End    time.Duration
	Parent int // index of the enclosing span; -1 for an operation's root
	Op     int // operation id, shared by every span of one operation
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, so untraced and traced replays share code.
// Not safe for concurrent use: traced replays are serial. obs.Tracer is
// not used because its spans cannot take bounds measured elsewhere (the
// mining interval a report's Elapsed gives) and carry no operation id.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(origin time.Time) *recorder { return &recorder{origin: origin} }

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.origin)
}

// add records a span whose bounds were measured elsewhere, such as the
// mining interval a report's Elapsed accounts for.
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.origin), End: end.Sub(r.origin), Parent: parent, Op: op})
	return len(r.spans) - 1
}

// selfTimes returns every span's self time: its duration minus the part
// of it that its children cover. Children may nest or overlap each other;
// their union is subtracted once, and only where it lies inside the
// parent.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := time.Duration(0)
		curLo, curHi := time.Duration(0), time.Duration(-1)
		flush := func() {
			if curHi > curLo {
				covered += curHi - curLo
			}
		}
		for _, c := range ivs {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				flush()
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		flush()
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfMS groups self times by span name, in milliseconds.
func (r *recorder) selfMS() map[string][]float64 {
	out := map[string][]float64{}
	for i, d := range selfTimes(r.spans) {
		out[r.spans[i].Name] = append(out[r.spans[i].Name], ms(d))
	}
	return out
}

// chromeEvent is one Chrome trace-event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans of each recorder as Chrome trace-event
// JSON (open it in Perfetto), one process lane per recorder, named by
// lanes. Events are sorted by start, enclosing spans first, so
// timestamps never go backwards within a lane.
func writeChrome(w io.Writer, lanes []string, recs ...*recorder) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var events []chromeEvent
	for pid, r := range recs {
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", PID: pid + 1,
			Args: map[string]any{"name": lanes[pid]}})
		spans := append([]span(nil), r.spans...)
		idx := make([]int, len(spans))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		for _, i := range idx {
			s := spans[i]
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start),
				PID: pid + 1, TID: 1, Args: map[string]any{"op": s.Op, "span": i, "parent": s.Parent},
			})
		}
	}
	raw, err := json.Marshal(struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{"ms", events})
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}
