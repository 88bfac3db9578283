package server

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultTraceRing is the capacity of the request log's ring of finished
// requests: only the most recent explorations keep their progress, trace
// snapshot and flight record queryable, so the log's memory is bounded no
// matter how many requests the daemon serves over its lifetime.
const DefaultTraceRing = 64

// slowCaptures is how many slow requests the request log retains,
// competing by latency.
const slowCaptures = 8

// FlightRecord is one request's compact entry in the request log: enough
// to reconstruct what the daemon was serving around an incident without
// retaining full traces. Recorded for every exploration request,
// including rejected ones.
type FlightRecord struct {
	// Seq is the record's position in the log's lifetime sequence
	// (monotonic and gap-free).
	Seq uint64 `json:"seq"`
	// ID is the request's correlation ID; Endpoint the handler that served
	// it ("explore" or "explore_batch").
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	// Dataset and Stat key the exploration; empty when the request was
	// rejected before resolving.
	Dataset string `json:"dataset,omitempty"`
	Stat    string `json:"stat,omitempty"`
	// Status is the request outcome: done, truncated, cancelled, error or
	// rejected (back-pressure or malformed body).
	Status string `json:"status"`
	// LatencyNS is the end-to-end handler latency; UnixNano the completion
	// time.
	LatencyNS int64 `json:"latency_ns"`
	UnixNano  int64 `json:"unix_nano"`
	// Truncated and CacheHit mirror the report flags; Candidates,
	// Itemsets and Subgroups are the top-level explain numbers.
	Truncated  bool  `json:"truncated,omitempty"`
	CacheHit   bool  `json:"cache_hit,omitempty"`
	Candidates int64 `json:"candidates,omitempty"`
	Itemsets   int64 `json:"itemsets,omitempty"`
	Subgroups  int   `json:"subgroups,omitempty"`
}

// SlowCapture retains the full trace and explain profile of one slow
// request, alongside its flight record.
type SlowCapture struct {
	Record  FlightRecord `json:"record"`
	Explain *obs.Explain `json:"explain,omitempty"`

	trace *obs.Trace
}

// requestState is one request in the log. Progress is written lock-free
// by the miner; Record and Trace are written under the log's mutex.
type requestState struct {
	// Record's Status is "running" until finish.
	Record  FlightRecord
	Started time.Time
	// Progress is nil for a rejected request; Trace is set at finish and
	// stays nil for a rejected request.
	Progress *obs.Progress
	Trace    *obs.Trace
}

func (st *requestState) progressReply() progressReply {
	return progressReply{
		ID:       st.Record.ID,
		Dataset:  st.Record.Dataset,
		Status:   st.Record.Status,
		Progress: st.Progress.Snapshot(),
	}
}

// requestLog is the server's one request history, under one mutex: the
// running explorations by correlation ID (feeding /v1/progress and the
// 429 Retry-After estimate), a fixed ring of the most recently finished
// requests, rejected ones included, and the slowest requests' full
// traces, which outlive their ring slots.
type requestLog struct {
	mu       sync.Mutex
	active   map[string]*requestState
	ring     []*requestState // grows to cap(ring), then Seq picks the slot
	recorded uint64          // lifetime finish count: the next Seq

	threshold time.Duration // capture requests at least this slow
	slowCap   int
	slow      []*SlowCapture // sorted by latency descending, at most slowCap
}

// newRequestLog sizes the ring and the slow capture. size must be
// positive.
func newRequestLog(size, keep int, threshold time.Duration) *requestLog {
	return &requestLog{
		active:    map[string]*requestState{},
		ring:      make([]*requestState, 0, size),
		threshold: threshold,
		slowCap:   keep,
	}
}

// start registers an admitted request as running. A client-supplied ID
// colliding with an active request simply replaces it in the index (last
// wins); callers wanting reliable polling should send unique IDs.
func (l *requestLog) start(id, dataset string, prog *obs.Progress) *requestState {
	st := &requestState{
		Record:   FlightRecord{ID: id, Dataset: dataset, Status: "running"},
		Started:  time.Now(),
		Progress: prog,
	}
	l.mu.Lock()
	l.active[id] = st
	l.mu.Unlock()
	return st
}

// finish records a request's outcome. st is what start returned, or nil
// for a request rejected before admission. The record takes the next
// sequence number and the ring slot it names; a request with a trace at
// or over the slow bar also competes, by latency, for the slow captures.
func (l *requestLog) finish(st *requestState, rec FlightRecord, trace *obs.Trace) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st == nil {
		st = &requestState{}
	} else if l.active[st.Record.ID] == st {
		delete(l.active, st.Record.ID)
	}
	rec.Seq = l.recorded
	l.recorded++
	st.Record, st.Trace = rec, trace
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, st)
	} else {
		l.ring[rec.Seq%uint64(cap(l.ring))] = st
	}

	if trace == nil || time.Duration(rec.LatencyNS) < l.threshold ||
		len(l.slow) >= l.slowCap && rec.LatencyNS <= l.slow[len(l.slow)-1].Record.LatencyNS {
		return // not slow, or faster than everything already captured
	}
	l.slow = append(l.slow, &SlowCapture{Record: rec, Explain: obs.NewExplain(trace), trace: trace})
	sort.SliceStable(l.slow, func(a, b int) bool {
		return l.slow[a].Record.LatencyNS > l.slow[b].Record.LatencyNS
	})
	if len(l.slow) > l.slowCap {
		l.slow = l.slow[:l.slowCap]
	}
}

// newestFirst returns the ring's records, newest first. Callers hold l.mu.
func (l *requestLog) newestFirst() []*requestState {
	out := make([]*requestState, len(l.ring))
	for i := range out {
		out[i] = l.ring[(l.recorded-1-uint64(i))%uint64(cap(l.ring))]
	}
	return out
}

// find returns the newest admitted request with this ID: a running one
// wins over finished ones, and rejected requests are never found.
// Callers hold l.mu.
func (l *requestLog) find(id string) *requestState {
	if st := l.active[id]; st != nil {
		return st
	}
	for _, st := range l.newestFirst() {
		if st.Record.ID == id && st.Progress != nil {
			return st
		}
	}
	return nil
}

// progress returns the progress reply for an ID.
func (l *requestLog) progress(id string) (progressReply, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st := l.find(id); st != nil {
		return st.progressReply(), true
	}
	return progressReply{}, false
}

// trace returns an ID's status and trace snapshot (nil while it runs).
// The slow captures answer for slow requests that have rotated out of
// the ring.
func (l *requestLog) trace(id string) (status string, trace *obs.Trace, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st := l.find(id); st != nil {
		return st.Record.Status, st.Trace, true
	}
	for _, c := range l.slow {
		if c.Record.ID == id {
			return c.Record.Status, c.trace, true
		}
	}
	return "", nil, false
}

// list snapshots every admitted request once, under its newest entry:
// running ones first (oldest first), then finished ones, newest first.
func (l *requestLog) list() []progressReply {
	l.mu.Lock()
	defer l.mu.Unlock()
	running := make([]*requestState, 0, len(l.active))
	for _, st := range l.active {
		running = append(running, st)
	}
	sort.Slice(running, func(a, b int) bool { return running[a].Started.Before(running[b].Started) })
	seen := map[string]bool{}
	out := make([]progressReply, 0, len(running)+len(l.ring))
	for _, st := range append(running, l.newestFirst()...) {
		if st.Progress == nil || seen[st.Record.ID] {
			continue
		}
		seen[st.Record.ID] = true
		out = append(out, st.progressReply())
	}
	return out
}

// oldestActive returns the start time of the longest-running in-flight
// request, feeding the 429 Retry-After estimate. ok is false when
// nothing is in flight.
func (l *requestLog) oldestActive() (oldest time.Time, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, st := range l.active {
		if !ok || st.Started.Before(oldest) {
			oldest, ok = st.Started, true
		}
	}
	return oldest, ok
}

// debugRequestsReply is the GET /v1/debug/requests reply.
type debugRequestsReply struct {
	// RingSize is the ring's capacity; Recorded the lifetime request
	// count (so Recorded − len(Recent) requests have rotated out).
	RingSize int    `json:"ring_size"`
	Recorded uint64 `json:"recorded"`
	// SlowThresholdMS is the slow-capture latency bar.
	SlowThresholdMS int64 `json:"slow_threshold_ms"`
	// Recent holds the ring's records, newest first. Slow holds the
	// retained slow captures with their explain profiles, slowest first.
	Recent []FlightRecord `json:"recent"`
	Slow   []*SlowCapture `json:"slow,omitempty"`
}

// dump snapshots the whole log for GET /v1/debug/requests.
func (l *requestLog) dump() debugRequestsReply {
	l.mu.Lock()
	defer l.mu.Unlock()
	reply := debugRequestsReply{
		RingSize:        cap(l.ring),
		Recorded:        l.recorded,
		SlowThresholdMS: l.threshold.Milliseconds(),
		Recent:          make([]FlightRecord, 0, len(l.ring)),
		Slow:            append([]*SlowCapture(nil), l.slow...),
	}
	for _, st := range l.newestFirst() {
		reply.Recent = append(reply.Recent, st.Record)
	}
	return reply
}

// handleDebugRequests dumps the request log: the compact per-request ring
// plus the retained slow captures. This is the "what was the daemon
// doing" incident endpoint — always on, bounded memory, no configuration
// needed.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "debug_requests").Add(1)
	writeJSON(w, http.StatusOK, s.requests.dump())
}
