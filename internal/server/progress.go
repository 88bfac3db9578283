package server

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultTraceRing is the capacity of the completed-request ring and of
// the flight recorder: only the most recent explorations keep their
// progress, trace snapshot and flight record queryable, so the
// registry's memory is bounded no matter how many requests the daemon
// serves over its lifetime.
const DefaultTraceRing = 64

// requestState tracks one exploration request for the progress and trace
// endpoints. Progress is written lock-free by the miner; the remaining
// fields are written once, under the registry mutex, when the request
// finishes.
type requestState struct {
	ID      string
	Dataset string
	Started time.Time

	Progress *obs.Progress

	// Status is "running" until finish, then "done", "cancelled" or
	// "error". Trace is the request tracer's snapshot, set at finish.
	Status string
	Trace  *obs.Trace
}

// requestRegistry indexes in-flight and recently completed explorations
// by correlation ID.
type requestRegistry struct {
	mu     sync.Mutex
	cap    int
	active map[string]*requestState
	recent []*requestState // newest last, at most cap entries
}

func newRequestRegistry(cap int) *requestRegistry {
	if cap <= 0 {
		cap = DefaultTraceRing
	}
	return &requestRegistry{cap: cap, active: map[string]*requestState{}}
}

// start registers a running request. A client-supplied ID colliding with
// an active request simply replaces it in the index (last wins); callers
// wanting reliable polling should send unique IDs.
func (g *requestRegistry) start(id, dataset string, prog *obs.Progress) *requestState {
	st := &requestState{
		ID:       id,
		Dataset:  dataset,
		Started:  time.Now(),
		Progress: prog,
		Status:   "running",
	}
	g.mu.Lock()
	g.active[id] = st
	g.mu.Unlock()
	return st
}

// finish moves a request from the active index into the bounded recent
// ring, attaching its final status and trace snapshot.
func (g *requestRegistry) finish(st *requestState, trace *obs.Trace, status string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st.Status = status
	st.Trace = trace
	if g.active[st.ID] == st {
		delete(g.active, st.ID)
	}
	// Drop any older completed entry with the same ID so lookups are
	// unambiguous, then append and trim to capacity.
	for i, old := range g.recent {
		if old.ID == st.ID {
			g.recent = append(g.recent[:i], g.recent[i+1:]...)
			break
		}
	}
	g.recent = append(g.recent, st)
	if len(g.recent) > g.cap {
		g.recent = g.recent[len(g.recent)-g.cap:]
	}
}

// oldestActive returns the start time of the longest-running in-flight
// request, feeding the 429 Retry-After estimate. ok is false when
// nothing is in flight.
func (g *requestRegistry) oldestActive() (oldest time.Time, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, st := range g.active {
		if !ok || st.Started.Before(oldest) {
			oldest, ok = st.Started, true
		}
	}
	return oldest, ok
}

// get returns the state for an ID plus a consistent copy of its Status
// and Trace (the fields finish mutates). Active requests win over
// completed ones.
func (g *requestRegistry) get(id string) (st *requestState, status string, trace *obs.Trace) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if st := g.active[id]; st != nil {
		return st, st.Status, st.Trace
	}
	for i := len(g.recent) - 1; i >= 0; i-- {
		if g.recent[i].ID == id {
			return g.recent[i], g.recent[i].Status, g.recent[i].Trace
		}
	}
	return nil, "", nil
}

// list snapshots every known request: running ones first (oldest first),
// then completed ones, newest first.
func (g *requestRegistry) list() []progressReply {
	g.mu.Lock()
	defer g.mu.Unlock()
	running := make([]*requestState, 0, len(g.active))
	for _, st := range g.active {
		running = append(running, st)
	}
	sort.Slice(running, func(a, b int) bool { return running[a].Started.Before(running[b].Started) })
	out := make([]progressReply, 0, len(running)+len(g.recent))
	for _, st := range running {
		out = append(out, progressReplyOf(st, st.Status))
	}
	for i := len(g.recent) - 1; i >= 0; i-- {
		out = append(out, progressReplyOf(g.recent[i], g.recent[i].Status))
	}
	return out
}

// progressReply is the GET /v1/progress reply element.
type progressReply struct {
	ID       string               `json:"id"`
	Dataset  string               `json:"dataset"`
	Status   string               `json:"status"`
	Progress obs.ProgressSnapshot `json:"progress"`
}

func progressReplyOf(st *requestState, status string) progressReply {
	return progressReply{
		ID:       st.ID,
		Dataset:  st.Dataset,
		Status:   status,
		Progress: st.Progress.Snapshot(),
	}
}

// requestID returns the request's correlation ID: a well-formed
// client-supplied X-Request-ID (letters, digits, '.', '_', '-'; at most
// 64 bytes) is honoured so clients can poll /v1/progress/{id} while the
// exploration runs; anything else gets a generated ID.
func requestID(r *http.Request) string {
	id := strings.TrimSpace(r.Header.Get("X-Request-ID"))
	if id == "" || len(id) > 64 {
		return obs.NewRequestID()
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return obs.NewRequestID()
		}
	}
	return id
}

func (s *Server) handleProgressList(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "progress").Add(1)
	writeJSON(w, http.StatusOK, s.requests.list())
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "progress").Add(1)
	id := r.PathValue("id")
	st, status, _ := s.requests.get(id)
	if st == nil {
		s.httpError(w, http.StatusNotFound, "unknown request %q", id)
		return
	}
	writeJSON(w, http.StatusOK, progressReplyOf(st, status))
}

// handleTrace exports a completed request's trace. The default rendering
// is Chrome/Perfetto trace_event JSON (load it at ui.perfetto.dev or
// chrome://tracing); ?format=json returns the raw span snapshot and
// ?format=tree the human-readable span tree.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "trace").Add(1)
	id := r.PathValue("id")
	st, status, trace := s.requests.get(id)
	if st == nil {
		// Slow requests keep their trace in the flight recorder even after
		// rotating out of the recent-request ring.
		if trace = s.flight.slowTrace(id); trace == nil {
			s.httpError(w, http.StatusNotFound, "unknown request %q", id)
			return
		}
	} else if trace == nil {
		s.httpError(w, http.StatusConflict, "request %q is %s; its trace is available on completion", id, status)
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = trace.WriteChromeTrace(w)
	case "json":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = trace.WriteJSON(w)
	case "tree":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(trace.Tree()))
	default:
		s.httpError(w, http.StatusBadRequest, "unknown trace format %q", r.URL.Query().Get("format"))
	}
}

// handleExplain exports a completed request's cost-attribution profile,
// computed on demand from the same trace snapshot /v1/trace/{id} serves.
// The default rendering is the JSON profile; ?format=text the aligned
// table the CLI's -explain flag prints.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "explain").Add(1)
	id := r.PathValue("id")
	st, status, trace := s.requests.get(id)
	if st == nil {
		if trace = s.flight.slowTrace(id); trace == nil {
			s.httpError(w, http.StatusNotFound, "unknown request %q", id)
			return
		}
	} else if trace == nil {
		s.httpError(w, http.StatusConflict, "request %q is %s; its explain profile is available on completion", id, status)
		return
	}
	ex := obs.NewExplain(trace)
	switch r.URL.Query().Get("format") {
	case "", "json":
		writeJSON(w, http.StatusOK, ex)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(ex.Text()))
	default:
		s.httpError(w, http.StatusBadRequest, "unknown explain format %q", r.URL.Query().Get("format"))
	}
}
