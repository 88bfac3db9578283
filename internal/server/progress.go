package server

import (
	"net/http"
	"strings"

	"repro/internal/obs"
)

// progressReply is the GET /v1/progress reply element.
type progressReply struct {
	ID       string               `json:"id"`
	Dataset  string               `json:"dataset"`
	Status   string               `json:"status"`
	Progress obs.ProgressSnapshot `json:"progress"`
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
	reply, ok := s.requests.progress(id)
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown request %q", id)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

// finishedTrace resolves a request's trace for the trace and explain
// endpoints, answering 404 for an unknown ID and 409 while the request
// still runs; what names the artifact in the 409 message. Nil means the
// reply is written.
func (s *Server) finishedTrace(w http.ResponseWriter, id, what string) *obs.Trace {
	status, trace, ok := s.requests.trace(id)
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown request %q", id)
	} else if trace == nil {
		s.httpError(w, http.StatusConflict, "request %q is %s; its %s is available on completion", id, status, what)
	}
	return trace
}

// handleTrace exports a completed request's trace. The default rendering
// is Chrome/Perfetto trace_event JSON (load it at ui.perfetto.dev or
// chrome://tracing); ?format=json returns the raw span snapshot and
// ?format=tree the human-readable span tree.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "trace").Add(1)
	trace := s.finishedTrace(w, r.PathValue("id"), "trace")
	if trace == nil {
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
	trace := s.finishedTrace(w, r.PathValue("id"), "explain profile")
	if trace == nil {
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
