package server

import (
	"io"
	"log/slog"
	"net/http"

	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/wal"
)

// appendReply is the POST /v1/datasets/{name}/rows response body.
type appendReply struct {
	Dataset   string `json:"dataset"`
	Epoch     uint64 `json:"epoch"`
	Rows      int    `json:"rows"`
	TotalRows int    `json:"total_rows"`
}

// handleAppend implements POST /v1/datasets/{name}/rows: append a batch of
// rows to a live dataset, bumping its epoch. The append is atomic — the
// body is parsed and schema-checked in full before any column grows, so a
// rejected batch (parse error, schema mismatch, injected fault) leaves the
// epoch and every snapshot untouched. Explorations in flight keep the
// snapshot they resolved; the next exploration sees the new epoch.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "append").Add(1)
	name := r.PathValue("name")
	logger := obs.RequestLogger(s.logger, requestID(r))
	v, ok := s.tables[name]
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "reading append body: %v", err)
		return
	}
	// The parse failpoint models a batch that dies mid-decode; it must
	// reject the request before any state changes.
	if err := faultinject.Hit(faultinject.SiteAppendParse); err != nil {
		logger.Warn("append rejected", slog.String("dataset", name), slog.String("error", err.Error()))
		s.httpError(w, http.StatusBadRequest, "parsing append body: %v", err)
		return
	}
	batch, err := dataset.ParseBatch(body, v.Fields())
	if err != nil {
		logger.Warn("append rejected", slog.String("dataset", name), slog.String("error", err.Error()))
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Acknowledge-after-durable: the record is buffered into the WAL
	// inside the append's critical section (so log order equals epoch
	// order), then the sync policy is satisfied outside it (so
	// concurrent appends share one group-commit fsync). A WAL failure at
	// either point answers 5xx without acking — replay can reproduce
	// every batch the server ever answered 200 for.
	wlog := s.wals[name]
	var res wal.AppendResult
	var walErr error
	epoch, total, err := v.AppendWith(batch, func(epoch uint64) error {
		if wlog == nil {
			return nil
		}
		res, walErr = wlog.Append(epoch, body)
		return walErr
	})
	if err != nil {
		logger.Warn("append rejected", slog.String("dataset", name), slog.String("error", err.Error()))
		if walErr != nil {
			s.httpError(w, http.StatusInternalServerError, "append not durable: %v", err)
			return
		}
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if wlog != nil {
		if err := wlog.Commit(res.Off); err != nil {
			// The batch is applied in memory but its durability is unknown;
			// refusing the ack keeps the contract (the client must retry, and
			// replay-after-crash may or may not include this epoch — both
			// outcomes are consistent with "never acked").
			logger.Warn("append not durable", slog.String("dataset", name), slog.String("error", err.Error()))
			s.httpError(w, http.StatusInternalServerError, "append not durable: %v", err)
			return
		}
	}
	s.tracer.Counter(obs.CtrServerAppends).Add(1)
	s.tracer.Counter(obs.CtrServerAppendRows).Add(int64(batch.N))
	s.tracer.SetGauge(obs.GaugeServerEpochPrefix+name, float64(epoch))
	s.drift.noteEpoch(name)
	s.sweepRetention(name)
	if res.Rotated {
		s.maybeCompact(name)
	}
	logger.Info("append",
		slog.String("dataset", name),
		slog.Int("rows", batch.N),
		slog.Uint64("epoch", epoch),
		slog.Int("total_rows", total),
	)
	writeJSON(w, http.StatusOK, appendReply{Dataset: name, Epoch: epoch, Rows: batch.N, TotalRows: total})
}

// rediscretizeKS is the per-column quantile-drift gate of incremental
// universe maintenance: when the two-sample Kolmogorov–Smirnov statistic
// between an appended batch and the rows before it exceeds this value,
// the epoch-bump build abandons the cached discretization cutpoints and
// re-discretizes from scratch.
const rediscretizeKS = 0.2

// buildOrAppend is the universe-cache build function for a current-epoch
// miss: when a prior epoch of the same build is still cached and the
// appended rows pass the drift policy, the entry is grown incrementally
// (discretization cutpoints kept, item bitvecs extended by tail words);
// otherwise — large quantile drift, new categorical levels, no prior, or
// a failing incremental build — it is built from scratch.
// The two paths are not interchangeable: an incremental build keeps the
// prior epoch's cutpoints, while a fresh build chooses its own, so the
// reply for an epoch depends on which earlier epoch of the shape the cache
// held when the epoch was first built (request timing, eviction, a
// restart), not on the epoch's rows alone.
func (s *Server) buildOrAppend(e *cacheEntry, p *exploreParams, tracer *obs.Tracer) error {
	key := p.key()
	prior := s.cache.prior(key)
	if prior != nil && canAppend(prior.tab, p.tab) {
		if err := appendEntry(e, p.tab, key, prior); err == nil {
			s.tracer.Counter(obs.CtrServerUniverseIncremental).Add(1)
			return nil
		}
		// A failed incremental build (injected fault, representation edge
		// case) degrades to the full path instead of failing the request.
		// appendEntry assigns the entry's fields only on success, so no
		// partial state leaks into the rebuild.
	}
	if prior != nil {
		s.tracer.Counter(obs.CtrServerUniverseRediscretized).Add(1)
	}
	return buildEntry(e, p.tab, key, tracer)
}

// canAppend decides whether the new snapshot may reuse a prior entry's
// discretization: the old table must be a frozen prefix of the new one
// with unchanged categorical dictionaries (new level names force a
// rebuild — the cached hierarchies carry no items for them), and every
// continuous column's appended batch must sit within rediscretizeKS of
// the rows before it (otherwise the cached cutpoints no longer reflect
// the data's quantile structure).
func canAppend(old, cur *dataset.Table) bool {
	oldN, newN := old.NumRows(), cur.NumRows()
	if newN < oldN {
		return false
	}
	for _, f := range cur.Fields() {
		if !old.HasColumn(f.Name) || old.KindOf(f.Name) != f.Kind {
			return false
		}
		if f.Kind == dataset.Categorical {
			if len(cur.Levels(f.Name)) != len(old.Levels(f.Name)) {
				return false
			}
			continue
		}
		vals := cur.Floats(f.Name)
		if discretize.KSDrift(vals[:oldN], vals[oldN:]) > rediscretizeKS {
			return false
		}
	}
	return true
}
