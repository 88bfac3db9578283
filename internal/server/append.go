package server

import (
	"io"
	"log/slog"
	"net/http"

	"repro/internal/dataset"
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
