package server

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/wal"
)

// RecoveryState publishes WAL replay progress while New reconstructs
// datasets — the daemon's loading gate renders it as the /readyz
// recovery body {"state":"recovering","replayed":N,"total":M}. All
// methods are nil-safe and lock-free, so the gate can poll while New
// replays.
type RecoveryState struct {
	replayed atomic.Int64
	total    atomic.Int64
}

// Progress returns how many WAL records have been applied and how many
// the scan found in total (across all datasets).
func (r *RecoveryState) Progress() (replayed, total int64) {
	if r == nil {
		return 0, 0
	}
	return r.replayed.Load(), r.total.Load()
}

func (r *RecoveryState) addTotal(n int64) {
	if r != nil {
		r.total.Add(n)
	}
}

func (r *RecoveryState) noteReplayed() {
	if r != nil {
		r.replayed.Add(1)
	}
}

// walOptions derives one dataset's log options from the server config;
// segment size and flush interval keep the wal package defaults.
func (cfg *Config) walOptions(name string) wal.Options {
	return wal.Options{
		Dir:    filepath.Join(cfg.WALDir, name),
		Sync:   cfg.WALSync,
		Name:   name,
		Tracer: cfg.Tracer,
		Logf: func(format string, args ...any) {
			cfg.Logger.Warn(fmt.Sprintf(format, args...), slog.String("dataset", name))
		},
	}
}

// recoverDataset opens the dataset's write-ahead log and reconstructs
// the versioned table to its exact pre-crash epoch: newest decodable
// snapshot as the base (the as-loaded table when none), then WAL replay
// record by record through the same ParseBatch+apply path HTTP appends
// take, so dictionaries and column bytes come out identical. Replay
// failures past the snapshot keep the recovered prefix — startup never
// refuses over a bad tail. Each replayed append records its epoch's
// mark, so every retained epoch is servable again after the restart.
func recoverDataset(cfg *Config, name string, tab *dataset.Table, rec *RecoveryState) (*dataset.Versioned, *wal.Log, error) {
	w, err := wal.Open(cfg.walOptions(name))
	if err != nil {
		return nil, nil, fmt.Errorf("dataset %q: %w", name, err)
	}
	base, baseEpoch := tab, uint64(1)
	for _, snap := range w.Snapshots() {
		f, err := os.Open(snap.Path)
		if err != nil {
			cfg.Logger.Warn("snapshot unreadable, falling back",
				slog.String("dataset", name), slog.String("path", snap.Path), slog.String("error", err.Error()))
			continue
		}
		t, epoch, derr := dataset.DecodeSnapshot(f)
		f.Close()
		if derr != nil {
			cfg.Logger.Warn("snapshot corrupt, falling back",
				slog.String("dataset", name), slog.String("path", snap.Path), slog.String("error", derr.Error()))
			continue
		}
		base, baseEpoch = t, epoch
		break
	}
	v := dataset.NewVersionedAt(base, baseEpoch)
	v.SetRetain(cfg.EpochRetain)
	info := w.Info()
	rec.addTotal(int64(info.Records))
	if info.Truncated {
		cfg.Logger.Warn("wal tail truncated",
			slog.String("dataset", name), slog.String("at", info.TruncatedAt))
	}
	replayErr := w.Replay(func(r wal.Record) error {
		cur := v.Epoch()
		switch {
		case r.Epoch <= cur:
			// Already covered by the snapshot base; count it as consumed
			// so the progress gate still converges.
			rec.noteReplayed()
			return nil
		case r.Epoch != cur+1:
			return fmt.Errorf("epoch gap: log jumps %d → %d", cur, r.Epoch)
		}
		batch, err := dataset.ParseBatch(r.Payload, v.Fields())
		if err != nil {
			return fmt.Errorf("epoch %d: %w", r.Epoch, err)
		}
		if _, _, err := v.Append(batch); err != nil {
			return fmt.Errorf("epoch %d: %w", r.Epoch, err)
		}
		rec.noteReplayed()
		return nil
	})
	if replayErr != nil {
		// The applied prefix is consistent; serve it rather than refuse
		// to start. Whatever follows the poisoned record is unreachable —
		// the next snapshot/compaction retires it from the log.
		cfg.Logger.Warn("wal replay stopped early, serving recovered prefix",
			slog.String("dataset", name),
			slog.Uint64("epoch", v.Epoch()),
			slog.String("error", replayErr.Error()))
	}
	cfg.Logger.Info("dataset recovered",
		slog.String("dataset", name),
		slog.Uint64("snapshot_epoch", info.SnapshotEpoch),
		slog.Int("wal_records", info.Records),
		slog.Uint64("epoch", v.Epoch()),
		slog.Int("rows", v.NumRows()))
	return v, w, nil
}

// sweepRetention enforces the epoch-retention policy after an append:
// cache entries of the dataset below the oldest epoch its Versioned still
// serves are retired, bounding universe memory under live appends.
func (s *Server) sweepRetention(name string) {
	oldest := s.tables[name].Oldest()
	if n := s.cache.retire(name, oldest-1); n > 0 {
		s.tracer.Counter(obs.CtrServerEpochsRetired).Add(int64(n))
		s.tracer.SetGauge(obs.GaugeServerCachedUniverses, float64(s.cache.len()))
		s.logger.Info("epochs retired",
			slog.String("dataset", name),
			slog.Uint64("through_epoch", oldest-1),
			slog.Int("entries", n))
	}
}

// maybeCompact kicks off background snapshot/compaction for the dataset
// after a segment rotation. At most one compaction per dataset runs at a
// time; overlapping triggers are dropped (the next rotation retries).
func (s *Server) maybeCompact(name string) {
	if !s.compacting[name].CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting[name].Store(false)
		defer func() {
			if r := recover(); r != nil {
				s.tracer.Counter(obs.CtrServerPanics).Add(1)
				s.logger.Error("compaction panic",
					slog.String("dataset", name), slog.String("panic", fmt.Sprint(r)))
			}
		}()
		s.compact(name)
	}()
}

// compact writes a full-table snapshot of the dataset's oldest retained
// epoch and lets the log delete every segment the snapshot covers. The
// records after it stay, so replay after a restart rebuilds every epoch
// still inside the retention window. A failure mid-write (including the
// server.snapshot_write failpoint) discards the staged file; the previous
// snapshot stays authoritative and no segment is touched.
func (s *Server) compact(name string) {
	w := s.wals[name]
	v := s.tables[name]
	if w == nil || v == nil {
		return
	}
	epoch := v.Oldest()
	tab, ok := v.SnapshotAt(epoch)
	if !ok {
		return // an append retired it meanwhile; the next rotation retries
	}
	start := time.Now()
	err := w.WriteSnapshot(epoch, func(out io.Writer) error {
		if err := faultinject.Hit(faultinject.SiteSnapshotWrite); err != nil {
			return err
		}
		return dataset.EncodeSnapshot(out, tab, epoch)
	})
	if err != nil {
		s.logger.Warn("compaction failed, old snapshot stays authoritative",
			slog.String("dataset", name),
			slog.Uint64("epoch", epoch),
			slog.String("error", err.Error()))
		return
	}
	s.logger.Info("compaction",
		slog.String("dataset", name),
		slog.Uint64("snapshot_epoch", epoch),
		slog.Int64("elapsed_ms", time.Since(start).Milliseconds()))
}

// Close releases the server's write-ahead logs (final fsync included).
// Safe on a server without durability; call it when the daemon is done
// serving.
func (s *Server) Close() error {
	var first error
	for _, name := range s.order {
		if w := s.wals[name]; w != nil {
			if err := w.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
