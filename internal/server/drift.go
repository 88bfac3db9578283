package server

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/outcome"
)

// driftMonitor watches live datasets for divergence drift: per dataset,
// the last complete exploration's parameters become the watch
// specification and its ranked report the baseline. When an append bumps
// the dataset's epoch, a debounced background re-mine runs the same
// exploration on the new epoch and compares subgroup t-values against the
// baseline; subgroups whose |t| crossed the configured threshold in
// either direction become drift events, served by GET /v1/drift/{name}.
// Event rates also feed a sliding window (obs.Windowed), so the reply can
// answer "how many subgroups crossed t in the trailing hour" without a
// metrics backend.
type driftMonitor struct {
	server   *Server
	t        float64 // |t| crossing threshold; < 0 disables the monitor
	debounce time.Duration
	remines  *obs.Counter
	events   *obs.Counter
	// stateDir, when set, persists each watch (spec, baseline epoch and
	// subgroup snapshots) to stateDir/<name>/drift.json so a restart
	// resumes monitoring where the crash interrupted it.
	stateDir string

	mu      sync.Mutex
	watches map[string]*driftWatch
}

// driftWatch is one dataset's monitoring state. All fields are guarded by
// the monitor's mutex; the re-mine goroutine copies what it needs out
// under the lock and writes results back the same way.
type driftWatch struct {
	params    exploreParams // copy of the last complete exploration
	haveWatch bool
	baseEpoch uint64
	baseline  map[string]subgroupSnap
	events    []DriftEvent
	window    *obs.Windowed // events per trailing hour, minute epochs
	timer     *time.Timer
	remining  bool
	lastError string
}

// subgroupSnap is the per-subgroup state compared across epochs.
type subgroupSnap struct {
	Support    float64
	Divergence float64
	T          float64
}

// DriftEvent records one subgroup whose divergence significance crossed
// the t-threshold between two epochs. A subgroup absent from one epoch's
// frequent set (it fell below support, or newly emerged) participates
// with t = 0 on that side.
type DriftEvent struct {
	Subgroup         string  `json:"subgroup"`
	FromEpoch        uint64  `json:"from_epoch"`
	ToEpoch          uint64  `json:"to_epoch"`
	TBefore          float64 `json:"t_before"`
	TAfter           float64 `json:"t_after"`
	DivergenceBefore float64 `json:"divergence_before"`
	DivergenceAfter  float64 `json:"divergence_after"`
	// Direction is "crossed_up" when |t| rose past the threshold,
	// "crossed_down" when it fell below.
	Direction string `json:"direction"`
	UnixNano  int64  `json:"unix_nano"`
}

// maxDriftEvents bounds the per-dataset event log; older events rotate
// out (the windowed counter keeps aggregate history).
const maxDriftEvents = 64

func newDriftMonitor(s *Server, t float64, debounce time.Duration) *driftMonitor {
	return &driftMonitor{
		server:   s,
		t:        t,
		debounce: debounce,
		remines:  s.tracer.Counter(obs.CtrServerDriftRemines),
		events:   s.tracer.Counter(obs.CtrServerDriftEvents),
		watches:  map[string]*driftWatch{},
	}
}

func (m *driftMonitor) watch(name string) *driftWatch {
	w, ok := m.watches[name]
	if !ok {
		w = &driftWatch{window: obs.NewWindowed(nil, time.Minute, 60, nil)}
		m.watches[name] = w
	}
	return w
}

// noteExplore records a complete current-epoch exploration as the
// dataset's watch specification and drift baseline. Nil-safe on a
// disabled monitor.
func (m *driftMonitor) noteExplore(p *exploreParams, rep *core.Report) {
	if m == nil || m.t < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.watch(p.req.Dataset)
	w.params = *p
	w.params.req.Trace = false
	w.params.req.Explain = false
	w.haveWatch = true
	// Only move the baseline forward: a re-run at the same epoch refreshes
	// it, but an older cached epoch must not rewind an advanced baseline.
	if p.epoch >= w.baseEpoch {
		w.baseEpoch = p.epoch
		w.baseline = snapshotSubgroups(rep)
	}
	m.persistLocked(p.req.Dataset, w)
}

// noteEpoch schedules (or reschedules) the debounced background re-mine
// after an epoch bump. Bursts of appends within the debounce window
// coalesce into one re-mine.
func (m *driftMonitor) noteEpoch(name string) {
	if m == nil || m.t < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.watch(name)
	if !w.haveWatch {
		return // nothing to re-mine until someone explores the dataset
	}
	if w.timer != nil {
		w.timer.Reset(m.debounce)
		return
	}
	w.timer = time.AfterFunc(m.debounce, func() { m.remine(name) })
}

// remine runs the watch exploration against the dataset's current epoch
// and diffs subgroup t-values against the baseline. It runs on the
// debounce timer's goroutine: panics are contained here (recorded on the
// watch, counted as server panics) so a poisoned re-mine can never take
// the daemon down.
func (m *driftMonitor) remine(name string) {
	defer func() {
		if pe := engine.RecoverError(recover()); pe != nil {
			m.server.tracer.Counter(obs.CtrServerPanics).Add(1)
			m.server.logger.Error("drift remine panic",
				slog.String("dataset", name),
				slog.String("panic", fmt.Sprint(pe.Value)),
			)
			m.setError(name, pe.Error())
		}
	}()
	m.mu.Lock()
	w := m.watch(name)
	w.timer = nil
	if !w.haveWatch || w.remining {
		m.mu.Unlock()
		return
	}
	w.remining = true
	p := w.params
	baseEpoch, baseline := w.baseEpoch, w.baseline
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		w.remining = false
		m.mu.Unlock()
	}()

	m.remines.Add(1)
	if err := faultinject.Hit(faultinject.SiteDriftRemine); err != nil {
		m.setError(name, err.Error())
		return
	}

	v, ok := m.server.tables[name]
	if !ok {
		return
	}
	p.tab, p.epoch = v.Snapshot()
	p.pinned = false
	p.req.Epoch = 0
	if p.epoch == baseEpoch {
		return // the bump was superseded by an explore that moved the baseline
	}

	ctx, cancel := context.WithTimeout(context.Background(), m.server.timeout)
	defer cancel()
	entry, _, err := m.server.cache.get(ctx, p.key(), func(e *cacheEntry) error {
		return m.server.buildEntry(e, &p, nil)
	})
	if err != nil {
		m.setError(name, err.Error())
		return
	}
	bundle, err := outcome.NewBundle(entry.out)
	if err != nil {
		m.setError(name, err.Error())
		return
	}
	reps, err := core.ExploreUniverseMultiContext(ctx, entry.uni[p.mode], p.config(entry), bundle)
	if err != nil {
		m.setError(name, err.Error())
		return
	}
	current := snapshotSubgroups(reps[0])
	events := diffSubgroups(baseline, current, m.t, baseEpoch, p.epoch)

	m.mu.Lock()
	w.baseEpoch = p.epoch
	w.baseline = current
	w.lastError = ""
	w.events = append(w.events, events...)
	if len(w.events) > maxDriftEvents {
		w.events = w.events[len(w.events)-maxDriftEvents:]
	}
	w.window.Add(int64(len(events)))
	m.persistLocked(name, w)
	m.mu.Unlock()
	m.events.Add(int64(len(events)))
	if len(events) > 0 {
		m.server.logger.Info("drift detected",
			slog.String("dataset", name),
			slog.Int("events", len(events)),
			slog.Uint64("from_epoch", baseEpoch),
			slog.Uint64("to_epoch", p.epoch),
		)
	}
}

// driftState is the persisted form of one dataset's watch: everything
// needed to resume monitoring after a restart. Events and the sliding
// window are deliberately in-memory only — they describe observations,
// not obligations.
type driftState struct {
	Request   ExploreRequest          `json:"request"`
	BaseEpoch uint64                  `json:"base_epoch"`
	Baseline  map[string]subgroupSnap `json:"baseline"`
}

// statePath is the watch's persistence file, "" when persistence is off.
func (m *driftMonitor) statePath(name string) string {
	if m.stateDir == "" {
		return ""
	}
	return filepath.Join(m.stateDir, name, "drift.json")
}

// persistLocked writes the watch to its state file (atomic tmp+rename;
// best-effort — a failed persist costs a post-restart re-arm, nothing
// more). Caller holds m.mu.
func (m *driftMonitor) persistLocked(name string, w *driftWatch) {
	path := m.statePath(name)
	if path == "" || !w.haveWatch {
		return
	}
	raw, err := json.Marshal(driftState{
		Request:   w.params.req,
		BaseEpoch: w.baseEpoch,
		Baseline:  w.baseline,
	})
	if err != nil {
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		m.server.logger.Warn("drift state persist failed",
			slog.String("dataset", name), slog.String("error", err.Error()))
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		m.server.logger.Warn("drift state persist failed",
			slog.String("dataset", name), slog.String("error", err.Error()))
	}
}

// restore reloads persisted watches after WAL recovery and re-arms the
// debounce timer for any dataset whose replay advanced the epoch past
// the persisted baseline — a crash between an append and its re-mine
// still produces the drift report. Called once from New, before the
// server takes traffic.
func (m *driftMonitor) restore() {
	if m == nil || m.t < 0 || m.stateDir == "" {
		return
	}
	for _, name := range m.server.order {
		path := m.statePath(name)
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // no watch persisted (or unreadable): nothing to resume
		}
		var st driftState
		if err := json.Unmarshal(raw, &st); err != nil {
			m.server.logger.Warn("drift state corrupt, ignoring",
				slog.String("dataset", name), slog.String("error", err.Error()))
			continue
		}
		st.Request.Dataset = name
		st.Request.Epoch = 0
		p, _, err := m.server.resolve(st.Request)
		if err != nil {
			m.server.logger.Warn("drift state no longer resolvable, ignoring",
				slog.String("dataset", name), slog.String("error", err.Error()))
			continue
		}
		m.mu.Lock()
		w := m.watch(name)
		w.params = *p
		w.haveWatch = true
		w.baseEpoch = st.BaseEpoch
		w.baseline = st.Baseline
		m.mu.Unlock()
		cur := m.server.tables[name].Epoch()
		if cur > st.BaseEpoch {
			m.server.logger.Info("drift watch re-armed after replay",
				slog.String("dataset", name),
				slog.Uint64("baseline_epoch", st.BaseEpoch),
				slog.Uint64("epoch", cur))
			m.noteEpoch(name)
		}
	}
}

func (m *driftMonitor) setError(name, msg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.watch(name).lastError = msg
}

// snapshotSubgroups indexes a ranked report by subgroup label.
func snapshotSubgroups(rep *core.Report) map[string]subgroupSnap {
	out := make(map[string]subgroupSnap, len(rep.Subgroups))
	for _, sg := range rep.Subgroups {
		out[sg.Itemset.String()] = subgroupSnap{
			Support:    sg.Support,
			Divergence: sg.Divergence,
			T:          sg.T,
		}
	}
	return out
}

// diffSubgroups returns the subgroups whose |t| crossed the threshold
// between two epoch snapshots, in deterministic order: crossing-up
// first, then larger |t-after|, then the subgroup label.
func diffSubgroups(before, after map[string]subgroupSnap, thresh float64, fromEpoch, toEpoch uint64) []DriftEvent {
	now := time.Now().UnixNano()
	var events []DriftEvent
	seen := map[string]bool{}
	consider := func(label string) {
		if seen[label] {
			return
		}
		seen[label] = true
		b := before[label] // zero value: absent ⇒ t = 0
		a := after[label]
		wasOver := math.Abs(b.T) >= thresh
		isOver := math.Abs(a.T) >= thresh
		if wasOver == isOver {
			return
		}
		dir := "crossed_up"
		if !isOver {
			dir = "crossed_down"
		}
		events = append(events, DriftEvent{
			Subgroup:         label,
			FromEpoch:        fromEpoch,
			ToEpoch:          toEpoch,
			TBefore:          b.T,
			TAfter:           a.T,
			DivergenceBefore: b.Divergence,
			DivergenceAfter:  a.Divergence,
			Direction:        dir,
			UnixNano:         now,
		})
	}
	for label := range after {
		consider(label)
	}
	for label := range before {
		consider(label)
	}
	slices.SortFunc(events, func(a, b DriftEvent) int {
		if a.Direction != b.Direction {
			if a.Direction == "crossed_up" {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(math.Abs(b.TAfter), math.Abs(a.TAfter)); c != 0 {
			return c
		}
		return strings.Compare(a.Subgroup, b.Subgroup)
	})
	return events
}

// driftReply is the GET /v1/drift/{name} response body.
type driftReply struct {
	Dataset       string       `json:"dataset"`
	Epoch         uint64       `json:"epoch"`
	BaselineEpoch uint64       `json:"baseline_epoch"`
	Threshold     float64      `json:"threshold"`
	Watching      bool         `json:"watching"`
	Stat          string       `json:"stat,omitempty"`
	Remining      bool         `json:"remining"`
	LastError     string       `json:"last_error,omitempty"`
	WindowMinutes int          `json:"window_minutes"`
	WindowEvents  int64        `json:"window_events"`
	Events        []DriftEvent `json:"events"`
}

// handleDrift implements GET /v1/drift/{name}: the dataset's drift-watch
// state and the subgroups whose divergence significance crossed the
// t-threshold between epochs. A dataset never explored reports
// watching=false — the monitor needs one complete exploration to learn
// what to watch.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "drift").Add(1)
	name := r.PathValue("name")
	v, ok := s.tables[name]
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	reply := driftReply{
		Dataset:   name,
		Epoch:     v.Epoch(),
		Threshold: s.drift.t,
		Events:    []DriftEvent{},
	}
	s.drift.mu.Lock()
	if dw, ok := s.drift.watches[name]; ok {
		reply.BaselineEpoch = dw.baseEpoch
		reply.Watching = dw.haveWatch
		reply.Stat = dw.params.req.Stat
		reply.Remining = dw.remining
		reply.LastError = dw.lastError
		reply.Events = append(reply.Events, dw.events...)
		reply.WindowEvents = dw.window.CountWindow(0)
		reply.WindowMinutes = dw.window.Epochs()
	}
	s.drift.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}
