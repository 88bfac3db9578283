package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/engine"
	"repro/internal/fpm"
	"repro/internal/obs"
	"repro/internal/wal"
)

// DatasetConfig names one dataset served by the server. Exactly one of
// Path and Table must be set: Path is a headed CSV file loaded at
// startup; Table supplies an already-built table (used by tests and
// embedders).
type DatasetConfig struct {
	// Name is the identifier requests use to select the dataset.
	Name string
	// Path is the CSV file to load (column kinds are inferred).
	Path string
	// Table, when non-nil, is served directly instead of loading Path.
	Table *dataset.Table
}

// Config parameterizes New.
type Config struct {
	// Datasets lists the datasets to load and serve. At least one is
	// required.
	Datasets []DatasetConfig
	// MaxInFlight caps concurrent explorations; requests beyond the cap
	// receive 429 immediately. Defaults to runtime.GOMAXPROCS(0).
	MaxInFlight int
	// RequestTimeout bounds each exploration's wall time (504 on expiry).
	// A request may shorten it via timeout_ms but never extend it.
	// Defaults to 30s.
	RequestTimeout time.Duration
	// CacheMax bounds the universe cache: beyond this many
	// (dataset, statistic, criterion, st) entries, the least-recently-used
	// one is evicted. 0 defaults to 32; negative disables the bound.
	CacheMax int
	// Budget is the default resource budget applied to every exploration:
	// on exhaustion the request is answered 200 with a ranked report
	// flagged "truncated" instead of running away with the machine.
	// Requests may tighten individual dimensions via the body's budget
	// object but never loosen them. The zero value is unlimited.
	Budget fpm.Budget
	// SLO declares the server's service-level objectives and measurement
	// windows (see SLOConfig and ParseSLO). The windowed latency/error
	// tracking behind GET /v1/slo and the server_window_* metric families
	// runs whether or not objectives are declared. The tightest latency
	// target is also the request log's slow-capture bar (1s when no
	// latency objective is declared), so every objective-violating
	// request keeps its full trace and explain profile.
	SLO SLOConfig
	// DriftT is the Welch t-value threshold of the divergence-drift
	// monitor: a subgroup whose |t| crosses this value between epochs is
	// reported by GET /v1/drift/{name}. 0 defaults to 3 (the paper's
	// significance convention); negative disables the monitor.
	DriftT float64
	// DriftDebounce delays the monitor's background re-mine after an
	// epoch bump, coalescing append bursts into one re-mine. 0 defaults
	// to 2s.
	DriftDebounce time.Duration
	// WALDir enables the durable dataset lifecycle: each dataset keeps a
	// write-ahead log (and its snapshots) under WALDir/<name>/. Appends
	// are acknowledged only after the record satisfies WALSync, and New
	// replays the log so a restart resumes at the exact pre-crash epoch.
	// Empty disables durability: appends live only in memory.
	WALDir string
	// WALSync is the append durability policy (see wal.SyncPolicy). The
	// zero value is wal.SyncAlways. Segment size and the wal.SyncInterval
	// flush period are the wal package defaults (4 MiB, 50ms).
	WALSync wal.SyncPolicy
	// EpochRetain bounds how many recent epochs of a dataset, the
	// current one included, stay servable as "epoch": e pins, with or
	// without a WAL: once the dataset reaches epoch E, pins at or below
	// E−EpochRetain answer 410 Gone, their cache entries are retired, and
	// log compaction keeps every epoch above that floor. 0 or negative
	// defaults to 8.
	EpochRetain int
	// Recovery, when non-nil, receives WAL replay progress while New
	// runs — the daemon surfaces it on /readyz during startup.
	Recovery *RecoveryState
	// Tracer accumulates the server.* lifetime counters, gauges and
	// histograms rendered by GET /metrics. Each exploration runs on its
	// own per-request tracer whose counters are folded in here on
	// completion, so the lifetime tracer never accumulates spans. New
	// creates one when nil.
	Tracer *obs.Tracer
	// Logger receives one structured line per exploration request,
	// carrying the request's correlation ID. Nil discards logs.
	Logger *slog.Logger
}

// Server is the exploration service. It implements http.Handler; mount
// it directly on an http.Server. All fields are internal — construct
// with New.
type Server struct {
	mux        *http.ServeMux
	tracer     *obs.Tracer
	logger     *slog.Logger
	requests   *requestLog
	slo        *sloEngine
	hLatency   *obs.Histogram
	tables     map[string]*dataset.Versioned
	order      []string                // dataset names in registration order
	wals       map[string]*wal.Log     // nil values when WALDir is unset
	compacting map[string]*atomic.Bool // per-dataset compaction latch
	cache      *universeCache
	drift      *driftMonitor
	sem        chan struct{}
	timeout    time.Duration
	budget     fpm.Budget
	inFlight   atomic.Int64
	draining   atomic.Bool
}

// New loads every configured dataset and returns the ready-to-serve
// handler. Dataset loading errors (missing file, duplicate name) fail
// construction; nothing is served until every dataset parsed.
func New(cfg Config) (*Server, error) {
	if len(cfg.Datasets) == 0 {
		return nil, fmt.Errorf("server: no datasets configured")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.CacheMax == 0 {
		cfg.CacheMax = 32
	}
	if err := cfg.SLO.normalize(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.New()
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.DriftT == 0 {
		cfg.DriftT = 3
	}
	if cfg.DriftDebounce <= 0 {
		cfg.DriftDebounce = 2 * time.Second
	}
	if err := cfg.Budget.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		mux:      http.NewServeMux(),
		tracer:   cfg.Tracer,
		logger:   cfg.Logger,
		requests: newRequestLog(DefaultTraceRing, slowCaptures, cfg.SLO.slowCaptureThreshold()),
		hLatency: cfg.Tracer.Histogram(obs.HistRequestSeconds, obs.LatencyBuckets),
		tables:   map[string]*dataset.Versioned{},
		cache: newUniverseCache(cfg.CacheMax,
			cfg.Tracer.Counter(obs.CtrServerCacheEvictions),
			cfg.Tracer.Counter(obs.CtrServerCacheStaleEvictions)),
		sem:        make(chan struct{}, cfg.MaxInFlight),
		timeout:    cfg.RequestTimeout,
		budget:     cfg.Budget,
		wals:       map[string]*wal.Log{},
		compacting: map[string]*atomic.Bool{},
	}
	s.slo = newSLOEngine(cfg.SLO, cfg.Tracer)
	for _, d := range cfg.Datasets {
		if d.Name == "" {
			return nil, fmt.Errorf("server: dataset with empty name")
		}
		if _, dup := s.tables[d.Name]; dup {
			return nil, fmt.Errorf("server: duplicate dataset %q", d.Name)
		}
		tab := d.Table
		if tab == nil {
			var err error
			tab, err = dataset.ReadCSVFile(d.Path, dataset.CSVOptions{})
			if err != nil {
				return nil, fmt.Errorf("server: dataset %q: %w", d.Name, err)
			}
		}
		if cfg.WALDir != "" {
			v, w, err := recoverDataset(&cfg, d.Name, tab, cfg.Recovery)
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("server: %w", err)
			}
			s.tables[d.Name] = v
			s.wals[d.Name] = w
		} else {
			s.tables[d.Name] = dataset.NewVersioned(tab)
			s.tables[d.Name].SetRetain(cfg.EpochRetain)
		}
		s.order = append(s.order, d.Name)
		s.compacting[d.Name] = new(atomic.Bool)
		s.tracer.SetGauge(obs.GaugeServerEpochPrefix+d.Name, float64(s.tables[d.Name].Epoch()))
	}
	// Stale-preferring eviction consults the live epoch of each entry's
	// dataset; entries of unknown datasets (impossible today) read as
	// current.
	s.cache.currentEpoch = func(name string) uint64 {
		if v, ok := s.tables[name]; ok {
			return v.Epoch()
		}
		return 0
	}
	s.drift = newDriftMonitor(s, cfg.DriftT, cfg.DriftDebounce)
	if cfg.WALDir != "" {
		s.drift.stateDir = cfg.WALDir
		// A crash between an append and its debounced re-mine must still
		// produce the drift report: restore each persisted watch and, when
		// replay advanced the epoch past its baseline, re-arm the timer.
		s.drift.restore()
	}
	s.tracer.SetGauge(obs.GaugeServerDatasets, float64(len(s.order)))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("POST /v1/explore", s.handleExplore)
	s.mux.HandleFunc("POST /v1/explore/batch", s.handleExploreBatch)
	s.mux.HandleFunc("GET /v1/progress", s.handleProgressList)
	s.mux.HandleFunc("GET /v1/progress/{id}", s.handleProgress)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /v1/explain/{id}", s.handleExplain)
	s.mux.HandleFunc("GET /v1/debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("GET /v1/slo", s.handleSLO)
	s.mux.HandleFunc("POST /v1/datasets/{name}/rows", s.handleAppend)
	s.mux.HandleFunc("GET /v1/drift/{name}", s.handleDrift)
	return s, nil
}

// ServeHTTP dispatches to the server's endpoints. Every request runs
// under recovery middleware: a panicking handler is answered with a 500
// naming the request's correlation ID (best-effort — the reply may
// already be partially written) while the daemon keeps serving. The
// panic value and stack go to the log and obs.CtrServerPanics; per-panic
// state (spans, request-log entries, semaphore slots) is released by the
// handlers' own defers during unwinding, so a recovered panic leaks
// nothing. http.ErrAbortHandler is re-raised: it is net/http's own
// drop-the-connection idiom, not a failure.
//
// Every request is also attributed to its SLO endpoint class: status and
// latency feed the engine's sliding windows behind GET /v1/slo and the
// server_window_* metric families. The same measurement feeds the
// lifetime server.request_seconds histogram for every response carrying
// X-Request-ID — both exploration endpoints, rejections included — with
// the request ID as its exemplar. The observation defer is registered
// before the recovery defer, so (LIFO) recovery writes its 500 first and
// the observation records the final status.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w}
	w = rec
	defer func() {
		status := rec.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: implicit 200
		}
		now := time.Now()
		d := now.Sub(start)
		s.slo.observe(endpointClass(r.URL.Path), status, d)
		if id := w.Header().Get("X-Request-ID"); id != "" {
			s.hLatency.ObserveExemplar(d.Seconds(), id, now.UnixNano())
		}
	}()
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v == http.ErrAbortHandler {
			panic(v)
		}
		pe := engine.RecoverError(v)
		s.tracer.Counter(obs.CtrServerPanics).Add(1)
		id := w.Header().Get("X-Request-ID") // set early by serveExplore
		s.logger.Error("handler panic",
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("panic", fmt.Sprint(pe.Value)),
			slog.String("stack", pe.Stack),
		)
		s.httpError(w, http.StatusInternalServerError, "internal error (request %s)", id)
	}()
	s.mux.ServeHTTP(w, r)
}

// StartDrain flips the server into draining mode: GET /readyz answers
// 503 so load balancers stop routing new work here, while /healthz and
// every exploration endpoint keep working so in-flight requests finish.
// Call it on SIGTERM, before http.Server.Shutdown. Idempotent.
func (s *Server) StartDrain() {
	s.draining.Store(true)
}

// httpError answers the request with a plain-text error and counts it.
func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.tracer.Counter(obs.CtrServerErrors).Add(1)
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "healthz").Add(1)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 200 once the server can take
// traffic, 503 while draining. Liveness (/healthz) stays 200 throughout a
// drain — the process is healthy, it just should not receive new work.
// The not-yet-loaded window is the daemon's concern: cmd/hdivexplorerd
// answers /readyz 503 itself until New has returned.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "readyz").Add(1)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders one exposition through obs.WriteExposition: the
// lifetime tracer's families, then the curated runtime/metrics families,
// then the SLO engine's windowed families. The default is the classic
// Prometheus text format; clients whose Accept header names
// application/openmetrics-text get OpenMetrics 1.0 instead, whose bucket
// lines carry request-ID exemplars (classic format has no exemplar
// syntax).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "metrics").Add(1)
	openMetrics := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
	if openMetrics {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	fams := append(s.tracer.Snapshot().Families(), obs.RuntimeFamilies()...)
	_ = obs.WriteExposition(w, append(fams, s.slo.families()...), openMetrics) // headers are gone; nothing to do on error
}

// datasetInfo is one entry of the GET /v1/datasets reply.
type datasetInfo struct {
	Name    string       `json:"name"`
	Rows    int          `json:"rows"`
	Epoch   uint64       `json:"epoch"`
	Columns []columnInfo `json:"columns"`
}

// columnInfo describes one dataset column. Levels (categorical) and
// Min/Max (continuous, over non-missing values) describe the column's
// observed domain so clients — the load generator's append class in
// particular — can synthesize plausible rows.
type columnInfo struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"` // "continuous" or "categorical"
	Levels []string `json:"levels,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "datasets").Add(1)
	out := make([]datasetInfo, 0, len(s.order))
	for _, name := range s.order {
		tab, epoch := s.tables[name].Snapshot()
		info := datasetInfo{Name: name, Rows: tab.NumRows(), Epoch: epoch}
		for _, f := range tab.Fields() {
			ci := columnInfo{Name: f.Name, Kind: f.Kind.String()}
			if f.Kind == dataset.Categorical {
				ci.Levels = tab.Levels(f.Name)
			} else if rows := tab.SortedRows(f.Name); len(rows) > 0 {
				vals := tab.Floats(f.Name)
				lo, hi := vals[rows[0]], vals[rows[len(rows)-1]]
				ci.Min, ci.Max = &lo, &hi
			}
			info.Columns = append(info.Columns, ci)
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// ExploreRequest is the POST /v1/explore request body. Zero values take
// the same defaults as the hdivexplorer CLI flags, so identical
// parameters produce byte-identical CSV results on either front end.
type ExploreRequest struct {
	// Dataset selects a configured dataset by name.
	Dataset string `json:"dataset"`
	// Stat names the statistic: fpr, fnr, error, accuracy or numeric.
	// Default "error".
	Stat string `json:"stat,omitempty"`
	// Actual and Predicted name the boolean label columns used by the
	// classification statistics.
	Actual    string `json:"actual,omitempty"`
	Predicted string `json:"predicted,omitempty"`
	// Target names the numeric column used by the numeric statistic.
	Target string `json:"target,omitempty"`
	// S is the exploration support threshold (default 0.05).
	S float64 `json:"s,omitempty"`
	// ST is the tree discretization support threshold (default 0.1).
	ST float64 `json:"st,omitempty"`
	// Criterion selects the tree split gain: divergence (default) or
	// entropy.
	Criterion string `json:"criterion,omitempty"`
	// Mode selects hierarchical (default) or base exploration.
	Mode string `json:"mode,omitempty"`
	// Algorithm selects the miner: fpgrowth (default) or apriori.
	Algorithm string `json:"algorithm,omitempty"`
	// Polarity enables §V-C polarity pruning.
	Polarity bool `json:"polarity,omitempty"`
	// MaxLen bounds itemset length (0 = unlimited).
	MaxLen int `json:"max_len,omitempty"`
	// Top truncates the reply to the k most divergent subgroups (0 = all).
	Top int `json:"top,omitempty"`
	// MinT drops subgroups with |t| below the threshold (0 = keep all).
	MinT float64 `json:"min_t,omitempty"`
	// Workers is the number of goroutines mining and ranking run on
	// (0, the default, = every core; 1 = serial). Results are identical
	// regardless.
	Workers int `json:"workers,omitempty"`
	// Format selects the reply encoding: json (default) or csv. The CSV
	// bytes equal `hdivexplorer -format csv` output for the same
	// parameters.
	Format string `json:"format,omitempty"`
	// Trace includes the observability snapshot in a JSON reply.
	Trace bool `json:"trace,omitempty"`
	// Explain includes a cost-attribution profile (per-stage wall time,
	// mining counters, worker split, budget consumption) in a JSON reply's
	// "explain" field. Cheaper than Trace: the profile is
	// an aggregated summary, not the span-by-span snapshot.
	Explain bool `json:"explain,omitempty"`
	// Epoch pins the exploration to a specific dataset epoch instead of
	// the current one: the reply is computed on that epoch's frozen rows,
	// from the cached universe when it survives and rebuilt otherwise.
	// Epochs within the server's EpochRetain window are servable; older
	// ones answer 410 Gone and future ones 400. 0 means "current epoch".
	Epoch uint64 `json:"epoch,omitempty"`
	// TimeoutMS shortens the server's per-request timeout (it can never
	// extend it).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Budget tightens the server's per-request mining budget; like
	// TimeoutMS it can only narrow the server's configuration, never widen
	// it. A budget-exhausted exploration still answers 200, with the
	// report flagged "truncated".
	Budget *BudgetRequest `json:"budget,omitempty"`
}

// BudgetRequest is the per-request mining budget of an ExploreRequest.
// Each dimension combines with the server's configured budget by taking
// the tighter (smaller nonzero) value; 0 leaves the server's setting in
// force. The heap watermark is deliberately absent — it is a
// process-level guard, not a per-request knob.
type BudgetRequest struct {
	// MaxCandidates caps evaluated itemset candidates.
	MaxCandidates int `json:"max_candidates,omitempty"`
	// MaxItemsets caps frequent itemsets kept.
	MaxItemsets int `json:"max_itemsets,omitempty"`
	// SoftDeadlineMS bounds mining wall-clock; expiry truncates the
	// report instead of failing the request (unlike timeout_ms).
	SoftDeadlineMS int `json:"soft_deadline_ms,omitempty"`
}

// exploreParams is a validated, defaulted ExploreRequest. stats is its
// statistic list, the primary first (req.Stat alone for a plain explore),
// and exclude the label columns of every statistic (core.StatInputs).
// tab and epoch are the dataset snapshot the exploration runs on; pinned
// marks a request that named a non-current epoch explicitly.
type exploreParams struct {
	req       ExploreRequest
	stats     []string
	exclude   []string
	tab       *dataset.Table
	epoch     uint64
	pinned    bool
	criterion discretize.Criterion
	mode      core.Mode
	algorithm fpm.Algorithm
	timeout   time.Duration
	budget    fpm.Budget
}

// resolve validates the request and applies CLI-equivalent defaults.
// stats is a batch's statistic list, already parsed by core.ParseStats;
// an empty one explores req.Stat alone.
func (s *Server) resolve(req ExploreRequest, stats []string) (*exploreParams, int, error) {
	p := &exploreParams{req: req}
	v, ok := s.tables[req.Dataset]
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown dataset %q", req.Dataset)
	}
	p.tab, p.epoch = v.Snapshot()
	if req.Epoch > p.epoch {
		return nil, http.StatusBadRequest, fmt.Errorf("dataset %q is at epoch %d, future epoch %d requested", req.Dataset, p.epoch, req.Epoch)
	}
	if req.Epoch != 0 && req.Epoch != p.epoch {
		tab, ok := v.SnapshotAt(req.Epoch)
		if !ok {
			return nil, http.StatusGone, fmt.Errorf("dataset %q epoch %d is past the retention window", req.Dataset, req.Epoch)
		}
		p.tab, p.epoch, p.pinned = tab, req.Epoch, true
	}
	var err error
	if len(stats) == 0 {
		if stats, err = core.ParseStats([]string{cmp.Or(req.Stat, "error")}); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	p.stats, p.req.Stat = stats, stats[0]
	if p.exclude, err = core.StatInputs(stats, req.Actual, req.Predicted, req.Target); err != nil {
		return nil, http.StatusBadRequest, err
	}
	p.req.S = cmp.Or(p.req.S, 0.05)
	p.req.ST = cmp.Or(p.req.ST, 0.1)
	if p.req.S < 0 || p.req.S > 1 {
		return nil, http.StatusBadRequest, fmt.Errorf("s must be a support fraction in (0, 1] (got %v)", req.S)
	}
	if p.req.ST < 0 || p.req.ST > 1 {
		return nil, http.StatusBadRequest, fmt.Errorf("st must be a support fraction in (0, 1] (got %v)", req.ST)
	}
	if req.MaxLen < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("max_len must be >= 0 (got %d)", req.MaxLen)
	}
	if p.criterion, err = discretize.ParseCriterion(req.Criterion); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if p.mode, err = core.ParseMode(req.Mode); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if p.algorithm, err = fpm.ParseAlgorithm(req.Algorithm); err != nil {
		return nil, http.StatusBadRequest, err
	}
	switch strings.ToLower(p.req.Format) {
	case "", "json", "csv":
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("unknown format %q", req.Format)
	}
	if req.Workers < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("workers must be >= 0 (got %d)", req.Workers)
	}
	p.timeout = s.timeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < p.timeout {
			p.timeout = d
		}
	}
	p.budget = s.budget
	if b := req.Budget; b != nil {
		if b.MaxCandidates < 0 || b.MaxItemsets < 0 || b.SoftDeadlineMS < 0 {
			return nil, http.StatusBadRequest, fmt.Errorf("budget dimensions must be >= 0")
		}
		p.budget.MaxCandidates = tighten(p.budget.MaxCandidates, b.MaxCandidates)
		p.budget.MaxItemsets = tighten(p.budget.MaxItemsets, b.MaxItemsets)
		p.budget.SoftDeadline = tighten(p.budget.SoftDeadline, time.Duration(b.SoftDeadlineMS)*time.Millisecond)
	}
	return p, 0, nil
}

// tighten combines a configured limit with a requested one: the smaller
// nonzero value wins, 0 meaning "no limit from this side".
func tighten[T int | time.Duration](configured, requested T) T {
	if requested <= 0 {
		return configured
	}
	if configured <= 0 || requested < configured {
		return requested
	}
	return configured
}

// key derives the universe-cache key for the resolved request.
func (p *exploreParams) key() cacheKey {
	return cacheKey{
		dataset:   p.req.Dataset,
		epoch:     p.epoch,
		stat:      p.req.Stat,
		actual:    p.req.Actual,
		predicted: p.req.Predicted,
		target:    p.req.Target,
		exclude:   strings.Join(p.exclude, "\x00"),
		criterion: p.criterion,
		st:        p.req.ST,
	}
}

// config is the mining configuration of the resolved request over a
// built entry; serveExplore adds its request's tracer, progress and
// explain flag, and the drift monitor's re-mine uses it as is.
func (p *exploreParams) config(e *cacheEntry) core.Config {
	return core.Config{
		Hierarchies:   e.hs,
		MinSupport:    p.req.S,
		MaxLen:        p.req.MaxLen,
		PolarityPrune: p.req.Polarity,
		Algorithm:     p.algorithm,
		Mode:          p.mode,
		Workers:       p.req.Workers,
		Budget:        p.budget,
	}
}

// BatchExploreRequest is the POST /v1/explore/batch request body: an
// ExploreRequest whose Stats list names the statistics to compute over
// one itemset lattice in a single mining pass. Stats[0] is the primary
// statistic: it drives discretization, universe construction and
// polarity pruning; the Stat field is ignored. Every statistic's label
// columns are left out of the exploration, so they are part of the
// universe-cache key: a batch whose extra statistics add no label column
// (fpr, fnr, error, accuracy over the same actual and predicted columns)
// shares its universe with a plain explore of Stats[0], and its primary
// report equals that explore's. The reply is a JSON array of
// {stat, report} pairs in Stats order (or, for format csv, the reports'
// CSV blocks each preceded by a comment line naming its statistic, as
// core.WriteReports renders them), even for one statistic.
type BatchExploreRequest struct {
	ExploreRequest
	Stats []string `json:"stats"`
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	s.serveExplore(w, r, false)
}

func (s *Server) handleExploreBatch(w http.ResponseWriter, r *http.Request) {
	s.serveExplore(w, r, true)
}

// serveExplore implements both exploration endpoints: POST /v1/explore
// (one statistic) and POST /v1/explore/batch (a statistic bundle mined
// in one pass). Both run the same code path — a single statistic is a
// bundle of one — so a statistic's report is byte-identical on both
// whenever the two requests leave out the same label columns.
func (s *Server) serveExplore(w http.ResponseWriter, r *http.Request, batch bool) {
	endpoint := "explore"
	if batch {
		endpoint = "explore_batch"
	}
	s.tracer.Counter(obs.CtrServerRequestPrefix + endpoint).Add(1)
	start := time.Now()
	id := requestID(r)
	w.Header().Set("X-Request-ID", id)
	logger := obs.RequestLogger(s.logger, id)

	// The flight record accumulates through the handler and lands in the
	// request log from this one outermost defer. A request rejected
	// before admission never starts, so it enters the log with no trace
	// and no progress. The latency histogram is observed by ServeHTTP,
	// keyed on the X-Request-ID header set above.
	frec := FlightRecord{ID: id, Endpoint: endpoint, Status: "rejected"}
	var (
		p         *exploreParams
		reqState  *requestState
		reqTracer *obs.Tracer
	)
	defer func() {
		var trace *obs.Trace
		if reqState != nil {
			reqState.Progress.Finish() // idempotent; covers paths that never reach the miner
			trace = reqTracer.Snapshot()
			s.tracer.Absorb(trace)
		}
		now := time.Now()
		lat := now.Sub(start)
		frec.LatencyNS = lat.Nanoseconds()
		frec.UnixNano = now.UnixNano()
		s.requests.finish(reqState, frec, trace)
		if reqState == nil {
			return
		}
		if lat >= s.requests.threshold {
			logger.Warn("slow request",
				slog.String("dataset", p.req.Dataset),
				slog.String("stat", p.req.Stat),
				slog.String("status", frec.Status),
				slog.Int64("elapsed_ms", lat.Milliseconds()),
				slog.Int64("threshold_ms", s.requests.threshold.Milliseconds()),
			)
		}
		logger.Info("explore",
			slog.String("dataset", p.req.Dataset),
			slog.String("stat", p.req.Stat),
			slog.String("algorithm", p.algorithm.String()),
			slog.String("status", frec.Status),
			slog.Bool("cache_hit", frec.CacheHit),
			slog.Int("subgroups", frec.Subgroups),
			slog.Int64("elapsed_ms", lat.Milliseconds()),
		)
	}()

	var req ExploreRequest
	var stats []string
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if batch {
		var breq BatchExploreRequest
		if err := dec.Decode(&breq); err != nil {
			logger.Warn("explore rejected", slog.String("error", err.Error()))
			s.httpError(w, http.StatusBadRequest, "invalid request body: %v", err)
			return
		}
		var err error
		if stats, err = core.ParseStats(breq.Stats); err != nil {
			logger.Warn("explore rejected", slog.String("error", err.Error()))
			s.httpError(w, http.StatusBadRequest, "stats: %v", err)
			return
		}
		req = breq.ExploreRequest
	} else {
		if err := dec.Decode(&req); err != nil {
			logger.Warn("explore rejected", slog.String("error", err.Error()))
			s.httpError(w, http.StatusBadRequest, "invalid request body: %v", err)
			return
		}
	}
	p, code, err := s.resolve(req, stats)
	if err != nil {
		logger.Warn("explore rejected", slog.String("error", err.Error()))
		s.httpError(w, code, "%v", err)
		return
	}
	frec.Dataset, frec.Stat = p.req.Dataset, p.req.Stat
	w.Header().Set("X-Dataset-Epoch", strconv.FormatUint(p.epoch, 10))

	// Admission control: reject rather than queue when saturated, so
	// callers see back-pressure instead of unbounded latency.
	select {
	case s.sem <- struct{}{}:
	default:
		s.tracer.Counter(obs.CtrServerRejected).Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(time.Now())))
		s.httpError(w, http.StatusTooManyRequests, "exploration limit reached, retry later")
		return
	}
	defer func() { <-s.sem }()
	n := s.inFlight.Add(1)
	s.tracer.SetGauge(obs.GaugeServerInFlight, float64(n))
	s.tracer.MaxGauge(obs.GaugeServerInFlightMax, float64(n))
	defer func() {
		s.tracer.SetGauge(obs.GaugeServerInFlight, float64(s.inFlight.Add(-1)))
	}()

	ctx, cancel := context.WithTimeout(obs.WithRequestID(r.Context(), id), p.timeout)
	defer cancel()

	// Every exploration runs on its own tracer: spans stay bounded per
	// request, and the outermost defer folds the counters, gauges and
	// histograms into the lifetime tracer so /metrics stays cumulative.
	// The snapshot also feeds GET /v1/trace/{id}.
	reqTracer = obs.New()
	reqTracer.SetID(id)
	prog := obs.NewProgress()
	reqState = s.requests.start(id, p.req.Dataset, prog)
	frec.Status = "error"

	entry, hit, err := s.cache.get(ctx, p.key(), func(e *cacheEntry) error {
		return s.buildEntry(e, p, reqTracer)
	})
	frec.CacheHit = hit
	if hit {
		s.tracer.Counter(obs.CtrServerCacheHits).Add(1)
		reqTracer.SetGauge(obs.GaugeCacheHit, 1)
	} else {
		s.tracer.Counter(obs.CtrServerCacheMisses).Add(1)
		s.tracer.SetGauge(obs.GaugeServerCachedUniverses, float64(s.cache.len()))
		reqTracer.SetGauge(obs.GaugeCacheHit, 0)
	}
	if err != nil {
		if ctx.Err() != nil {
			frec.Status = "cancelled"
			s.exploreCancelled(w, ctx)
			return
		}
		// Build errors are normally the client's fault (bad column names),
		// but a panic recovered inside the build is ours.
		code := http.StatusBadRequest
		var pe *engine.PanicError
		if errors.As(err, &pe) {
			s.tracer.Counter(obs.CtrServerPanics).Add(1)
			code = http.StatusInternalServerError
		}
		s.httpError(w, code, "%v", err)
		return
	}

	// The entry's outcome is the bundle's primary, the outcome its
	// universes were built for: the miner serves that primary from a
	// universe's kept FP-tree. Extra outcomes are cheap to build (no
	// discretization or universe construction), so they are not cached;
	// they are built on the entry's table, so a pinned-epoch request's
	// extra statistics cover exactly the rows its universe covers.
	bundle, err := core.BuildBundle(entry.tab, p.stats, entry.out, p.req.Actual, p.req.Predicted, p.req.Target)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.tracer.Counter(obs.CtrServerExplores).Add(1)
	if batch {
		s.tracer.Counter(obs.CtrServerBatchStats).Add(int64(len(p.stats)))
	}
	cfg := p.config(entry)
	cfg.Explain, cfg.Tracer, cfg.Progress = p.req.Explain, reqTracer, prog
	reps, err := core.ExploreUniverseMultiContext(ctx, entry.uni[p.mode], cfg, bundle)
	if err != nil {
		if ctx.Err() != nil {
			frec.Status = "cancelled"
			s.exploreCancelled(w, ctx)
			return
		}
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	frec.Status = "done"
	// A complete current-epoch exploration becomes the dataset's drift
	// watch, its snapshot the drift base.
	if !p.pinned && !reps[0].Truncated {
		s.drift.noteExplore(p)
	}
	if reps[0].Truncated {
		// Still a 200: the ranked prefix is valid, the lattice just was
		// not fully explored. The flag travels in the report body.
		frec.Status = "truncated"
		s.tracer.Counter(obs.CtrServerTruncated).Add(1)
	}
	frec.Subgroups = len(reps[0].Subgroups)
	frec.Truncated = reps[0].Truncated
	frec.Candidates = int64(reps[0].Mining.Candidates)
	frec.Itemsets = int64(reps[0].Mining.Frequent)

	for _, rep := range reps {
		if p.req.MinT > 0 {
			rep.Subgroups = rep.FilterMinT(p.req.MinT)
		}
		if p.req.Top > 0 {
			rep.Subgroups = rep.TopK(p.req.Top)
		}
		if !p.req.Trace {
			rep.Trace = nil
		}
	}

	ct := "application/json; charset=utf-8"
	if strings.EqualFold(p.req.Format, "csv") {
		ct = "text/csv; charset=utf-8"
	}
	w.Header().Set("Content-Type", ct)
	// A batch reply names every report's statistic, even for one.
	if err := core.WriteReports(w, p.req.Format, p.stats, reps, batch); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError) // moot once a csv block is out
	}
}

// retryAfter estimates the Retry-After seconds for a 429: a slot frees
// when some in-flight exploration finishes, and the hard bound on that is
// the oldest one's remaining timeout budget. The estimate is that
// residual, rounded up to whole seconds and clamped to [1, ceil(server
// timeout)] — so a server whose oldest exploration is nearly done hints
// an immediate retry, while one that just admitted a full batch hints the
// full window.
func (s *Server) retryAfter(now time.Time) int {
	ceil := func(d time.Duration) int {
		n := int((d + time.Second - 1) / time.Second)
		if n < 1 {
			n = 1
		}
		return n
	}
	max := ceil(s.timeout)
	oldest, ok := s.requests.oldestActive()
	if !ok {
		// Saturated with nothing registered: requests sit between semaphore
		// acquire and request-log start, a microseconds-wide window. The
		// tightest honest hint is 1s.
		return 1
	}
	remaining := s.timeout - now.Sub(oldest)
	if remaining < 0 {
		remaining = 0
	}
	n := ceil(remaining)
	if n > max {
		n = max
	}
	return n
}

// exploreCancelled answers a request whose context expired: 504 on
// deadline; the same status for a client disconnect, where the reply is
// moot but the counter is not.
func (s *Server) exploreCancelled(w http.ResponseWriter, ctx context.Context) {
	s.tracer.Counter(obs.CtrServerCancelled).Add(1)
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.httpError(w, http.StatusGatewayTimeout, "exploration timed out")
		return
	}
	s.httpError(w, http.StatusGatewayTimeout, "exploration cancelled: %v", ctx.Err())
}

// writeJSON writes v as indented JSON, the rendering core.WriteReports
// gives exploration replies.
func writeJSON(w http.ResponseWriter, code int, v any) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(append(raw, '\n'))
}

// Datasets returns the served dataset names in registration order.
func (s *Server) Datasets() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}
