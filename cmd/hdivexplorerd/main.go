// Command hdivexplorerd serves H-DivExplorer explorations over HTTP.
//
// It loads one or more CSV datasets at startup, then answers exploration
// requests against them, caching the discretized item hierarchies and
// mining universes so repeated explorations skip straight to mining:
//
//	hdivexplorerd -addr :8080 -dataset compas=compas.csv -dataset census=census.csv
//
//	curl -s localhost:8080/v1/datasets
//	curl -s -X POST localhost:8080/v1/explore -d '{
//	    "dataset": "compas", "stat": "fpr",
//	    "actual": "recid", "predicted": "pred", "top": 10
//	}'
//
// Datasets are live: POST /v1/datasets/{name}/rows appends a row batch,
// atomically bumping the dataset's epoch. New explorations see the new
// rows (the universe is grown incrementally when the appended batch's
// quantile drift allows, re-discretized otherwise — tune with
// -rediscretize-drift), in-flight and epoch-pinned explorations keep
// their frozen snapshot, and a debounced background re-mine compares
// subgroup t-values across epochs: GET /v1/drift/{name} lists subgroups
// whose |t| crossed -drift-t since the last baseline.
//
// Endpoints: POST /v1/explore, POST /v1/explore/batch (several
// statistics over one mining pass), GET /v1/datasets, GET /v1/progress,
// GET /v1/progress/{id}, GET /v1/trace/{id}, GET /v1/explain/{id}
// (query cost-attribution profile), GET /v1/debug/requests (always-on
// flight recorder: recent requests plus retained slow captures),
// GET /healthz, GET /readyz, GET /metrics (Prometheus text format, or
// OpenMetrics with request-ID exemplars when the Accept header asks;
// both include curated runtime/metrics families).
//
// -trace-ring bounds how many completed requests keep their trace,
// explain profile and flight record queryable; -slow-threshold sets the
// latency bar over which requests are retained in full (trace +
// explain) for post-hoc debugging, -slow-requests how many such
// captures are kept.
//
// -slo declares service-level objectives (e.g.
// -slo p99=250ms,availability=99.9): GET /v1/slo then reports each
// endpoint class's error-budget burn rate over sliding short/long
// windows, and /metrics grows windowed server_window_* and server_slo_*
// gauge families. With -slow-threshold left at its automatic default the
// flight recorder's slow bar follows the tightest -slo latency target,
// so every objective-violating request keeps its full trace.
//
// The listener comes up immediately; GET /readyz answers 503 while the
// datasets load, 200 once the daemon can take traffic, and 503 again
// while a SIGINT/SIGTERM-triggered graceful shutdown drains in-flight
// explorations (liveness, GET /healthz, stays 200 throughout). Point
// load-balancer readiness probes at /readyz and liveness probes at
// /healthz.
//
// -wal-dir makes appends durable: every acknowledged batch is first
// written to a checksummed per-dataset write-ahead log under the
// directory, and a restart replays the log so datasets resume at their
// exact pre-crash epoch (byte-identical explore output included). While
// replay runs, /readyz answers 503 with a JSON progress body
// {"state":"recovering","replayed":N,"total":M}. -wal-sync picks the
// durability/throughput trade (always = fsync before every ack, with
// group commit; interval = background flush; none = page cache),
// -wal-segment-bytes the segment rotation size (each rotation also
// triggers a background full-table snapshot that lets old segments be
// deleted), and -epoch-retain how many recent epochs, the current one
// included, stay servable as "epoch": e pins, with or without -wal-dir
// (older pins answer 410 Gone; compaction keeps every retained epoch).
//
// The -budget-* flags bound every exploration's resource consumption;
// on exhaustion the request is answered 200 with a ranked report flagged
// "truncated" instead of stalling or exhausting the machine. Requests
// may tighten (never loosen) the budget via the body's budget object.
//
// Every exploration carries a correlation ID (client-supplied via
// X-Request-ID or generated, echoed in the response header) that keys
// the structured request log, the live progress endpoint and the
// Chrome/Perfetto trace export. -debug-addr starts a second listener
// with net/http/pprof and expvar handlers for live profiling:
//
//	hdivexplorerd -dataset d=d.csv -debug-addr localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=5
//	curl -s localhost:6060/debug/vars
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fpm"
	"repro/internal/server"
	"repro/internal/wal"
)

// datasetFlags collects repeated -dataset name=path.csv values.
type datasetFlags []server.DatasetConfig

func (d *datasetFlags) String() string {
	var parts []string
	for _, c := range *d {
		parts = append(parts, c.Name+"="+c.Path)
	}
	return strings.Join(parts, ",")
}

func (d *datasetFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path.csv, got %q", v)
	}
	*d = append(*d, server.DatasetConfig{Name: name, Path: path})
	return nil
}

// daemonConfig holds the flag values for one daemon run.
type daemonConfig struct {
	datasets  []server.DatasetConfig
	addr      string
	debugAddr string
	inflight  int
	cacheMax  int
	timeout   time.Duration
	drain     time.Duration
	logJSON   bool
	budget    fpm.Budget

	traceRing     int
	slowThreshold time.Duration
	slowRequests  int
	slo           server.SLOConfig

	rediscretizeDrift float64
	driftT            float64
	driftDebounce     time.Duration

	walDir          string
	walSync         string
	walSegmentBytes int64
	epochRetain     int

	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration

	// onListen, when non-nil, receives the bound listener address before
	// serving starts. Tests use it to reach a daemon started on port 0.
	onListen func(addr string)
}

func main() {
	var (
		datasets  datasetFlags
		addr      = flag.String("addr", ":8080", "listen address")
		debugAddr = flag.String("debug-addr", "", "optional second listener for /debug/pprof and /debug/vars (e.g. localhost:6060); off when empty")
		inflight  = flag.Int("max-inflight", 0, "max concurrent explorations (0 = GOMAXPROCS)")
		cacheMax  = flag.Int("cache-max", 32, "max cached universes before LRU eviction (negative = unbounded)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request exploration timeout")
		drain     = flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
		logJSON   = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")

		traceRing     = flag.Int("trace-ring", server.DefaultTraceRing, "completed requests whose trace/explain/flight record stay queryable (clamped to 4096)")
		slowThreshold = flag.Duration("slow-threshold", 0, "latency over which a request's full trace and explain profile are retained (0 = auto: the tightest -slo latency target, else 1s; negative = off)")
		slowRequests  = flag.Int("slow-requests", 8, "how many slow requests to retain, competing by latency")
		sloSpec       = flag.String("slo", "", "service-level objectives as key=value pairs, e.g. p99=250ms,availability=99.9,short=10s,long=60s; GET /v1/slo reports windowed burn rates against them")

		rediscretizeDrift = flag.Float64("rediscretize-drift", 0, "per-column Kolmogorov–Smirnov drift of an appended batch above which the universe is re-discretized instead of grown incrementally (0 = default 0.2; negative = always re-discretize)")
		driftT            = flag.Float64("drift-t", 0, "|t| threshold for drift events after appends (0 = default 3; negative = disable the drift monitor)")
		driftDebounce     = flag.Duration("drift-debounce", 0, "quiet period coalescing append bursts before the background drift re-mine (0 = default 2s)")

		walDir          = flag.String("wal-dir", "", "directory for per-dataset write-ahead logs; appends become durable and survive restarts (empty = in-memory only)")
		walSync         = flag.String("wal-sync", "always", "WAL durability policy: always (fsync before every ack, group-committed), interval (background flush) or none (page cache)")
		walSegmentBytes = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation size in bytes; each rotation triggers background snapshot/compaction (0 = default 4 MiB)")
		epochRetain     = flag.Int("epoch-retain", 0, "recent epochs, the current one included, servable as \"epoch\": e pins; older pins answer 410 Gone (0 or negative = default 8)")

		readHeaderTimeout = flag.Duration("read-header-timeout", 10*time.Second, "http.Server.ReadHeaderTimeout: slow-header (Slowloris) guard")
		readTimeout       = flag.Duration("read-timeout", time.Minute, "http.Server.ReadTimeout: full request read bound (0 = none)")
		writeTimeout      = flag.Duration("write-timeout", 2*time.Minute, "http.Server.WriteTimeout: response write bound; keep it above -timeout (0 = none)")
		idleTimeout       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server.IdleTimeout: keep-alive connection reap (0 = none)")

		budgetCandidates = flag.Int("budget-candidates", 0, "per-exploration cap on evaluated itemset candidates (0 = unlimited); exhaustion truncates the report")
		budgetItemsets   = flag.Int("budget-itemsets", 0, "per-exploration cap on frequent itemsets kept (0 = unlimited); exhaustion truncates the report")
		budgetDeadline   = flag.Duration("budget-deadline", 0, "per-exploration soft mining deadline (0 = none); expiry truncates the report instead of failing the request")
		budgetHeap       = flag.Uint64("budget-heap-bytes", 0, "process heap watermark that truncates in-flight mining (0 = off)")
	)
	flag.Var(&datasets, "dataset", "dataset to serve as name=path.csv (repeatable, required)")
	flag.Parse()
	slo, err := server.ParseSLO(*sloSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdivexplorerd:", err)
		os.Exit(2)
	}
	cfg := daemonConfig{
		datasets: datasets, addr: *addr, debugAddr: *debugAddr,
		inflight: *inflight, cacheMax: *cacheMax,
		timeout: *timeout, drain: *drain, logJSON: *logJSON,
		traceRing: *traceRing, slowThreshold: *slowThreshold, slowRequests: *slowRequests,
		slo:               slo,
		rediscretizeDrift: *rediscretizeDrift,
		driftT:            *driftT,
		driftDebounce:     *driftDebounce,
		walDir:            *walDir,
		walSync:           *walSync,
		walSegmentBytes:   *walSegmentBytes,
		epochRetain:       *epochRetain,
		budget: fpm.Budget{
			MaxCandidates: *budgetCandidates,
			MaxItemsets:   *budgetItemsets,
			SoftDeadline:  *budgetDeadline,
			MaxHeapBytes:  *budgetHeap,
		},
		readHeaderTimeout: *readHeaderTimeout,
		readTimeout:       *readTimeout,
		writeTimeout:      *writeTimeout,
		idleTimeout:       *idleTimeout,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hdivexplorerd:", err)
		os.Exit(1)
	}
}

// debugMux returns the opt-in debug handler set: the net/http/pprof
// endpoints plus expvar, registered explicitly so nothing depends on
// http.DefaultServeMux.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// loadingMux is the handler served between listener start and dataset
// load completion: the process is alive (/healthz 200) but not ready
// (/readyz 503), and every other request is turned away with 503 so
// probes and eager clients get a consistent "not yet" instead of a
// connection refused or a partial service. With durability on, the 503
// body is a JSON progress report sourced from the WAL replay state, so
// operators (and the load generator's recovery backoff) can watch a
// long replay converge instead of guessing.
func loadingMux(rec *server.RecoveryState) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if rec == nil {
			http.Error(w, "loading datasets", http.StatusServiceUnavailable)
			return
		}
		replayed, total := rec.Progress()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, `{"state":"recovering","replayed":%d,"total":%d}`+"\n", replayed, total)
	})
	return mux
}

func run(cfg daemonConfig) error {
	if len(cfg.datasets) == 0 {
		return fmt.Errorf("at least one -dataset name=path.csv is required")
	}
	// Deterministic fault injection for the integration suite; inert (and
	// free) unless HDIV_FAILPOINTS is set.
	if err := faultinject.ArmFromEnv(); err != nil {
		return fmt.Errorf("%s: %w", faultinject.EnvVar, err)
	}
	var logger *slog.Logger
	if cfg.logJSON {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	} else {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	walSync := wal.SyncAlways
	if cfg.walSync != "" {
		var err error
		if walSync, err = wal.ParseSyncPolicy(cfg.walSync); err != nil {
			return err
		}
	}
	var rec *server.RecoveryState
	if cfg.walDir != "" {
		rec = &server.RecoveryState{}
	}

	// The listener starts before the datasets load: a gate handler answers
	// /readyz 503 (and everything else 503, /healthz 200) until server.New
	// finishes in the background, then the real handler is swapped in. A
	// failed load surfaces on loaded and shuts the daemon down.
	var handler atomic.Pointer[http.Handler]
	gate := http.Handler(loadingMux(rec))
	handler.Store(&gate)
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	})

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           root,
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		ReadTimeout:       cfg.readTimeout,
		WriteTimeout:      cfg.writeTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	loaded := make(chan error, 1)
	var explorer atomic.Pointer[server.Server]
	go func() {
		h, err := server.New(server.Config{
			Datasets:          cfg.datasets,
			MaxInFlight:       cfg.inflight,
			RequestTimeout:    cfg.timeout,
			CacheMax:          cfg.cacheMax,
			Budget:            cfg.budget,
			TraceRing:         cfg.traceRing,
			SlowThreshold:     cfg.slowThreshold,
			SlowRequests:      cfg.slowRequests,
			SLO:               cfg.slo,
			RediscretizeDrift: cfg.rediscretizeDrift,
			DriftT:            cfg.driftT,
			DriftDebounce:     cfg.driftDebounce,
			WALDir:            cfg.walDir,
			WALSync:           walSync,
			WALSegmentBytes:   cfg.walSegmentBytes,
			EpochRetain:       cfg.epochRetain,
			Recovery:          rec,
			Logger:            logger,
		})
		if err != nil {
			loaded <- err
			return
		}
		for _, name := range h.Datasets() {
			logger.Info("serving dataset", slog.String("dataset", name))
		}
		explorer.Store(h)
		ready := http.Handler(h)
		handler.Store(&ready)
		logger.Info("ready")
		loaded <- nil
	}()

	var dsrv *http.Server
	if cfg.debugAddr != "" {
		dsrv = &http.Server{
			Addr:              cfg.debugAddr,
			Handler:           debugMux(),
			ReadHeaderTimeout: cfg.readHeaderTimeout,
		}
		go func() {
			logger.Info("debug listener on", slog.String("addr", cfg.debugAddr))
			if err := dsrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", slog.String("error", err.Error()))
			}
		}()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.onListen != nil {
		cfg.onListen(ln.Addr().String())
	}
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", slog.String("addr", ln.Addr().String()))
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Interrupted while the datasets were still loading; fall through
		// to the drain path (there are no explorations to wait for).
	case err := <-loaded:
		if err != nil {
			srv.Close()
			return err
		}
		select {
		case err := <-errc:
			return err
		case <-ctx.Done():
		}
	}

	// Drain: flip /readyz to 503 so load balancers stop routing here, stop
	// accepting connections, let in-flight explorations finish within the
	// drain budget, then force-close stragglers.
	logger.Info("shutting down", slog.Duration("drain", cfg.drain))
	if h := explorer.Load(); h != nil {
		h.StartDrain()
	}
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if dsrv != nil {
		dsrv.Close() // debug listener holds no exploration state; close hard
	}
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Final fsync + close of the write-ahead logs, after the last
	// in-flight append has been answered.
	if h := explorer.Load(); h != nil {
		if err := h.Close(); err != nil {
			return fmt.Errorf("closing write-ahead logs: %w", err)
		}
	}
	return nil
}
