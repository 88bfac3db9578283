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
// rows (each epoch is discretized on its own rows, reusing the previous
// epoch's sorted columns and unchanged items' row sets), in-flight and
// epoch-pinned explorations keep
// their frozen snapshot, and a debounced background re-mine compares
// subgroup t-values across epochs: GET /v1/drift/{name} lists subgroups
// whose |t| crossed -drift-t since the last baseline.
//
// Endpoints: POST /v1/explore, POST /v1/explore/batch (several
// statistics over one mining pass), GET /v1/datasets, GET /v1/progress,
// GET /v1/progress/{id}, GET /v1/trace/{id}, GET /v1/explain/{id}
// (query cost-attribution profile), GET /v1/debug/requests (always-on
// request log: recent requests plus retained slow captures),
// GET /healthz, GET /readyz, GET /metrics (Prometheus text format, or
// OpenMetrics with request-ID exemplars when the Accept header asks;
// both include curated runtime/metrics families).
//
// The 64 most recent requests, rejections included, keep their flight
// record queryable, and the admitted ones their trace and explain
// profile; the 8 slowest requests over the slow bar are retained in full
// (trace + explain) for post-hoc debugging.
//
// -slo declares service-level objectives (e.g.
// -slo p99=250ms,availability=99.9): GET /v1/slo then reports each
// endpoint class's error-budget burn rate over sliding short/long
// windows, and /metrics grows windowed server_window_* and server_slo_*
// gauge families. The request log's slow bar is the tightest -slo
// latency target (1s without one), so every objective-violating request
// keeps its full trace.
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
// group commit; interval = background flush every 50ms; none = page
// cache), and -epoch-retain how many recent epochs, the current one
// included, stay servable as "epoch": e pins, with or without -wal-dir
// (older pins answer 410 Gone; compaction keeps every retained epoch).
// Segments rotate at 4 MiB; each rotation also triggers a background
// full-table snapshot that lets old segments be deleted.
//
// The -budget-* flags bound every exploration's resource consumption;
// on exhaustion the request is answered 200 with a ranked report flagged
// "truncated" instead of stalling or exhausting the machine. Requests
// may tighten (never loosen) the budget via the body's budget object.
//
// The HTTP server reads headers within 10s, whole requests within 1m,
// reaps idle keep-alive connections after 2m, and bounds each response
// write at -timeout + 90s, so a reply always outlives the exploration
// it carries.
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
	slo       server.SLOConfig

	driftT        float64
	driftDebounce time.Duration

	walDir      string
	walSync     string
	epochRetain int

	// onListen, when non-nil, receives the bound listener address before
	// serving starts. Tests use it to reach a daemon started on port 0.
	onListen func(addr string)
}

// HTTP server timeouts. The write bound is derived from -timeout so a
// response always outlives the exploration it carries.
const (
	readHeaderTimeout = 10 * time.Second // slow-header (Slowloris) guard
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
	writeSlack        = 90 * time.Second
)

// parseFlags registers the daemon's flags on fs and parses args into a
// daemonConfig.
func parseFlags(fs *flag.FlagSet, args []string) (daemonConfig, error) {
	var (
		cfg     daemonConfig
		sloSpec string
	)
	fs.Var((*datasetFlags)(&cfg.datasets), "dataset", "dataset to serve as name=path.csv (repeatable, required)")
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "optional second listener for /debug/pprof and /debug/vars (e.g. localhost:6060); off when empty")
	fs.IntVar(&cfg.inflight, "max-inflight", 0, "max concurrent explorations (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.cacheMax, "cache-max", 32, "max cached universes before LRU eviction (negative = unbounded)")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request exploration timeout; the HTTP write timeout is this plus 90s")
	fs.DurationVar(&cfg.drain, "drain", 30*time.Second, "graceful shutdown drain budget")
	fs.BoolVar(&cfg.logJSON, "log-json", false, "emit structured logs as JSON instead of text")
	fs.StringVar(&sloSpec, "slo", "", "service-level objectives as key=value pairs, e.g. p99=250ms,availability=99.9,short=10s,long=60s; GET /v1/slo reports windowed burn rates against them, and the tightest latency target (else 1s) is the request log's slow-capture bar")

	fs.Float64Var(&cfg.driftT, "drift-t", 0, "|t| threshold for drift events after appends (0 = default 3; negative = disable the drift monitor)")
	fs.DurationVar(&cfg.driftDebounce, "drift-debounce", 0, "quiet period coalescing append bursts before the background drift re-mine (0 = default 2s)")

	fs.StringVar(&cfg.walDir, "wal-dir", "", "directory for per-dataset write-ahead logs; appends become durable and survive restarts (empty = in-memory only)")
	fs.StringVar(&cfg.walSync, "wal-sync", "always", "WAL durability policy: always (fsync before every ack, group-committed), interval (background flush) or none (page cache)")
	fs.IntVar(&cfg.epochRetain, "epoch-retain", 0, "recent epochs, the current one included, servable as \"epoch\": e pins; older pins answer 410 Gone (0 or negative = default 8)")

	fs.IntVar(&cfg.budget.MaxCandidates, "budget-candidates", 0, "per-exploration cap on evaluated itemset candidates (0 = unlimited); exhaustion truncates the report")
	fs.IntVar(&cfg.budget.MaxItemsets, "budget-itemsets", 0, "per-exploration cap on frequent itemsets kept (0 = unlimited); exhaustion truncates the report")
	fs.DurationVar(&cfg.budget.SoftDeadline, "budget-deadline", 0, "per-exploration soft mining deadline (0 = none); expiry truncates the report instead of failing the request")
	fs.Uint64Var(&cfg.budget.MaxHeapBytes, "budget-heap-bytes", 0, "process heap watermark that truncates in-flight mining (0 = off)")

	if err := fs.Parse(args); err != nil {
		return daemonConfig{}, err
	}
	var err error
	if cfg.slo, err = server.ParseSLO(sloSpec); err != nil {
		return daemonConfig{}, err
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(flag.NewFlagSet(os.Args[0], flag.ExitOnError), os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdivexplorerd:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hdivexplorerd:", err)
		os.Exit(1)
	}
}

// newHTTPServer builds the main listener's http.Server around h.
func newHTTPServer(cfg daemonConfig, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              cfg.addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      cfg.timeout + writeSlack,
		IdleTimeout:       idleTimeout,
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

	srv := newHTTPServer(cfg, root)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	loaded := make(chan error, 1)
	var explorer atomic.Pointer[server.Server]
	go func() {
		h, err := server.New(server.Config{
			Datasets:       cfg.datasets,
			MaxInFlight:    cfg.inflight,
			RequestTimeout: cfg.timeout,
			CacheMax:       cfg.cacheMax,
			Budget:         cfg.budget,
			SLO:            cfg.slo,
			DriftT:         cfg.driftT,
			DriftDebounce:  cfg.driftDebounce,
			WALDir:         cfg.walDir,
			WALSync:        walSync,
			EpochRetain:    cfg.epochRetain,
			Recovery:       rec,
			Logger:         logger,
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
			ReadHeaderTimeout: readHeaderTimeout,
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
