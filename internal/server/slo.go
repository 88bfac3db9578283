package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// sloClasses are the endpoint classes the SLO engine tracks. Every
// request the server handles is attributed to exactly one class; the set
// is fixed at construction so the hot path takes no locks.
var sloClasses = []string{"explore", "explore_batch", "progress", "append", "drift", "metrics", "slo", "other"}

// endpointClass attributes one request path to its SLO class.
func endpointClass(path string) string {
	switch {
	case path == "/v1/explore":
		return "explore"
	case path == "/v1/explore/batch":
		return "explore_batch"
	case path == "/v1/progress" || strings.HasPrefix(path, "/v1/progress/"):
		return "progress"
	case strings.HasPrefix(path, "/v1/datasets/") && strings.HasSuffix(path, "/rows"):
		return "append"
	case strings.HasPrefix(path, "/v1/drift/"):
		return "drift"
	case path == "/metrics":
		return "metrics"
	case path == "/v1/slo":
		return "slo"
	default:
		return "other"
	}
}

// LatencyObjective is one latency service-level objective: at least
// `Quantile` of requests must answer within Target. "p99=250ms" parses to
// {Quantile: 0.99, Target: 250ms}.
type LatencyObjective struct {
	Quantile float64
	Target   time.Duration
}

// Name renders the objective's conventional name (p50, p99, p999, ...).
func (o LatencyObjective) Name() string {
	s := strconv99(o.Quantile)
	return "p" + s
}

// strconv99 renders a quantile's decimals: 0.99 → "99", 0.999 → "999".
// The %.6g rounding absorbs float noise (0.999*100 is not exactly 99.9).
func strconv99(q float64) string {
	s := fmt.Sprintf("%.6g", q*100)
	return strings.ReplaceAll(s, ".", "")
}

// SLOConfig declares the server's service-level objectives and the
// windows its error-budget burn is computed over. The zero value
// declares no objectives; the windowed latency/error tracking and the
// GET /v1/slo surface stay live regardless, so operators see recent
// quantiles even before committing to targets.
type SLOConfig struct {
	// Latency objectives, e.g. p99 ≤ 250ms. Burn rate for an objective at
	// quantile q is (fraction of windowed requests slower than Target) /
	// (1 − q): burning at 1.0 consumes the error budget exactly as fast
	// as the objective allows.
	Latency []LatencyObjective
	// Availability is the objective's percentage (e.g. 99.9); requests
	// answered 5xx count against it. 0 means no availability objective.
	Availability float64
	// ShortWindow and LongWindow are the multiwindow burn-rate horizons
	// (defaults 10s and 60s): the short window catches fast burns in
	// seconds, the long window smooths noise for paging decisions.
	ShortWindow, LongWindow time.Duration
	// Epoch is the ring's rotation granularity (default 1s).
	Epoch time.Duration

	// now overrides the engine clock in tests.
	now func() time.Time
}

// ParseSLO parses the -slo flag grammar: comma-separated key=value
// pairs, e.g. "p99=250ms,availability=99.9,short=10s,long=60s". Latency
// keys are p followed by quantile decimals (p50, p95, p99, p999);
// availability takes a percentage; short, long and epoch take durations.
func ParseSLO(s string) (SLOConfig, error) {
	var cfg SLOConfig
	s = strings.TrimSpace(s)
	if s == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || key == "" || val == "" {
			return cfg, fmt.Errorf("slo: want key=value, got %q", part)
		}
		switch key = strings.ToLower(key); key {
		case "availability":
			var pct float64
			if _, err := fmt.Sscanf(val, "%g", &pct); err != nil || pct <= 0 || pct >= 100 {
				return cfg, fmt.Errorf("slo: availability wants a percentage in (0, 100), got %q", val)
			}
			cfg.Availability = pct
		case "short", "long", "epoch":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("slo: %s wants a positive duration, got %q", key, val)
			}
			switch key {
			case "short":
				cfg.ShortWindow = d
			case "long":
				cfg.LongWindow = d
			case "epoch":
				cfg.Epoch = d
			}
		default:
			digits := strings.TrimPrefix(key, "p")
			if digits == key || len(digits) < 2 {
				return cfg, fmt.Errorf("slo: unknown objective %q (latency objectives look like p99=250ms)", key)
			}
			q, scale := 0.0, 1.0
			for _, r := range digits {
				if r < '0' || r > '9' {
					return cfg, fmt.Errorf("slo: unknown objective %q", key)
				}
				q = q*10 + float64(r-'0')
				scale *= 10
			}
			q /= scale // p99 → 0.99, p999 → 0.999
			if q <= 0 || q >= 1 {
				return cfg, fmt.Errorf("slo: latency objective %q wants a quantile like p99 or p999", key)
			}
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("slo: %s wants a positive duration target, got %q", key, val)
			}
			cfg.Latency = append(cfg.Latency, LatencyObjective{Quantile: q, Target: d})
		}
	}
	sort.Slice(cfg.Latency, func(i, j int) bool { return cfg.Latency[i].Quantile < cfg.Latency[j].Quantile })
	return cfg, nil
}

// normalize applies defaults and validates the window geometry.
func (c *SLOConfig) normalize() error {
	if c.Epoch <= 0 {
		c.Epoch = time.Second
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = 10 * time.Second
	}
	if c.LongWindow <= 0 {
		c.LongWindow = 60 * time.Second
	}
	if c.ShortWindow > c.LongWindow {
		return fmt.Errorf("slo: short window %v exceeds long window %v", c.ShortWindow, c.LongWindow)
	}
	if c.LongWindow/c.Epoch > 3600 {
		return fmt.Errorf("slo: long window %v over %v epochs needs more than 3600 ring slots", c.LongWindow, c.Epoch)
	}
	for _, o := range c.Latency {
		if o.Quantile <= 0 || o.Quantile >= 1 || o.Target <= 0 {
			return fmt.Errorf("slo: invalid latency objective %+v", o)
		}
	}
	if c.Availability < 0 || c.Availability >= 100 {
		return fmt.Errorf("slo: availability %g%% out of range", c.Availability)
	}
	return nil
}

// slowCaptureThreshold is the request log's slow-capture bar: the
// tightest latency target, so every objective-violating request is
// retained in full, or 1s when no latency objective is declared.
func (c SLOConfig) slowCaptureThreshold() time.Duration {
	var min time.Duration
	for _, o := range c.Latency {
		if min == 0 || o.Target < min {
			min = o.Target
		}
	}
	if min == 0 {
		return time.Second
	}
	return min
}

// sloClass is the windowed state of one endpoint class: a latency
// histogram ring plus event rings for totals, errors (5xx), shed load
// (429) and per-latency-objective violations. Lifetime breach counters
// live on the server tracer so /metrics keeps a monotonic series
// alongside the windowed gauges.
type sloClass struct {
	name     string
	lat      *obs.Windowed
	total    *obs.Windowed
	errs     *obs.Windowed
	rejected *obs.Windowed
	slow     []*obs.Windowed // aligned with SLOConfig.Latency
	breaches []*obs.Counter  // aligned with SLOConfig.Latency
	errsLife *obs.Counter
}

// sloEngine computes service-level-objective status from sliding-window
// observations. All state is created at construction; observe is
// lock-free past the windows' own epoch rotation.
type sloEngine struct {
	cfg     SLOConfig
	short   int // window sizes in epochs
	long    int
	classes map[string]*sloClass
}

func newSLOEngine(cfg SLOConfig, tracer *obs.Tracer) *sloEngine {
	e := &sloEngine{
		cfg:     cfg,
		short:   int((cfg.ShortWindow + cfg.Epoch - 1) / cfg.Epoch),
		long:    int((cfg.LongWindow + cfg.Epoch - 1) / cfg.Epoch),
		classes: make(map[string]*sloClass, len(sloClasses)),
	}
	epochs := e.long
	for _, name := range sloClasses {
		c := &sloClass{
			name:     name,
			lat:      obs.NewWindowed(obs.LatencyBuckets, cfg.Epoch, epochs, cfg.now),
			total:    obs.NewWindowed(nil, cfg.Epoch, epochs, cfg.now),
			errs:     obs.NewWindowed(nil, cfg.Epoch, epochs, cfg.now),
			rejected: obs.NewWindowed(nil, cfg.Epoch, epochs, cfg.now),
			errsLife: tracer.Counter(obs.CtrServerSLOErrPrefix + name),
		}
		for _, o := range cfg.Latency {
			c.slow = append(c.slow, obs.NewWindowed(nil, cfg.Epoch, epochs, cfg.now))
			c.breaches = append(c.breaches, tracer.Counter(obs.CtrServerSLOBreachPrefix+name+"."+o.Name()))
		}
		e.classes[name] = c
	}
	return e
}

// observe records one served request into its class's windows.
func (e *sloEngine) observe(class string, status int, d time.Duration) {
	c := e.classes[class]
	if c == nil {
		c = e.classes["other"]
	}
	c.lat.Observe(d.Seconds())
	c.total.Add(1)
	switch {
	case status >= 500:
		c.errs.Add(1)
		c.errsLife.Add(1)
	case status == http.StatusTooManyRequests:
		c.rejected.Add(1)
	}
	for i, o := range e.cfg.Latency {
		if d > o.Target {
			c.slow[i].Add(1)
			c.breaches[i].Add(1)
		}
	}
}

// burnRate is the error-budget burn: the fraction of windowed requests
// that violated the objective, divided by the fraction the objective
// allows. 1.0 consumes the budget exactly at the allowed rate; values
// above it exhaust the budget early. An empty window burns nothing.
func burnRate(bad, total int64, allowed float64) float64 {
	if total == 0 || allowed <= 0 {
		return 0
	}
	return float64(bad) / float64(total) / allowed
}

// ObjectiveStatus is the reported state of one objective on one endpoint
// class.
type ObjectiveStatus struct {
	// Name is "p99"-style for latency objectives, "availability" for the
	// availability objective.
	Name string `json:"name"`
	// TargetMS is the latency target (latency objectives only).
	TargetMS float64 `json:"target_ms,omitempty"`
	// TargetPct is the availability target (availability only).
	TargetPct float64 `json:"target_pct,omitempty"`
	// OK is the paging signal: the long-window burn rate is at or under
	// 1.0, i.e. the error budget is being consumed no faster than allowed.
	OK bool `json:"ok"`
	// BurnShort and BurnLong are the burn rates over the short and long
	// windows.
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	// BudgetRemaining is the long window's unconsumed error-budget
	// fraction: max(0, 1 − BurnLong).
	BudgetRemaining float64 `json:"budget_remaining"`
	// Violations is the number of long-window requests that violated the
	// objective; Breaches the process-lifetime count.
	Violations int64 `json:"violations"`
	Breaches   int64 `json:"breaches"`
}

// EndpointSLO is the GET /v1/slo entry for one endpoint class.
type EndpointSLO struct {
	Endpoint string `json:"endpoint"`
	// Requests, Errors and Rejected count the long window.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Rejected int64 `json:"rejected"`
	// LatencyMS reports the long-window latency quantiles (upper-bound
	// bucket estimates, clamped finite).
	LatencyMS map[string]float64 `json:"latency_ms"`
	// Objectives reports each declared objective's budget state; empty
	// when the server declares none.
	Objectives []ObjectiveStatus `json:"objectives,omitempty"`
}

// SLOStatus is the GET /v1/slo reply.
type SLOStatus struct {
	// EpochMS, ShortWindowS and LongWindowS describe the measurement
	// geometry: windowed numbers cover the trailing long window at epoch
	// granularity.
	EpochMS      int64   `json:"epoch_ms"`
	ShortWindowS float64 `json:"short_window_s"`
	LongWindowS  float64 `json:"long_window_s"`
	// OK is the conjunction over every endpoint objective (true when no
	// objectives are declared).
	OK        bool          `json:"ok"`
	Endpoints []EndpointSLO `json:"endpoints"`
}

// windowQuantiles are the quantiles reported per endpoint, by display
// name.
var windowQuantiles = []struct {
	name string
	q    float64
}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}}

// status assembles the full SLO report.
func (e *sloEngine) status() SLOStatus {
	st := SLOStatus{
		EpochMS:      e.cfg.Epoch.Milliseconds(),
		ShortWindowS: (time.Duration(e.short) * e.cfg.Epoch).Seconds(),
		LongWindowS:  (time.Duration(e.long) * e.cfg.Epoch).Seconds(),
		OK:           true,
	}
	for _, name := range sloClasses {
		c := e.classes[name]
		rec := c.lat.Merged(e.long)
		ep := EndpointSLO{
			Endpoint:  name,
			Requests:  c.total.CountWindow(e.long),
			Errors:    c.errs.CountWindow(e.long),
			Rejected:  c.rejected.CountWindow(e.long),
			LatencyMS: map[string]float64{},
		}
		for _, wq := range windowQuantiles {
			if q := rec.Quantile(wq.q); q == q { // skip NaN (empty window)
				ep.LatencyMS[wq.name] = q * 1000
			}
		}
		shortTotal := c.total.CountWindow(e.short)
		for i, o := range e.cfg.Latency {
			slowLong := c.slow[i].CountWindow(e.long)
			os := ObjectiveStatus{
				Name:       o.Name(),
				TargetMS:   float64(o.Target) / float64(time.Millisecond),
				BurnShort:  burnRate(c.slow[i].CountWindow(e.short), shortTotal, 1-o.Quantile),
				BurnLong:   burnRate(slowLong, ep.Requests, 1-o.Quantile),
				Violations: slowLong,
				Breaches:   c.breaches[i].Value(),
			}
			os.OK = os.BurnLong <= 1
			os.BudgetRemaining = max(0, 1-os.BurnLong)
			st.OK = st.OK && os.OK
			ep.Objectives = append(ep.Objectives, os)
		}
		if e.cfg.Availability > 0 {
			allowed := 1 - e.cfg.Availability/100
			os := ObjectiveStatus{
				Name:       "availability",
				TargetPct:  e.cfg.Availability,
				BurnShort:  burnRate(c.errs.CountWindow(e.short), shortTotal, allowed),
				BurnLong:   burnRate(ep.Errors, ep.Requests, allowed),
				Violations: ep.Errors,
				Breaches:   c.errsLife.Value(),
			}
			os.OK = os.BurnLong <= 1
			os.BudgetRemaining = max(0, 1-os.BurnLong)
			st.OK = st.OK && os.OK
			ep.Objectives = append(ep.Objectives, os)
		}
		st.Endpoints = append(st.Endpoints, ep)
	}
	return st
}

// writeText renders the status as an aligned human-readable table, the
// `?format=text` variant of GET /v1/slo.
func (st SLOStatus) writeText(w io.Writer) {
	overall := "OK"
	if !st.OK {
		overall = "VIOLATED"
	}
	fmt.Fprintf(w, "slo: %s (epoch %dms, windows %gs/%gs)\n",
		overall, st.EpochMS, st.ShortWindowS, st.LongWindowS)
	fmt.Fprintf(w, "%-14s %9s %7s %7s %9s %9s %9s %9s\n",
		"endpoint", "requests", "errors", "429", "p50_ms", "p95_ms", "p99_ms", "p999_ms")
	for _, ep := range st.Endpoints {
		q := func(name string) string {
			v, ok := ep.LatencyMS[name]
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%.1f", v)
		}
		fmt.Fprintf(w, "%-14s %9d %7d %7d %9s %9s %9s %9s\n",
			ep.Endpoint, ep.Requests, ep.Errors, ep.Rejected,
			q("p50"), q("p95"), q("p99"), q("p999"))
		for _, o := range ep.Objectives {
			state := "ok"
			if !o.OK {
				state = "VIOLATED"
			}
			target := fmt.Sprintf("%.0fms", o.TargetMS)
			if o.Name == "availability" {
				target = fmt.Sprintf("%g%%", o.TargetPct)
			}
			fmt.Fprintf(w, "  %-12s target=%-8s %-8s burn_short=%-8.2f burn_long=%-8.2f budget_remaining=%.2f violations=%d\n",
				o.Name, target, state, o.BurnShort, o.BurnLong, o.BudgetRemaining, o.Violations)
		}
	}
}

// families builds the windowed status into labeled gauge families for
// GET /metrics, after the tracer and runtime families: recent latency
// quantiles and windowed request/error counts by endpoint class, plus —
// when objectives are declared — burn rates and remaining budgets by
// endpoint class and objective.
func (e *sloEngine) families() []obs.Family {
	gauge := func(name string) obs.Family {
		return obs.Family{Name: name, Type: "gauge", Help: obs.MetricHelp[name]}
	}
	lat, reqs := gauge("server_window_latency_seconds"), gauge("server_window_requests")
	errs, rejected := gauge("server_window_errors"), gauge("server_window_rejected")
	burn, budget := gauge("server_slo_burn_rate"), gauge("server_slo_budget_remaining")
	sample := func(f *obs.Family, v float64, labels ...obs.Label) {
		f.Samples = append(f.Samples, obs.Sample{Labels: labels, Value: v})
	}
	short, long := obs.Label{Name: "window", Value: "short"}, obs.Label{Name: "window", Value: "long"}
	for _, ep := range e.status().Endpoints {
		endpoint := obs.Label{Name: "endpoint", Value: ep.Endpoint}
		for _, wq := range windowQuantiles {
			if v, ok := ep.LatencyMS[wq.name]; ok {
				sample(&lat, v/1000, endpoint, obs.Label{Name: "quantile", Value: fmt.Sprintf("%g", wq.q)})
			}
		}
		sample(&reqs, float64(ep.Requests), endpoint)
		sample(&errs, float64(ep.Errors), endpoint)
		sample(&rejected, float64(ep.Rejected), endpoint)
		for _, o := range ep.Objectives {
			objective := obs.Label{Name: "objective", Value: o.Name}
			sample(&burn, o.BurnShort, endpoint, objective, short)
			sample(&burn, o.BurnLong, endpoint, objective, long)
			sample(&budget, o.BudgetRemaining, endpoint, objective)
		}
	}
	fams := []obs.Family{lat, reqs, errs, rejected}
	if len(e.cfg.Latency) == 0 && e.cfg.Availability <= 0 {
		return fams
	}
	return append(fams, burn, budget)
}

// handleSLO serves GET /v1/slo: the SLO engine's per-endpoint objective
// status, error-budget burn and recent latency quantiles — all computed
// from sliding windows, never lifetime-cumulative totals.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	s.tracer.Counter(obs.CtrServerRequestPrefix + "slo").Add(1)
	st := s.slo.status()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		st.writeText(w)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// statusRecorder captures the status code written through a
// ResponseWriter so the SLO middleware can attribute the request.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}
