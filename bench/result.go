package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// spec is the benchmark declaration in BENCHMARK.json at the repository
// root: the command, the workloads, and every metric with its unit, and
// for end-to-end metrics the direction and regression bound.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// declared returns the metrics a run prints: end-to-end metrics for an
// untraced run, per-layer metrics for a traced one.
func (s *spec) declared(traced bool) []metricDecl {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run. Metrics holds exactly the declared metrics
// of the run's kind; Extra holds the informational numbers, never gated:
// those that exist on some workloads only (server counters, append
// latency, recovery time, load-generator validity) and the tail latency,
// whose run-to-run spread no declarable bound covers.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
}

// tally counts operations and output checks; every failed operation and
// every failed check counts against the run.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.note(err.Error())
	}
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.note(fmt.Sprintf(format, args...))
	}
}

// note keeps the first few failure messages for the report.
func (t *tally) note(msg string) {
	if len(t.failures) < 20 {
		t.failures = append(t.failures, msg)
	}
}

// measured collects a workload's raw metric values by name before units
// are attached from the declaration.
type measured map[string]float64

// finish turns raw values into a result: declared metrics get their units
// from BENCHMARK.json and must all be present; anything else a workload
// measured lands in Extra with the unit extraUnits gives it.
func finish(s *spec, wl string, seed int64, traced bool, vals measured, t *tally) (*result, error) {
	r := &result{
		Workload: wl, Seed: seed, Traced: traced,
		Attempted: t.attempted, Failed: t.failed, Failures: t.failures,
		Correct: t.failed == 0 && t.attempted > 0,
		Metrics: map[string]metric{}, Extra: map[string]metric{},
	}
	decl := map[string]bool{}
	for _, d := range s.declared(traced) {
		decl[d.Name] = true
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: declared metric %s was not measured", wl, d.Name)
		}
		r.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for name, v := range vals {
		if decl[name] {
			continue
		}
		unit, ok := extraUnits[name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s is neither declared nor a known extra", wl, name)
		}
		r.Extra[name] = metric{Value: v, Unit: unit}
	}
	return r, nil
}

// extraUnits lists the informational metrics and their units.
var extraUnits = map[string]string{
	"sweep_s":                         "s",
	"explore_p90_ms":                  "ms",
	"append_p50_ms":                   "ms",
	"append_p90_ms":                   "ms",
	"recovery_s":                      "s",
	"recovery.pinned_mismatches":      "count",
	"fail_rate":                       "ratio",
	"loadgen.late_p90_ms":             "ms",
	"loadgen.queue_wait_p50_ms":       "ms",
	"engine.pool_hit_ratio":           "ratio",
	"server.cache_hit_ratio":          "ratio",
	"server.incremental_ratio":        "ratio",
	"server.drift_remines_per_append": "ratio",
	"server.rejected":                 "count",
	"wal.fsyncs_per_record":           "ratio",
	"daemon.gomaxprocs":               "count",
	"host.steal_pct":                  "%",
}

// printLines writes one "workload metric value unit" line per metric,
// declared ones first, each group in name order.
func printLines(w io.Writer, r *result) {
	for _, group := range []map[string]metric{r.Metrics, r.Extra} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group[n]
			fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, n, m.Value, m.Unit)
		}
	}
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeSummary(w io.Writer, r *result) error {
	raw, err := json.Marshal(summaryLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// resultFile is the content of DIR/result.json.
type resultFile struct {
	Env     envStamp  `json:"env"`
	Results []*result `json:"results"`
}

func writeResultFile(dir string, f *resultFile) error {
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(raw, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
