package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	validUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	validPath = regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
)

func rawSpec(t *testing.T) (string, []byte) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return root, raw
}

// keysOf decodes a JSON object and returns its keys, sorted.
func keysOf(t *testing.T, raw []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestBenchmarkJSONShape(t *testing.T) {
	root, raw := rawSpec(t)
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	if got, want := strings.Join(keysOf(t, raw), ","), "command,end_to_end,paths,per_layer,run_seconds,workloads"; got != want {
		t.Errorf("top-level keys %s, want %s", got, want)
	}
	var doc struct {
		Workloads []json.RawMessage `json:"workloads"`
		EndToEnd  []json.RawMessage `json:"end_to_end"`
		PerLayer  []json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what  string
		items []json.RawMessage
		keys  string
	}{
		{"workload", doc.Workloads, "name,why"},
		{"end-to-end metric", doc.EndToEnd, "better,bound,name,unit"},
		{"per-layer metric", doc.PerLayer, "better,name,unit"},
	} {
		for _, it := range tc.items {
			if got := strings.Join(keysOf(t, it), ","); got != tc.keys {
				t.Errorf("%s %s has keys %s, want %s", tc.what, it, got, tc.keys)
			}
		}
	}

	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Command) == 0 || len(sp.Command) > 32 {
		t.Errorf("command has %d strings", len(sp.Command))
	}
	for _, c := range sp.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(sp.Paths) < 1 || len(sp.Paths) > 16 {
		t.Errorf("%d paths", len(sp.Paths))
	}
	for _, p := range sp.Paths {
		if !validPath.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
		if st, err := os.Stat(filepath.Join(root, p)); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory: %v", p, err)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
	var wls []string
	for _, w := range sp.Workloads {
		wls = append(wls, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if got, want := strings.Join(wls, ","), strings.Join(workloadNames, ","); got != want {
		t.Errorf("declared workloads %s, the bench runs %s", got, want)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	var setup *metricDecl
	for i, d := range sp.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &sp.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s must be declared with unit s, lower is better: %+v", setup)
	}
	for _, d := range sp.EndToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

func TestMetricNamesValid(t *testing.T) {
	root, _ := rawSpec(t)
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	use := func(what, name string) {
		if !validName.MatchString(name) {
			t.Errorf("%s name %q does not match %s", what, name, validName)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", what, name)
		}
		seen[name] = true
	}
	for _, w := range sp.Workloads {
		use("workload", w.Name)
	}
	for _, group := range [][]metricDecl{sp.EndToEnd, sp.PerLayer} {
		for _, d := range group {
			use("metric", d.Name)
			if !validUnit.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: better %q", d.Name, d.Better)
			}
		}
	}
	for name, unit := range extraUnits {
		use("informational metric", name)
		if !validUnit.MatchString(unit) {
			t.Errorf("informational metric %s: unit %q", name, unit)
		}
	}
}

// TestSummaryCarriesExactlyTheDeclaredMetrics: the last output line
// carries the declared metrics of the run's kind and nothing else, and a
// declared metric left unmeasured fails the run.
func TestSummaryCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	root, _ := rawSpec(t)
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		vals := measured{"fail_rate": 0}
		for _, d := range sp.declared(traced) {
			vals[d.Name] = 1
		}
		r, err := finish(sp, "warm-explore", 1, traced, vals, &tally{attempted: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeSummary(&buf, r); err != nil {
			t.Fatal(err)
		}
		assertDeclared(t, sp, traced, buf.Bytes())
		delete(vals, sp.declared(traced)[0].Name)
		if _, err := finish(sp, "warm-explore", 1, traced, vals, &tally{attempted: 1}); err == nil {
			t.Errorf("traced=%v: a missing declared metric was not an error", traced)
		}
	}
}

// assertDeclared checks a summary line against the declaration: the
// right keys, every declared metric with its unit, no other metric.
func assertDeclared(t *testing.T, sp *spec, traced bool, line []byte) {
	t.Helper()
	var s map[string]json.RawMessage
	if err := json.Unmarshal(bytes.TrimSpace(line), &s); err != nil {
		t.Fatalf("summary line %q: %v", line, err)
	}
	if got := strings.Join(sortedKeys(s), ","); got != "attempted,correct,failed,metrics" {
		t.Fatalf("summary keys %s", got)
	}
	var ms map[string]metric
	if err := json.Unmarshal(s["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, d := range sp.declared(traced) {
		want[d.Name] = d.Unit
	}
	if len(ms) != len(want) {
		t.Errorf("traced=%v: summary has %d metrics, %d declared", traced, len(ms), len(want))
	}
	for name, unit := range want {
		if m, ok := ms[name]; !ok || m.Unit != unit {
			t.Errorf("traced=%v: summary metric %s = %+v, want unit %s", traced, name, m, unit)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
