package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hdiv "repro"
	"repro/internal/obs"
)

func sampleTable(t *testing.T) *hdiv.Table {
	t.Helper()
	return hdiv.NewTableBuilder().
		AddFloat("x", []float64{1, 0, 2, 0}).
		AddCategorical("flag", []string{"true", "false", "YES", "no"}).
		AddCategorical("g", []string{"a", "b", "a", "b"}).
		MustBuild()
}

func TestBoolColumnNumeric(t *testing.T) {
	tab := sampleTable(t)
	got, err := hdiv.BoolColumn(tab, "x")
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boolColumn(x) = %v", got)
		}
	}
}

func TestBoolColumnCategorical(t *testing.T) {
	tab := sampleTable(t)
	got, err := hdiv.BoolColumn(tab, "flag")
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boolColumn(flag) = %v", got)
		}
	}
}

func TestBoolColumnErrors(t *testing.T) {
	tab := sampleTable(t)
	if _, err := hdiv.BoolColumn(tab, "missing"); err == nil {
		t.Error("missing column should fail")
	}
	if _, err := hdiv.BoolColumn(tab, "g"); err == nil {
		t.Error("non-boolean levels should fail")
	}
}

// TestBuildOutcome checks the statistic resolution the CLI runs for each
// -stat (hdiv.BuildStatistic, shared with the server).
func TestBuildOutcome(t *testing.T) {
	tab := hdiv.NewTableBuilder().
		AddFloat("income", []float64{10, 20, 30}).
		AddCategorical("y", []string{"true", "false", "true"}).
		AddCategorical("p", []string{"true", "true", "false"}).
		MustBuild()

	o, excl, err := hdiv.BuildStatistic(tab, "numeric", "", "", "income")
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != "income" || len(excl) != 1 || excl[0] != "income" {
		t.Errorf("numeric outcome wrong: %v %v", o.Name, excl)
	}

	for _, stat := range []string{"fpr", "fnr", "error", "accuracy"} {
		o, excl, err := hdiv.BuildStatistic(tab, stat, "y", "p", "")
		if err != nil {
			t.Fatalf("%s: %v", stat, err)
		}
		if o == nil || len(excl) != 2 {
			t.Errorf("%s: outcome/excludes wrong", stat)
		}
	}

	if _, _, err := hdiv.BuildStatistic(tab, "numeric", "", "", ""); err == nil {
		t.Error("numeric without target should fail")
	}
	if _, _, err := hdiv.BuildStatistic(tab, "numeric", "", "", "nope"); err == nil {
		t.Error("numeric with missing target should fail")
	}
	if _, _, err := hdiv.BuildStatistic(tab, "fpr", "", "", ""); err == nil {
		t.Error("fpr without labels should fail")
	}
	if _, _, err := hdiv.BuildStatistic(tab, "wat", "y", "p", ""); err == nil {
		t.Error("unknown stat should fail")
	}
}

// anomalyCSV writes a CSV with a planted anomaly (the x > 80 tail is
// mispredicted) and returns its path.
func anomalyCSV(t *testing.T) string {
	t.Helper()
	n := 600
	x := make([]float64, n)
	y := make([]string, n)
	p := make([]string, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i % 100)
		y[i] = "false"
		if i%2 == 0 {
			y[i] = "true"
		}
		p[i] = y[i]
		if x[i] > 80 { // mispredict the tail
			if p[i] == "true" {
				p[i] = "false"
			} else {
				p[i] = "true"
			}
		}
	}
	tab := hdiv.NewTableBuilder().
		AddFloat("x", x).
		AddCategorical("y", y).
		AddCategorical("p", p).
		MustBuild()
	path := filepath.Join(t.TempDir(), "d.csv")
	if err := tab.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	path := anomalyCSV(t)

	// base returns the default flag values targeting the sample CSV, with
	// output discarded.
	base := func() cliConfig {
		return cliConfig{
			dataPath: path, actualCol: "y", predCol: "p",
			stat: "error", criterion: "divergence", mode: "hierarchical",
			algorithm: "fpgrowth", format: "text",
			s: 0.05, st: 0.1, top: 5,
			stdout: io.Discard, stderr: io.Discard,
		}
	}

	if err := run(base()); err != nil {
		t.Fatal(err)
	}
	alt := base()
	alt.criterion, alt.mode, alt.algorithm = "entropy", "base", "apriori"
	alt.minT, alt.polarity, alt.maxLen, alt.workers = 2, true, 2, 2
	if err := run(alt); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"csv", "json"} {
		c := base()
		c.format = format
		if err := run(c); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
	}

	// Error paths.
	for name, mutate := range map[string]func(*cliConfig){
		"missing -data": func(c *cliConfig) { c.dataPath = "" },
		"bad criterion": func(c *cliConfig) { c.criterion = "nope" },
		"bad mode":      func(c *cliConfig) { c.mode = "nope" },
		"bad algorithm": func(c *cliConfig) { c.algorithm = "nope" },
		"bad format":    func(c *cliConfig) { c.format = "nope" },
		"missing file":  func(c *cliConfig) { c.dataPath += ".missing" },
		"bad stat":      func(c *cliConfig) { c.stat = "nope" },
	} {
		c := base()
		mutate(&c)
		if err := run(c); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
}

// TestTraceOutputs exercises -trace, -trace-json, -cpuprofile and
// -memprofile: the human tree goes to stderr, the JSON snapshot covers
// the four pipeline stages (parse, discretize, mine, rank) with the
// pruning counters, and both pprof files are produced.
func TestTraceOutputs(t *testing.T) {
	path := anomalyCSV(t)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "trace.json")
	var out, errBuf bytes.Buffer
	c := cliConfig{
		dataPath: path, actualCol: "y", predCol: "p",
		stat: "fpr", criterion: "divergence", mode: "hierarchical",
		algorithm: "fpgrowth", format: "text",
		s: 0.05, st: 0.1, top: 5, polarity: true,
		trace: true, traceJSON: jsonPath,
		cpuProfile: filepath.Join(dir, "cpu.pprof"),
		memProfile: filepath.Join(dir, "mem.pprof"),
		stdout:     &out, stderr: &errBuf,
	}
	if err := run(c); err != nil {
		t.Fatal(err)
	}

	for _, want := range []string{"read_csv", "discretize", "explore", "mine", "counters:"} {
		if !strings.Contains(errBuf.String(), want) {
			t.Errorf("-trace stderr missing %q:\n%s", want, errBuf.String())
		}
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Spans []struct {
			Name  string `json:"name"`
			DurNS int64  `json:"dur_ns"`
		} `json:"spans"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("-trace-json output is not parseable JSON: %v", err)
	}
	names := map[string]bool{}
	for _, s := range trace.Spans {
		names[s.Name] = true
		if s.DurNS < 0 {
			t.Errorf("span %s has negative duration", s.Name)
		}
	}
	for _, want := range []string{"read_csv", "read_csv.parse", "discretize", "discretize.tree:x", "explore", "explore.universe", "mine", "explore.rank"} {
		if !names[want] {
			t.Errorf("trace JSON missing span %q (have %v)", want, names)
		}
	}
	for _, want := range []string{"fpm.candidates", "fpm.pruned_support", "fpm.pruned_polarity", "fpm.itemsets_emitted", "dataset.rows"} {
		if _, ok := trace.Counters[want]; !ok {
			t.Errorf("trace JSON missing counter %q (have %v)", want, trace.Counters)
		}
	}
	if trace.Counters["dataset.rows"] != 600 {
		t.Errorf("dataset.rows = %d, want 600", trace.Counters["dataset.rows"])
	}

	for _, p := range []string{c.cpuProfile, c.memProfile} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestProgressAndChromeTrace exercises -progress (at least one ticker
// line lands on stderr even for a sub-500ms run) and -trace-chrome (the
// exported file passes structural Chrome-trace validation).
func TestProgressAndChromeTrace(t *testing.T) {
	path := anomalyCSV(t)
	chromePath := filepath.Join(t.TempDir(), "chrome.json")
	var out, errBuf bytes.Buffer
	c := cliConfig{
		dataPath: path, actualCol: "y", predCol: "p",
		stat: "error", criterion: "divergence", mode: "hierarchical",
		algorithm: "fpgrowth", format: "text",
		s: 0.05, st: 0.1, top: 5,
		progress: true, traceChrome: chromePath,
		stdout: &out, stderr: &errBuf,
	}
	if err := run(c); err != nil {
		t.Fatal(err)
	}

	lines := 0
	var last string
	for _, line := range strings.Split(errBuf.String(), "\n") {
		if strings.HasPrefix(line, "progress: ") {
			lines++
			last = line
		}
	}
	if lines < 1 {
		t.Fatalf("-progress printed no ticker lines:\n%s", errBuf.String())
	}
	for _, want := range []string{"level=", "candidates=", "pruned=", "frequent=", "elapsed="} {
		if !strings.Contains(last, want) {
			t.Errorf("progress line missing %q: %s", want, last)
		}
	}

	f, err := os.Open(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := obs.ValidateChromeTrace(f)
	if err != nil {
		t.Fatalf("-trace-chrome output invalid: %v", err)
	}
	if n < 10 { // parse + discretize + explore spans → well over 10 events
		t.Errorf("chrome trace has only %d events", n)
	}
}

// TestExplainOutputs exercises -explain and -explain-json: the aligned
// cost-attribution table lands on stderr with per-stage self times and
// the mining counters, and the JSON profile round-trips with the
// self-time invariant intact (stage self times sum exactly to the
// total, so the "within 10% of total" contract holds with margin).
func TestExplainOutputs(t *testing.T) {
	path := anomalyCSV(t)
	jsonPath := filepath.Join(t.TempDir(), "explain.json")
	var out, errBuf bytes.Buffer
	c := cliConfig{
		dataPath: path, actualCol: "y", predCol: "p",
		stat: "error", criterion: "divergence", mode: "hierarchical",
		algorithm: "fpgrowth", format: "text",
		s: 0.05, st: 0.1, top: 5, workers: 2, shards: 2,
		explain: true, explainJSON: jsonPath,
		stdout: &out, stderr: &errBuf,
	}
	if err := run(c); err != nil {
		t.Fatal(err)
	}

	for _, want := range []string{
		"explain", "stage", "self%",
		"explore.universe", "mine", "explore.rank",
		"mining: candidates=",
	} {
		if !strings.Contains(errBuf.String(), want) {
			t.Errorf("-explain stderr missing %q:\n%s", want, errBuf.String())
		}
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var ex obs.Explain
	if err := json.Unmarshal(raw, &ex); err != nil {
		t.Fatalf("-explain-json output is not a profile: %v", err)
	}
	if ex.TotalNS <= 0 || len(ex.Stages) == 0 {
		t.Fatalf("profile empty: %+v", ex)
	}
	var selfSum int64
	for _, st := range ex.Stages {
		selfSum += st.SelfNS
	}
	if selfSum != ex.TotalNS {
		t.Errorf("sum(SelfNS)=%d != TotalNS=%d", selfSum, ex.TotalNS)
	}
	if ex.Mining.Candidates <= 0 {
		t.Errorf("mining counters empty: %+v", ex.Mining)
	}

	// -explain-json without -explain writes the file but keeps stderr
	// quiet.
	jsonOnly := filepath.Join(t.TempDir(), "only.json")
	var errQuiet bytes.Buffer
	c2 := c
	c2.explain, c2.explainJSON, c2.stderr = false, jsonOnly, &errQuiet
	if err := run(c2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(jsonOnly); err != nil {
		t.Errorf("-explain-json alone did not write the profile: %v", err)
	}
	if strings.Contains(errQuiet.String(), "mining: candidates=") {
		t.Errorf("-explain-json alone printed the text table:\n%s", errQuiet.String())
	}
}

// TestJSONIncludesRunStats asserts -format json carries the run metadata
// (elapsed time, universe size, mining counters), not just subgroups.
func TestJSONIncludesRunStats(t *testing.T) {
	path := anomalyCSV(t)
	var out bytes.Buffer
	c := cliConfig{
		dataPath: path, actualCol: "y", predCol: "p",
		stat: "error", criterion: "divergence", mode: "hierarchical",
		algorithm: "fpgrowth", format: "json",
		s: 0.05, st: 0.1, top: 5,
		stdout: &out, stderr: io.Discard,
	}
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Global    float64 `json:"global"`
		NumRows   int     `json:"num_rows"`
		NumItems  int     `json:"num_items"`
		ElapsedMS float64 `json:"elapsed_ms"`
		Mining    struct {
			Candidates int `json:"candidates"`
			Frequent   int `json:"frequent"`
		} `json:"mining"`
		Subgroups []json.RawMessage `json:"subgroups"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.NumRows != 600 || rep.NumItems == 0 {
		t.Errorf("sizes wrong: %+v", rep)
	}
	if rep.ElapsedMS <= 0 {
		t.Errorf("elapsed_ms missing: %v", rep.ElapsedMS)
	}
	if rep.Mining.Candidates == 0 || rep.Mining.Frequent != len(rep.Subgroups) {
		t.Errorf("mining stats wrong: %+v with %d subgroups", rep.Mining, len(rep.Subgroups))
	}
}

// TestFlagValidation pins the usage-error contract: invalid flag values
// are rejected up front with a usageError (exit status 2 in main), while
// runtime failures stay ordinary errors (exit status 1).
func TestFlagValidation(t *testing.T) {
	path := anomalyCSV(t)
	base := func() cliConfig {
		return cliConfig{
			dataPath: path, actualCol: "y", predCol: "p",
			stat: "error", criterion: "divergence", mode: "hierarchical",
			algorithm: "fpgrowth", format: "text",
			s: 0.05, st: 0.1, top: 5,
			stdout: io.Discard, stderr: io.Discard,
		}
	}

	tests := []struct {
		name    string
		mutate  func(*cliConfig)
		wantMsg string
	}{
		{"negative workers", func(c *cliConfig) { c.workers = -1 }, "-workers"},
		{"negative shards", func(c *cliConfig) { c.shards = -3 }, "-shards"},
		{"zero s", func(c *cliConfig) { c.s = 0; c.stat = "error" }, "-s"},
		{"negative s", func(c *cliConfig) { c.s = -0.1 }, "-s"},
		{"s above one", func(c *cliConfig) { c.s = 1.5 }, "-s"},
		{"zero st", func(c *cliConfig) { c.st = 0 }, "-st"},
		{"st above one", func(c *cliConfig) { c.st = 2 }, "-st"},
		{"negative maxlen", func(c *cliConfig) { c.maxLen = -1 }, "-maxlen"},
		{"duplicate stats", func(c *cliConfig) { c.stats = "fpr,fpr" }, "twice"},
		{"empty stats list", func(c *cliConfig) { c.stats = " , ," }, "-stats"},
		// A statistic the list cannot build fails before any data is read.
		{"unknown stat", func(c *cliConfig) { c.stat = "wat"; c.dataPath += ".missing" }, "-stat"},
		{"numeric without target", func(c *cliConfig) { c.stats = "error,numeric"; c.dataPath += ".missing" }, "target"},
		// So does an unknown output format.
		{"unknown format", func(c *cliConfig) { c.format = "nope"; c.dataPath += ".missing" }, "-format"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := base()
			tt.mutate(&c)
			err := run(c)
			if err == nil {
				t.Fatal("want error, got nil")
			}
			var ue usageError
			if !errors.As(err, &ue) {
				t.Fatalf("want usageError, got %T: %v", err, err)
			}
			if !strings.Contains(err.Error(), tt.wantMsg) {
				t.Errorf("message %q does not mention %q", err.Error(), tt.wantMsg)
			}
		})
	}

	// Runtime failures must NOT be usage errors.
	c := base()
	c.dataPath += ".missing"
	err := run(c)
	if err == nil {
		t.Fatal("missing file should fail")
	}
	var ue usageError
	if errors.As(err, &ue) {
		t.Errorf("missing file should be a runtime error, not usageError")
	}

	// The zero-value s/st the flag defaults never produce (flags default
	// 0.05/0.1) still pass through unchanged for valid settings.
	if err := run(base()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestRunMultiStats exercises -stats fpr,fnr,error across all three
// output formats: one mining pass, one report per statistic.
func TestRunMultiStats(t *testing.T) {
	path := anomalyCSV(t)
	base := func(format string, out io.Writer) cliConfig {
		return cliConfig{
			dataPath: path, actualCol: "y", predCol: "p",
			stat: "error", stats: "fpr,fnr,error",
			criterion: "divergence", mode: "hierarchical",
			algorithm: "fpgrowth", format: format,
			s: 0.05, st: 0.1, top: 5,
			stdout: out, stderr: io.Discard,
		}
	}

	var jsonOut bytes.Buffer
	if err := run(base("json", &jsonOut)); err != nil {
		t.Fatal(err)
	}
	var arr []struct {
		Stat   string `json:"stat"`
		Report struct {
			Global    float64           `json:"global"`
			NumRows   int               `json:"num_rows"`
			Subgroups []json.RawMessage `json:"subgroups"`
		} `json:"report"`
	}
	if err := json.Unmarshal(jsonOut.Bytes(), &arr); err != nil {
		t.Fatalf("-stats json output not an array: %v", err)
	}
	if len(arr) != 3 {
		t.Fatalf("got %d reports, want 3", len(arr))
	}
	for i, want := range []string{"fpr", "fnr", "error"} {
		if arr[i].Stat != want {
			t.Errorf("report %d stat = %q, want %q", i, arr[i].Stat, want)
		}
		if arr[i].Report.NumRows != 600 || len(arr[i].Report.Subgroups) == 0 {
			t.Errorf("report %d looks empty: rows=%d subgroups=%d",
				i, arr[i].Report.NumRows, len(arr[i].Report.Subgroups))
		}
	}

	var csvOut bytes.Buffer
	if err := run(base("csv", &csvOut)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# stat=fpr", "# stat=fnr", "# stat=error"} {
		if !strings.Contains(csvOut.String(), want) {
			t.Errorf("csv output missing separator %q", want)
		}
	}

	var txtOut bytes.Buffer
	if err := run(base("text", &txtOut)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== statistic: fpr ==", "== statistic: fnr ==", "== statistic: error =="} {
		if !strings.Contains(txtOut.String(), want) {
			t.Errorf("text output missing header %q", want)
		}
	}
}
