package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/outcome"
)

// TestParseStats pins the one statistic-list parser: lower case, trimmed,
// blanks dropped, duplicates and empty lists rejected.
func TestParseStats(t *testing.T) {
	got, err := ParseStats([]string{" FPR", "", "error ", "Numeric"})
	if err != nil || !reflect.DeepEqual(got, []string{"fpr", "error", "numeric"}) {
		t.Errorf("ParseStats = %v, %v", got, err)
	}
	for _, raw := range [][]string{nil, {" ", ""}} {
		if _, err := ParseStats(raw); err == nil {
			t.Errorf("ParseStats(%q) should fail", raw)
		}
	}
	if _, err := ParseStats([]string{"fpr", "FPR"}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate: err = %v", err)
	}
}

// TestBuildBundle checks the bundle and its exclusion set: one outcome
// per statistic in order, every statistic's label columns in first-seen
// order (StatInputs, case-insensitive), and a supplied primary kept as
// the bundle's primary.
func TestBuildBundle(t *testing.T) {
	tab := dataset.NewBuilder().
		AddFloat("x", []float64{1, 2, 3, 4}).
		AddFloat("t", []float64{10, 20, 30, 40}).
		AddCategorical("y", []string{"true", "false", "true", "false"}).
		AddCategorical("p", []string{"true", "true", "false", "false"}).
		MustBuild()
	excl, err := StatInputs([]string{"Numeric", "fpr", "error"}, "y", "p", "t")
	if err != nil || !reflect.DeepEqual(excl, []string{"t", "y", "p"}) {
		t.Errorf("exclusion set = %v, %v, want [t y p]", excl, err)
	}
	b, err := BuildBundle(tab, []string{"numeric", "fpr", "error"}, nil, "y", "p", "t")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 || b.Primary().Name != "t" {
		t.Errorf("bundle: len %d, primary %q", b.Len(), b.Primary().Name)
	}

	primary := outcome.Numeric("t", tab.Floats("t"))
	b, err = BuildBundle(tab, []string{"numeric", "error"}, primary, "y", "p", "t")
	if err != nil || b.Primary() != primary {
		t.Errorf("supplied primary not kept: %v", err)
	}

	for name, tc := range map[string]struct {
		stats  []string
		actual string
	}{
		"empty":          {nil, "y"},
		"unknown":        {[]string{"error", "wat"}, "y"},
		"no target":      {[]string{"numeric"}, "y"},
		"missing column": {[]string{"error", "fnr"}, "nope"},
	} {
		if _, err := BuildBundle(tab, tc.stats, nil, tc.actual, "p", ""); err == nil {
			t.Errorf("%s: want error", name)
		}
		// StatInputs reads no table: only a missing column passes it.
		if _, err := StatInputs(tc.stats, tc.actual, "p", ""); (err == nil) != (name == "missing column") {
			t.Errorf("%s: StatInputs error %v", name, err)
		}
	}
}

// TestWriteReports pins the renderings: an unlabelled report is one JSON
// object or one CSV block; labelled reports are a {stat, report} array or
// CSV blocks each preceded by "# stat=<name>".
func TestWriteReports(t *testing.T) {
	tab, o, hs := fixture(t, 400, 3)
	b, err := outcome.NewBundle(o, outcome.Numeric("x", tab.Floats("x")))
	if err != nil {
		t.Fatal(err)
	}
	reps, err := ExploreMulti(tab, Config{Hierarchies: hs, MinSupport: 0.2}, b)
	if err != nil {
		t.Fatal(err)
	}
	stats := []string{"error", "numeric"}
	render := func(format string, labelled bool) string {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteReports(&buf, format, stats, reps, labelled); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	var csv0, csv1 bytes.Buffer
	reps[0].WriteCSV(&csv0)
	reps[1].WriteCSV(&csv1)
	if got := render("CSV", false); got != csv0.String() {
		t.Errorf("unlabelled csv:\n%s\nwant:\n%s", got, csv0.String())
	}
	if got, want := render("csv", true), "# stat=error\n"+csv0.String()+"# stat=numeric\n"+csv1.String(); got != want {
		t.Errorf("labelled csv:\n%s\nwant:\n%s", got, want)
	}
	raw, err := json.MarshalIndent(reps[0], "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := render("", false); got != string(raw)+"\n" {
		t.Errorf("unlabelled json differs from the indented report")
	}
	var arr []struct {
		Stat   string          `json:"stat"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal([]byte(render("json", true)), &arr); err != nil || len(arr) != 2 || arr[0].Stat != "error" || arr[1].Stat != "numeric" {
		t.Errorf("labelled json: %v %+v", err, arr)
	}
	if err := WriteReports(&bytes.Buffer{}, "text", stats, reps, false); err == nil {
		t.Error("unknown format should fail")
	}
}
