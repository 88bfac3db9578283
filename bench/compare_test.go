package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareGatesOnBounds(t *testing.T) {
	sp := &spec{EndToEnd: []metricDecl{
		{Name: "explore_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "explore_rate", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	dir := t.TempDir()
	write := func(name string, p50, rate float64) string {
		if err := writeResultFile(filepath.Join(dir, name), &resultFile{Results: []*result{{
			Workload: "warm-explore",
			Metrics: map[string]metric{
				"explore_p50_ms": {Value: p50, Unit: "ms"},
				"explore_rate":   {Value: rate, Unit: "1/s"},
			},
		}}}); err != nil {
			t.Fatal(err)
		}
		return filepath.Join(dir, name, "result.json")
	}
	a1, a2 := write("a1", 10, 50), write("a2", 11, 52)
	same, slower := write("b1", 10.5, 51), write("b2", 13, 51)
	for _, tc := range []struct {
		b    string
		code int
		want string
	}{
		{same, 0, "within"},
		{slower, 1, "WORSE"},
	} {
		var out, errb bytes.Buffer
		if code := runCompare(sp, []string{a1, a2, "--", tc.b}, &out, &errb); code != tc.code {
			t.Errorf("compare against %s: exit %d, want %d\n%s%s", filepath.Base(tc.b), code, tc.code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("compare against %s: no %q verdict in\n%s", filepath.Base(tc.b), tc.want, out.String())
		}
	}
	if code := runCompare(sp, []string{a1}, new(bytes.Buffer), new(bytes.Buffer)); code != 2 {
		t.Errorf("compare without a B side: exit %d, want 2", code)
	}
}
