package server

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	hdiv "repro"
	"repro/internal/obs"
)

// reuseRow is row i of reuseTable: two continuous attributes, a
// categorical one whose levels d and e cover 4% and 3% of rows (frequent
// at s 0.02, not at s 0.05), and labels whose errors concentrate where
// x > 70 and g is "a", so itemsets of several attributes are frequent and
// divergent.
func reuseRow(i int) (x, z float64, g, y, p string) {
	x = float64(i * 7 % 100)
	z = float64(i * 37 % 53)
	switch b := i * 13 % 100; {
	case b < 50:
		g = "a"
	case b < 73:
		g = "b"
	case b < 93:
		g = "c"
	case b < 97:
		g = "d"
	default:
		g = "e"
	}
	y = "false"
	if i%2 == 0 {
		y = "true"
	}
	p = y
	if (x > 70 && g == "a") || i%11 == 0 {
		p = map[string]string{"true": "false", "false": "true"}[y]
	}
	return x, z, g, y, p
}

func reuseTable(t *testing.T, n int) *hdiv.Table {
	t.Helper()
	xs, zs := make([]float64, n), make([]float64, n)
	gs, ys, ps := make([]string, n), make([]string, n), make([]string, n)
	for i := range xs {
		xs[i], zs[i], gs[i], ys[i], ps[i] = reuseRow(i)
	}
	return hdiv.NewTableBuilder().AddFloat("x", xs).AddFloat("z", zs).
		AddCategorical("g", gs).AddCategorical("y", ys).AddCategorical("p", ps).MustBuild()
}

// reuseBatch is an append body of reuseTable's rows lo..hi-1.
func reuseBatch(lo, hi int) string {
	var rows []string
	for i := lo; i < hi; i++ {
		x, z, g, y, p := reuseRow(i)
		rows = append(rows, fmt.Sprintf(`[%g,%g,%q,%q,%q]`, x, z, g, y, p))
	}
	return `{"columns":["x","z","g","y","p"],"rows":[` + strings.Join(rows, ",") + `]}`
}

// cachedEntries returns the server's built cache entries at epoch.
func cachedEntries(s *Server, epoch uint64) []*cacheEntry {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	var out []*cacheEntry
	for k, el := range s.cache.entries {
		if e := el.Value.(*lruItem).entry; k.epoch == epoch && e.built() {
			out = append(out, e)
		}
	}
	return out
}

// holdsTree reports whether any universe of entries keeps a root FP-tree.
func holdsTree(entries []*cacheEntry) bool {
	for _, e := range entries {
		for _, u := range e.uni {
			if u.HoldsTree() {
				return true
			}
		}
	}
	return false
}

var reuseReq = ExploreRequest{Dataset: "d", Stat: "error", Actual: "y", Predicted: "p", ST: 0.1, Polarity: true}

// askCSVAndExplain explores req as CSV, then as JSON with explain: two
// mines of the same view.
func askCSVAndExplain(t *testing.T, s *Server, req ExploreRequest) ([]byte, *obs.Explain) {
	t.Helper()
	req.Format = "csv"
	rec := postExplore(t, s, req)
	if rec.Code != 200 {
		t.Fatalf("csv explore at s %v: %d %s", req.S, rec.Code, rec.Body.String())
	}
	req.Format, req.Explain = "", true
	return rec.Body.Bytes(), deterministicExplain(t, postExplore(t, s, req))
}

// TestKeptTreeReplyMatchesFreshDaemon explores one view at s 0.02 and then
// at s 0.05 twice, so the universe keeps the tree of its s 0.02 order and
// the s 0.05 requests mine from its top. Their CSV and deterministic
// explain must equal a daemon's that only ever saw s 0.05.
func TestKeptTreeReplyMatchesFreshDaemon(t *testing.T) {
	cfg := Config{Datasets: []DatasetConfig{{Name: "d", Table: reuseTable(t, 1500)}}}
	req := reuseReq
	req.S = 0.05
	ref := newTestServer(t, cfg)
	wantCSV, wantEx := askCSVAndExplain(t, ref, req)
	if n := bytes.Count(wantCSV, []byte("\n")); n < 30 {
		t.Fatalf("reference reply has %d lines; the case needs a deeper lattice:\n%s", n, wantCSV)
	}

	s := newTestServer(t, cfg)
	low := req
	low.S = 0.02
	askCSVAndExplain(t, s, low)
	if !holdsTree(cachedEntries(s, 1)) {
		t.Fatal("the s 0.02 view kept no tree after its second mine")
	}
	for i := 0; i < 2; i++ {
		gotCSV, gotEx := askCSVAndExplain(t, s, req)
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Fatalf("s 0.05 request %d after s 0.02: CSV differs from a fresh daemon's\n got:\n%s\nwant:\n%s", i, gotCSV, wantCSV)
		}
		if !reflect.DeepEqual(gotEx, wantEx) {
			t.Fatalf("s 0.05 request %d after s 0.02: explain differs from a fresh daemon's\n got %+v\nwant %+v", i, gotEx, wantEx)
		}
	}
}

// TestRetentionReleasesKeptTrees pins the retention sweep's tree release:
// after an append, the superseded epoch's entry keeps no root FP-tree, and
// pinned requests to that epoch build theirs and still return the
// pre-append reply byte for byte, without keeping a tree again.
func TestRetentionReleasesKeptTrees(t *testing.T) {
	s := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "d", Table: reuseTable(t, 1200)}}})
	req := reuseReq
	req.S, req.Format = 0.05, "csv"
	var pre []byte
	for i := 0; i < 2; i++ {
		rec := postExplore(t, s, req)
		if rec.Code != 200 {
			t.Fatalf("explore %d: %d %s", i, rec.Code, rec.Body.String())
		}
		pre = rec.Body.Bytes()
	}
	old := cachedEntries(s, 1)
	if !holdsTree(old) {
		t.Fatal("epoch 1 kept no tree after two mines")
	}
	if rec := postAppend(t, s, "d", reuseBatch(1200, 1300)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	if holdsTree(old) {
		t.Fatal("epoch 1 still keeps a tree after the append")
	}
	pinned := req
	pinned.Epoch = 1
	for i := 0; i < 2; i++ {
		rec := postExplore(t, s, pinned)
		if rec.Code != 200 {
			t.Fatalf("pinned explore %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), pre) {
			t.Fatalf("pinned explore %d differs from the pre-append reply\n got:\n%s\nwant:\n%s", i, rec.Body.Bytes(), pre)
		}
	}
	if holdsTree(cachedEntries(s, 1)) {
		t.Fatal("pinned requests to a superseded epoch kept a tree again")
	}
	if rec := postExplore(t, s, req); rec.Code != 200 || bytes.Equal(rec.Body.Bytes(), pre) {
		t.Fatalf("current-epoch explore: %d, identical to epoch 1's reply %v", rec.Code, bytes.Equal(rec.Body.Bytes(), pre))
	}
}
