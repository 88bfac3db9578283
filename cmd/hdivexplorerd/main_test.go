package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fpm"
	"repro/internal/server"
)

// writeTestCSV materializes a small dataset with a mispredicted x > 80
// tail, mirroring the server package's anomaly fixture.
func writeTestCSV(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("x,y,p\n")
	for i := 0; i < 600; i++ {
		x := i % 100
		y := "false"
		if i%2 == 0 {
			y = "true"
		}
		p := y
		if x > 80 {
			if p == "true" {
				p = "false"
			} else {
				p = "true"
			}
		}
		fmt.Fprintf(&b, "%d,%s,%s\n", x, y, p)
	}
	path := t.TempDir() + "/anomaly.csv"
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// startDaemon runs the daemon on a random port and returns its base URL
// plus the channel run's error arrives on.
func startDaemon(t *testing.T, cfg daemonConfig) (string, chan error) {
	t.Helper()
	addrc := make(chan string, 1)
	cfg.addr = "127.0.0.1:0"
	cfg.onListen = func(addr string) { addrc <- addr }
	runErr := make(chan error, 1)
	go func() { runErr <- run(cfg) }()
	select {
	case addr := <-addrc:
		return "http://" + addr, runErr
	case err := <-runErr:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never bound its listener")
	}
	return "", nil
}

// get fetches a URL and returns status plus body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// awaitReady polls /readyz until it answers 200 (the loading gate has
// been swapped for the real handler).
func awaitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if code, _ := get(t, base+"/readyz"); code == 200 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("daemon never became ready")
}

// TestDaemonLifecycle drives a real daemon through its states: liveness
// up immediately, readiness gating the dataset load (covering the
// loading-gate handler swap), a budgeted exploration answering 200 with
// the report flagged truncated, and a clean SIGTERM-triggered drain.
func TestDaemonLifecycle(t *testing.T) {
	base, runErr := startDaemon(t, daemonConfig{
		datasets: []server.DatasetConfig{{Name: "anomaly", Path: writeTestCSV(t)}},
		timeout:  30 * time.Second,
		drain:    30 * time.Second,
		budget:   fpm.Budget{MaxItemsets: 1},
	})

	// The listener is up before the datasets finish loading; liveness must
	// already answer. (Readiness may or may not still be 503 — the load is
	// fast — so only its eventual 200 is asserted.)
	if code, body := get(t, base+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz during load = %d %q", code, body)
	}
	awaitReady(t, base)

	// The -budget-itemsets cap reaches the miner: the exploration answers
	// 200 with the report flagged truncated.
	resp, err := http.Post(base+"/v1/explore", "application/json", strings.NewReader(
		`{"dataset":"anomaly","stat":"error","actual":"y","predicted":"p"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("explore: %d %s", resp.StatusCode, body)
	}
	var rep struct {
		Truncated bool   `json:"truncated"`
		Exhausted string `json:"exhausted"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.Exhausted != fpm.ExhaustedItemsets {
		t.Errorf("budgeted explore: truncated=%v exhausted=%q, want true/%q",
			rep.Truncated, rep.Exhausted, fpm.ExhaustedItemsets)
	}

	// SIGTERM drains and exits cleanly. (run installs its own handler via
	// signal.NotifyContext, so the test binary survives the signal.)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// stopDaemon SIGTERMs the process (run installs its own handler) and
// waits for the daemon goroutine to exit cleanly.
func stopDaemon(t *testing.T, runErr chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestDaemonDurableRestart drives the full durability loop through the
// daemon surface: append a batch with -wal-dir set, restart against the
// same directory, and check the dataset resumes at the appended epoch
// with byte-identical explore responses — plus the recovery-aware
// loading gate serving the {"state":"recovering",...} body while not
// ready.
func TestDaemonDurableRestart(t *testing.T) {
	walDir := t.TempDir()
	csv := writeTestCSV(t)
	cfg := daemonConfig{
		datasets: []server.DatasetConfig{{Name: "anomaly", Path: csv}},
		timeout:  30 * time.Second,
		drain:    30 * time.Second,
		walDir:   walDir,
		walSync:  "always",
	}

	base, runErr := startDaemon(t, cfg)
	awaitReady(t, base)
	exploreBody := `{"dataset":"anomaly","stat":"error","actual":"y","predicted":"p","top":5}`
	explore := func(base string) string {
		t.Helper()
		resp, err := http.Post(base+"/v1/explore", "application/json", strings.NewReader(exploreBody))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("explore: %d %s", resp.StatusCode, body)
		}
		// Byte-compare everything but the wall-clock mining time.
		var rep map[string]json.RawMessage
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		delete(rep, "elapsed_ms")
		canon, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(canon)
	}
	resp, err := http.Post(base+"/v1/datasets/anomaly/rows", "application/json", strings.NewReader(
		`{"columns":["x","y","p"],"rows":[[95,"true","false"],[12,"false","false"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	var ack struct {
		Epoch     uint64 `json:"epoch"`
		TotalRows int    `json:"total_rows"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Epoch != 2 || ack.TotalRows != 602 {
		t.Fatalf("append ack = %+v, want epoch 2 with 602 rows", ack)
	}
	before := explore(base)
	stopDaemon(t, runErr)

	base, runErr = startDaemon(t, cfg)
	// Probe the gate before readiness: a recovering daemon must answer
	// 503 with the JSON progress body, not the plain-text loading page.
	// The load may already have finished — only a 503's shape is pinned.
	if code, gateBody := get(t, base+"/readyz"); code == http.StatusServiceUnavailable {
		if !strings.Contains(gateBody, `"state":"recovering"`) || !strings.Contains(gateBody, `"replayed"`) {
			t.Errorf("recovery gate body = %q, want recovering JSON", gateBody)
		}
	}
	awaitReady(t, base)
	if after := explore(base); after != before {
		t.Errorf("explore after restart diverged:\nbefore: %s\nafter:  %s", before, after)
	}
	resp, err = http.Post(base+"/v1/datasets/anomaly/rows", "application/json", strings.NewReader(
		`{"columns":["x","y","p"],"rows":[[50,"true","true"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("append after restart: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Epoch != 3 || ack.TotalRows != 603 {
		t.Fatalf("append after restart = %+v, want epoch 3 with 603 rows", ack)
	}
	stopDaemon(t, runErr)
}

// TestDaemonRejectsBadWALSync pins flag validation: an unknown -wal-sync
// policy fails fast instead of silently running without durability.
func TestDaemonRejectsBadWALSync(t *testing.T) {
	err := run(daemonConfig{
		datasets: []server.DatasetConfig{{Name: "anomaly", Path: writeTestCSV(t)}},
		addr:     "127.0.0.1:0",
		walDir:   t.TempDir(),
		walSync:  "sometimes",
	})
	if err == nil || !strings.Contains(err.Error(), "sync policy") {
		t.Fatalf("bad -wal-sync: err = %v, want sync policy error", err)
	}
}

// TestDaemonRejectsBadFailpoints pins startup validation of the
// HDIV_FAILPOINTS environment variable: a malformed spec fails fast with
// an error naming the variable instead of silently serving without the
// requested faults.
func TestDaemonRejectsBadFailpoints(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	t.Setenv(faultinject.EnvVar, "fpm.candidate_batch=explode")
	err := run(daemonConfig{
		datasets: []server.DatasetConfig{{Name: "anomaly", Path: writeTestCSV(t)}},
		addr:     "127.0.0.1:0",
	})
	if err == nil || !strings.Contains(err.Error(), faultinject.EnvVar) {
		t.Fatalf("bad failpoint spec: err = %v, want mention of %s", err, faultinject.EnvVar)
	}
}

// TestDaemonArmsFailpointsFromEnv checks a valid HDIV_FAILPOINTS spec is
// armed during startup and observable end to end: the injected mining
// error surfaces as a 500 while the daemon keeps serving.
func TestDaemonArmsFailpointsFromEnv(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	t.Setenv(faultinject.EnvVar, "fpm.candidate_batch=error(injected from env)@1")
	base, runErr := startDaemon(t, daemonConfig{
		datasets: []server.DatasetConfig{{Name: "anomaly", Path: writeTestCSV(t)}},
		timeout:  30 * time.Second,
		drain:    30 * time.Second,
	})
	awaitReady(t, base)

	body := `{"dataset":"anomaly","stat":"error","actual":"y","predicted":"p"}`
	resp, err := http.Post(base+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(reply), "injected from env") {
		t.Fatalf("armed exploration: %d %s, want 500 with the injected error", resp.StatusCode, reply)
	}

	// @1 fired once; the daemon keeps serving and the retry succeeds.
	resp, err = http.Post(base+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("retry after injected error: %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestDaemonFlagSurface pins the daemon's operator surface: exactly the
// 18 kept flags are registered, a removed flag is a parse error, the
// default HTTP timeouts are 10s/1m/2m/2m, and the write timeout derived
// from -timeout always exceeds it.
func TestDaemonFlagSurface(t *testing.T) {
	newFlags := func() *flag.FlagSet {
		fs := flag.NewFlagSet("hdivexplorerd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return fs
	}
	fs := newFlags()
	cfg, err := parseFlags(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{
		"addr", "budget-candidates", "budget-deadline", "budget-heap-bytes",
		"budget-itemsets", "cache-max", "dataset", "debug-addr", "drain",
		"drift-debounce", "drift-t", "epoch-retain", "log-json",
		"max-inflight", "slo", "timeout", "wal-dir", "wal-sync",
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("registered flags = %v, want %v", names, want)
	}

	set, err := parseFlags(newFlags(), []string{"-dataset", "d=d.csv", "-dataset", "e=e.csv", "-slo", "p99=250ms"})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.datasets) != 2 || set.datasets[1] != (server.DatasetConfig{Name: "e", Path: "e.csv"}) || len(set.slo.Latency) != 1 {
		t.Errorf("parsed datasets %+v, slo %+v", set.datasets, set.slo)
	}
	if _, err := parseFlags(newFlags(), []string{"-slo", "p99"}); err == nil {
		t.Error("malformed -slo parsed")
	}
	if _, err := parseFlags(newFlags(), []string{"-trace-ring", "8"}); err == nil {
		t.Error("-trace-ring 8 parsed; the flag is removed")
	}

	srv := newHTTPServer(cfg, nil)
	if srv.ReadHeaderTimeout != 10*time.Second || srv.ReadTimeout != time.Minute ||
		srv.WriteTimeout != 2*time.Minute || srv.IdleTimeout != 2*time.Minute {
		t.Errorf("default timeouts = header %v, read %v, write %v, idle %v; want 10s/1m/2m/2m",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}

	for _, timeout := range []string{"1s", "30s", "10m"} {
		cfg, err := parseFlags(newFlags(), []string{"-timeout", timeout})
		if err != nil {
			t.Fatal(err)
		}
		if w := newHTTPServer(cfg, nil).WriteTimeout; w <= cfg.timeout {
			t.Errorf("-timeout %s: write timeout %v does not exceed it", timeout, w)
		}
	}
}
