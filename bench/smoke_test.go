package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// tinyScale runs every workload's full code path in seconds: small
// datasets and rates high enough that each declared percentile still has
// the samples it needs.
var tinyScale = scale{
	setups: 2, rounds: 2, warmup: 200 * time.Millisecond, paperSetups: 2,
	paperSizes: map[string]int{
		"adult": 400, "bank": 400, "compas": 400, "german": 300,
		"intentions": 400, "synthetic-peak": 400, "wine": 400,
	},
	paperProbeRows: 400, minSweeps: 2,
	compasRows: 1_500, warmRPS: 200, liveRate: 60, restarts: 1, coldChecks: 2,
	tracedOps: 20, overheadOps: 3, overheadRounds: 2, probeBatches: 5, serveProbes: 5, bitvecPairs: 100,
}

// TestSmokeAllWorkloads runs the four workloads untraced and traced at
// tiny scale, the live kill -9 restart included: every declared metric
// must be printed, no operation or output check may fail, and every
// traced run's Chrome trace must validate.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon and runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cfg := config{
		root: root, bin: filepath.Join(tmp, "bin"), out: filepath.Join(tmp, "out"),
		seed: 3, seconds: 2 * time.Second, scale: tinyScale,
	}
	for _, traced := range []bool{false, true} {
		cfg.traced = traced
		f, err := runWorkloads(ctx, cfg, sp, workloadNames, filepath.Join(tmp, "work"))
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if len(f.Results) != len(workloadNames) {
			t.Fatalf("traced=%v: %d results", traced, len(f.Results))
		}
		for _, r := range f.Results {
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d: %v", r.Workload, traced, r.Correct, r.Failed, r.Attempted, r.Failures)
			}
			var buf bytes.Buffer
			if err := writeSummary(&buf, r); err != nil {
				t.Fatal(err)
			}
			assertDeclared(t, sp, traced, buf.Bytes())
			if traced {
				checkChromeTrace(t, filepath.Join(cfg.out, r.Workload+".trace.json"))
			} else if fr, ok := r.Extra["fail_rate"]; !ok || fr.Value != 0 {
				t.Errorf("%s: fail_rate %+v, want 0", r.Workload, fr)
			}
		}
		if !traced {
			live := f.Results[len(f.Results)-1]
			if _, ok := live.Extra["recovery_s"]; !ok {
				t.Errorf("live-append reported no recovery_s: the restart leg did not run")
			}
			if f.Env.NProc == 0 || f.Env.GoVersion == "" || f.Env.StartUTC == "" || f.Env.GOMAXPROCSDaemon == 0 {
				t.Errorf("incomplete environment stamp %+v", f.Env)
			}
			if err := writeResultFile(cfg.out, f); err != nil {
				t.Fatal(err)
			}
			back, err := readResultFile(filepath.Join(cfg.out, "result.json"))
			if err != nil || len(back.Results) != len(f.Results) || back.Env != f.Env {
				t.Errorf("result.json does not round-trip: %v", err)
			}
		}
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	if _, err := obs.ValidateChromeTrace(f); err != nil {
		t.Errorf("%s: %v", path, err)
	}
}
