// Command bench is the repository benchmark. It runs one of four seeded
// workloads against H-DivExplorer, checks the outputs, and prints every
// metric BENCHMARK.json declares:
//
//	bash bench/run.sh --workload warm-explore --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare A.json A2.json -- B.json B2.json
//
// An untraced run (--trace 0) measures the end-to-end metrics; a traced
// run (--trace 1) replays the workload's operations in process, with
// spans around the calls into each layer, and prints the per-layer
// metrics. Standard output carries one "workload metric value unit" line
// per metric and, last, one JSON object; DIR/result.json (-out) carries
// the same numbers with the environment they were measured in.
// README.md describes the workloads and metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"paper-sweep", "warm-explore", "cold-explore", "live-append"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+" or all")
		seed     = fs.Int64("seed", 1, "seed every input is generated from")
		seconds  = fs.Int("seconds", 0, "measured seconds per run (0 = run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1 replays the workload in process with spans and prints the per-layer metrics")
		out      = fs.String("out", "", "directory for result.json, traces and daemon logs (default .bench_build/out)")
		compare  = fs.Bool("compare", false, "compare result files: -compare A.json [A2.json ...] -- B.json [B2.json ...]")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		return runCompare(sp, fs.Args(), stdout, stderr)
	}
	todo := []string{*workload}
	if *workload == "all" {
		todo = workloadNames
	}
	for _, w := range todo {
		if !isWorkload(w) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %v or all)\n", w, workloadNames)
			return 2
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	secs := *seconds
	if secs == 0 {
		secs = sp.RunSeconds
	}
	if secs <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	build := filepath.Join(root, ".bench_build")
	if *out == "" {
		*out = filepath.Join(build, "out")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	cfg := config{
		root: root, bin: filepath.Join(build, "bin"), out: *out,
		seed: *seed, seconds: time.Duration(secs) * time.Second,
		traced: *trace == 1, scale: defaultScale,
	}
	f, err := runWorkloads(ctx, cfg, sp, todo, filepath.Join(build, "work"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := writeResultFile(cfg.out, f); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, r := range f.Results {
		printLines(stdout, r)
		for _, msg := range r.Failures {
			fmt.Fprintf(stderr, "bench: %s: %s\n", r.Workload, msg)
		}
	}
	if err := writeSummary(stdout, summarize(f.Results)); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func isWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// config is one bench invocation.
type config struct {
	root    string // repository root: sources of the programs under test
	bin     string // where the programs are built
	out     string // result.json, traces, daemon logs
	work    string // scratch space of this invocation, removed at the end
	seed    int64
	seconds time.Duration
	traced  bool
	scale   scale
}

// scale sizes a run. defaultScale is the benchmark; the smoke test runs
// the same code at a tiny scale.
type scale struct {
	setups         int            // daemon set-ups per run; setup_s is their median
	rounds         int            // daemon processes warm- and cold-explore measure in turn
	warmup         time.Duration  // untimed closed loop before each such round
	paperSetups    int            // paper-sweep set-ups per run (each takes seconds)
	paperSizes     map[string]int // paper-sweep dataset sizes; nil = experiments' reduced sizes
	paperProbeRows int            // rows of paper-sweep's probe table: compas at its reduced size
	minSweeps      int            // whole Figure 2 sweeps per paper-sweep run, at least
	compasRows     int            // rows of the dataset the daemon serves
	warmRPS        float64        // warm-explore Phase B arrival rate
	liveRate       float64        // live-append appends per second, and explorations per second
	restarts       int            // live-append kill -9 restarts
	coldChecks     int            // cold-explore shapes checked against the CLI
	tracedOps      int            // warm/cold requests a traced run replays
	overheadOps    int            // replayed explorations re-run for trace.overhead_pct
	overheadRounds int            // untraced/traced pairs per re-run exploration
	probeBatches   int            // append batches of the append-path and append-serve probes
	serveProbes    int            // in-process explores of the serve-overhead probe
	bitvecPairs    int            // item pairs of the bitvec kernel probe
}

// defaultScale is the benchmark. warmRPS is a sixth of the closed-loop
// capacity warm-explore measured when the benchmark was defined (72–94
// requests/s on 2 cores), so Phase B measures latency well below
// saturation even while the shared machine runs at half its speed, which
// it did for minutes at a time: at 30/s those stretches drove the p50 of
// single runs to 200–650 ms, at 12/s to 54 ms.
var defaultScale = scale{
	setups: 15, rounds: 4, warmup: time.Second, paperSetups: 3, paperProbeRows: 6_172, minSweeps: 2,
	compasRows: 20_000, warmRPS: 12, liveRate: 10, restarts: 3, coldChecks: 8,
	tracedOps: 300, overheadOps: 10, overheadRounds: 3, probeBatches: 20, serveProbes: 30, bitvecPairs: 2_000,
}

// runWorkloads builds what the workloads need, runs each, and returns
// their results stamped with the environment. Scratch files live in a
// fresh directory under workRoot that is removed on return.
func runWorkloads(ctx context.Context, cfg config, sp *spec, names []string, workRoot string) (*resultFile, error) {
	start := time.Now()
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.work = work
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if needsPrograms(names, cfg.traced) {
		if err := buildPrograms(ctx, cfg.root, cfg.bin); err != nil {
			return nil, err
		}
	}
	f := &resultFile{Env: stampEnv(cfg.seed, start)}
	for _, name := range names {
		var (
			vals  measured
			t     = &tally{}
			err   error
			steal = stealPct()
		)
		if cfg.traced {
			vals, err = runTraced(ctx, cfg, name, t)
		} else {
			vals, err = runUntraced(ctx, cfg, name, t)
		}
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if p, ok := vals["daemon.gomaxprocs"]; ok {
			f.Env.GOMAXPROCSDaemon = int(p)
		}
		if pct, ok := steal(); ok {
			vals["host.steal_pct"] = pct
		}
		r, err := finish(sp, name, cfg.seed, cfg.traced, vals, t)
		if err != nil {
			return nil, err
		}
		f.Results = append(f.Results, r)
	}
	return f, nil
}

// needsPrograms reports whether any of the runs starts the daemon or the
// CLI: untraced daemon workloads do; paper-sweep and every traced run run
// in process only.
func needsPrograms(names []string, traced bool) bool {
	if traced {
		return false
	}
	for _, n := range names {
		if n != "paper-sweep" {
			return true
		}
	}
	return false
}

func runUntraced(ctx context.Context, cfg config, name string, t *tally) (measured, error) {
	switch name {
	case "paper-sweep":
		return paperSweep(ctx, cfg, t)
	case "warm-explore":
		return warmExplore(ctx, cfg, t)
	case "cold-explore":
		return coldExplore(ctx, cfg, t)
	case "live-append":
		return liveAppend(ctx, cfg, t)
	}
	return nil, errors.New("unknown workload")
}

// summarize folds several results into the summary line: one workload's
// result as is; for -workload all, the conjunction of correctness, summed
// counts and metrics prefixed by their workload.
func summarize(rs []*result) *result {
	if len(rs) == 1 {
		return rs[0]
	}
	s := &result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rs {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for n, m := range r.Metrics {
			s.Metrics[r.Workload+"/"+n] = m
		}
	}
	return s
}
