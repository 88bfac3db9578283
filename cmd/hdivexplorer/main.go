// Command hdivexplorer runs H-DivExplorer on a CSV file.
//
// The CSV must contain the feature columns plus the columns naming the
// ground truth and (for classification statistics) the model prediction.
// Example:
//
//	hdivexplorer -data compas.csv -actual recid -predicted pred \
//	    -stat fpr -s 0.05 -st 0.1 -top 15
//
// For a numeric statistic (e.g. income divergence):
//
//	hdivexplorer -data census.csv -target income -stat numeric -s 0.05
//
// Observability: -explain prints a query-level cost-attribution profile
// (per-stage self/cumulative time, mining counters, worker split,
// budget consumption) to stderr and -explain-json writes it to a file;
// -trace prints the raw span tree with per-stage wall time to stderr,
// -trace-json writes the machine-readable spans+counters snapshot to a
// file, -trace-chrome writes a Chrome/Perfetto trace_event file (load it
// at ui.perfetto.dev), -progress prints a live mining progress ticker to
// stderr, and -cpuprofile/-memprofile capture runtime/pprof profiles of
// the run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	hdiv "repro"
)

// cliConfig holds every flag value for one invocation.
type cliConfig struct {
	dataPath, actualCol, predCol, targetCol  string
	stat, criterion, mode, algorithm, format string
	stats                                    string
	s, st, minT                              float64
	polarity                                 bool
	maxLen, top, workers                     int
	budgetCandidates, budgetItemsets         int
	budgetDeadline                           time.Duration
	budgetHeap                               uint64
	trace, progress, explain                 bool
	traceJSON, traceChrome, explainJSON      string
	cpuProfile, memProfile                   string

	stdout, stderr io.Writer // test injection points; default os.Stdout/Stderr
}

// usageError marks an invalid flag value; main exits with status 2 for
// these (invalid invocation) versus 1 for runtime failures.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func main() {
	var c cliConfig
	flag.StringVar(&c.dataPath, "data", "", "input CSV file (required)")
	flag.StringVar(&c.actualCol, "actual", "", "ground-truth boolean column (true/1 = positive)")
	flag.StringVar(&c.predCol, "predicted", "", "prediction boolean column")
	flag.StringVar(&c.targetCol, "target", "", "numeric target column (for -stat numeric)")
	flag.StringVar(&c.stat, "stat", "error", "statistic: fpr, fnr, error, accuracy, numeric")
	flag.StringVar(&c.stats, "stats", "", "comma-separated statistics computed in one mining pass (overrides -stat); the first drives discretization")
	flag.Float64Var(&c.s, "s", 0.05, "exploration support threshold")
	flag.Float64Var(&c.st, "st", 0.1, "tree discretization support threshold")
	flag.StringVar(&c.criterion, "criterion", "divergence", "tree split criterion: divergence or entropy")
	flag.StringVar(&c.mode, "mode", "hierarchical", "exploration mode: hierarchical or base")
	flag.StringVar(&c.algorithm, "algorithm", "fpgrowth", "miner: fpgrowth or apriori")
	flag.BoolVar(&c.polarity, "polarity", false, "enable polarity pruning")
	flag.IntVar(&c.maxLen, "maxlen", 0, "max itemset length (0 = unlimited)")
	flag.IntVar(&c.top, "top", 20, "number of subgroups to print")
	flag.Float64Var(&c.minT, "mint", 0, "only print subgroups with |t| at least this")
	flag.StringVar(&c.format, "format", "text", "output format: text, csv or json")
	flag.IntVar(&c.workers, "workers", 0, "mining and ranking goroutines (0 = all cores, 1 = serial)")
	flag.IntVar(&c.budgetCandidates, "budget-candidates", 0, "cap on evaluated itemset candidates (0 = unlimited); exhaustion truncates the report")
	flag.IntVar(&c.budgetItemsets, "budget-itemsets", 0, "cap on frequent itemsets kept (0 = unlimited); exhaustion truncates the report")
	flag.DurationVar(&c.budgetDeadline, "budget-deadline", 0, "soft mining deadline (0 = none); expiry truncates the report instead of failing")
	flag.Uint64Var(&c.budgetHeap, "budget-heap-bytes", 0, "heap watermark that truncates mining (0 = off)")
	flag.BoolVar(&c.explain, "explain", false, "print the query cost-attribution profile (stage times, mining counters, budget use) to stderr")
	flag.StringVar(&c.explainJSON, "explain-json", "", "write the explain profile as JSON to this file")
	flag.BoolVar(&c.trace, "trace", false, "print the pipeline span tree and counters to stderr")
	flag.BoolVar(&c.progress, "progress", false, "print a live mining progress line to stderr every 500ms")
	flag.StringVar(&c.traceJSON, "trace-json", "", "write the trace snapshot as JSON to this file")
	flag.StringVar(&c.traceChrome, "trace-chrome", "", "write a Chrome/Perfetto trace_event file (open at ui.perfetto.dev)")
	flag.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file")
	flag.Parse()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "hdivexplorer:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(c cliConfig) error {
	if c.stdout == nil {
		c.stdout = os.Stdout
	}
	if c.stderr == nil {
		c.stderr = os.Stderr
	}
	if c.dataPath == "" {
		return fmt.Errorf("-data is required")
	}
	if c.workers < 0 {
		return usageError{fmt.Sprintf("-workers must be >= 0 (got %d)", c.workers)}
	}
	if c.budgetCandidates < 0 || c.budgetItemsets < 0 || c.budgetDeadline < 0 {
		return usageError{"-budget-* values must be >= 0"}
	}
	if err := hdiv.ArmFaultsFromEnv(); err != nil {
		return usageError{err.Error()}
	}
	if c.s <= 0 || c.s > 1 {
		return usageError{fmt.Sprintf("-s must be a support fraction in (0, 1] (got %v)", c.s)}
	}
	if c.st <= 0 || c.st > 1 {
		return usageError{fmt.Sprintf("-st must be a support fraction in (0, 1] (got %v)", c.st)}
	}
	if c.maxLen < 0 {
		return usageError{fmt.Sprintf("-maxlen must be >= 0 (got %d)", c.maxLen)}
	}
	switch strings.ToLower(c.format) {
	case "", "text", "csv", "json":
	default:
		return usageError{fmt.Sprintf("-format must be text, csv or json (got %q)", c.format)}
	}
	criterion, err := hdiv.ParseCriterion(c.criterion)
	if err != nil {
		return usageError{fmt.Sprintf("-criterion: %v", err)}
	}
	mode, err := hdiv.ParseMode(c.mode)
	if err != nil {
		return usageError{fmt.Sprintf("-mode: %v", err)}
	}
	algorithm, err := hdiv.ParseAlgorithm(c.algorithm)
	if err != nil {
		return usageError{fmt.Sprintf("-algorithm: %v", err)}
	}
	statFlag, rawStats := "-stat", []string{c.stat}
	if c.stats != "" {
		statFlag, rawStats = "-stats", strings.Split(c.stats, ",")
	}
	stats, err := hdiv.ParseStats(rawStats)
	if err != nil {
		return usageError{fmt.Sprintf("%s: %v", statFlag, err)}
	}
	exclude, err := hdiv.StatInputs(stats, c.actualCol, c.predCol, c.targetCol)
	if err != nil {
		return usageError{fmt.Sprintf("%s: %v", statFlag, err)}
	}

	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	var tracer *hdiv.Tracer
	if c.trace || c.traceJSON != "" || c.traceChrome != "" || c.explain || c.explainJSON != "" {
		// -explain creates the tracer too, so the profile covers parsing
		// and discretization alongside the exploration stages.
		tracer = hdiv.NewTracer()
	}

	tab, err := hdiv.ReadCSVFile(c.dataPath, hdiv.CSVOptions{Tracer: tracer})
	if err != nil {
		return err
	}

	bun, err := hdiv.BuildBundle(tab, stats, nil, c.actualCol, c.predCol, c.targetCol)
	if err != nil {
		return err
	}

	opt := hdiv.PipelineOptions{
		TreeSupport:   c.st,
		MinSupport:    c.s,
		MaxLen:        c.maxLen,
		PolarityPrune: c.polarity,
		Workers:       c.workers,
		ResourceBudget: hdiv.Budget{
			MaxCandidates: c.budgetCandidates,
			MaxItemsets:   c.budgetItemsets,
			SoftDeadline:  c.budgetDeadline,
			MaxHeapBytes:  c.budgetHeap,
		},
		Criterion: criterion,
		Mode:      mode,
		Algorithm: algorithm,
		Exclude:   exclude,
		Explain:   c.explain || c.explainJSON != "",
		Tracer:    tracer,
	}

	var prog *hdiv.Progress
	if c.progress {
		prog = hdiv.NewProgress()
		opt.Progress = prog
	}
	stopProgress := startProgressTicker(c.stderr, prog)
	reps, err := hdiv.PipelineMulti(tab, bun, opt)
	stopProgress()
	if err != nil {
		return err
	}

	if err := emitTrace(c, reps[0].Trace); err != nil {
		return err
	}
	if err := emitExplain(c, reps[0].Explain); err != nil {
		return err
	}
	if c.memProfile != "" {
		f, err := os.Create(c.memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("writing heap profile: %w", err)
		}
	}

	if f := strings.ToLower(c.format); f != "" && f != "text" {
		return hdiv.WriteReports(c.stdout, f, stats, reps, len(reps) > 1)
	}
	for i, rep := range reps {
		if len(reps) > 1 {
			if i > 0 {
				fmt.Fprintln(c.stdout)
			}
			fmt.Fprintf(c.stdout, "== statistic: %s ==\n", stats[i])
		}
		emitText(c, rep, bun.At(i))
	}
	return nil
}

// emitText prints the human-readable report (the default -format).
func emitText(c cliConfig, rep *hdiv.Report, o *hdiv.Outcome) {
	fmt.Fprintf(c.stdout, "dataset: %d rows, %d items explored, %s=%.4f overall\n",
		rep.NumRows, rep.NumItems, o.Name, rep.Global)
	fmt.Fprintf(c.stdout, "frequent subgroups: %d (mining %v)\n", len(rep.Subgroups), rep.Elapsed)
	fmt.Fprintf(c.stdout, "mining: %d candidates, %d pruned by support, %d pruned by polarity\n",
		rep.Mining.Candidates, rep.Mining.PrunedSupport, rep.Mining.PrunedPolarity)
	if rep.Truncated {
		fmt.Fprintf(c.stdout, "NOTE: exploration truncated (budget exhausted: %s); subgroups shown are correctly scored but the lattice was not fully explored\n",
			rep.Exhausted)
	}
	fmt.Fprintln(c.stdout)
	if c.minT > 0 {
		filtered := rep.FilterMinT(c.minT)
		top := c.top
		if top > len(filtered) {
			top = len(filtered)
		}
		for _, sg := range filtered[:top] {
			fmt.Fprintln(c.stdout, sg.String())
		}
		return
	}
	fmt.Fprint(c.stdout, rep.Table(c.top))
}

// startProgressTicker prints one progress line to w every 500ms while
// the pipeline runs. The returned stop function halts the ticker and
// prints a final line, so -progress always produces at least one line
// even for runs shorter than the tick interval.
func startProgressTicker(w io.Writer, prog *hdiv.Progress) (stop func()) {
	if prog == nil {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				printProgress(w, prog.Snapshot())
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		printProgress(w, prog.Snapshot())
	}
}

func printProgress(w io.Writer, s hdiv.ProgressSnapshot) {
	fmt.Fprintf(w, "progress: level=%d candidates=%d pruned=%d frequent=%d elapsed=%dms\n",
		s.Level, s.Candidates, s.Pruned, s.Frequent, s.ElapsedMS)
}

// emitTrace writes the trace per -trace (human tree on stderr),
// -trace-json (snapshot file) and -trace-chrome (Chrome/Perfetto
// trace_event file).
func emitTrace(c cliConfig, tr *hdiv.Trace) error {
	if tr == nil {
		return nil
	}
	if c.trace {
		fmt.Fprint(c.stderr, tr.Tree())
	}
	if c.traceJSON != "" {
		f, err := os.Create(c.traceJSON)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tr.WriteJSON(f); err != nil {
			return fmt.Errorf("writing trace JSON: %w", err)
		}
	}
	if c.traceChrome != "" {
		f, err := os.Create(c.traceChrome)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tr.WriteChromeTrace(f); err != nil {
			return fmt.Errorf("writing Chrome trace: %w", err)
		}
	}
	return nil
}

// emitExplain writes the cost-attribution profile per -explain (aligned
// table on stderr) and -explain-json (JSON file).
func emitExplain(c cliConfig, ex *hdiv.Explain) error {
	if ex == nil {
		return nil
	}
	if c.explain {
		fmt.Fprint(c.stderr, ex.Text())
	}
	if c.explainJSON != "" {
		f, err := os.Create(c.explainJSON)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := ex.WriteJSON(f); err != nil {
			return fmt.Errorf("writing explain JSON: %w", err)
		}
	}
	return nil
}
