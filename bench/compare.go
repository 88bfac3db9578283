package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// runCompare implements -compare A.json [A2.json ...] -- B.json [B2.json
// ...]: per workload and end-to-end metric, each side's median and
// quartiles over its runs, and the change of B's median from A's. It
// exits 1 when any end-to-end median differs by more than the metric's
// bound in BENCHMARK.json. Per-layer and informational metrics are
// listed without a verdict.
func runCompare(sp *spec, args []string, stdout, stderr io.Writer) int {
	var a, b []string
	side := &a
	for _, arg := range args {
		if arg == "--" {
			side = &b
			continue
		}
		*side = append(*side, arg)
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(stderr, "bench: -compare wants A.json [A2.json ...] -- B.json [B2.json ...]")
		return 2
	}
	sa, err := collect(a)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sb, err := collect(b)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bounds := map[string]metricDecl{}
	for _, d := range sp.EndToEnd {
		bounds[d.Name] = d
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tbound\tverdict")
	failed := false
	for _, wl := range workloadNames {
		names := metricNames(sa[wl], sb[wl])
		for _, name := range names {
			xa, xb := sa[wl][name], sb[wl][name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(values(xa)), median(values(xb))
			change := math.NaN()
			if ma != 0 {
				change = (mb - ma) / ma
			}
			bound, verdict := "-", "-"
			if d, ok := bounds[name]; ok {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				switch {
				case math.IsNaN(change) || math.Abs(change) <= d.Bound:
					verdict = "within"
				case (change > 0) == (d.Better == "lower"):
					verdict, failed = "WORSE", true
				default:
					verdict, failed = "BETTER", true
				}
			}
			delta := "-"
			if !math.IsNaN(change) {
				delta = fmt.Sprintf("%+.1f%%", 100*change)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
				wl, name, xa[0].Unit, spread(values(xa)), spread(values(xb)), delta, bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if failed {
		fmt.Fprintln(stderr, "bench: some end-to-end medians differ by more than their bound")
		return 1
	}
	return 0
}

// collect reads result files and groups every metric value by workload
// and name.
func collect(paths []string) (map[string]map[string][]metric, error) {
	out := map[string]map[string][]metric{}
	for _, p := range paths {
		f, err := readResultFile(p)
		if err != nil {
			return nil, err
		}
		for _, r := range f.Results {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]metric{}
			}
			for _, group := range []map[string]metric{r.Metrics, r.Extra} {
				for n, m := range group {
					out[r.Workload][n] = append(out[r.Workload][n], m)
				}
			}
		}
	}
	return out, nil
}

func metricNames(a, b map[string][]metric) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range []map[string][]metric{a, b} {
		for n := range m {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

func values(ms []metric) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.Value
	}
	return out
}

func spread(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
}
