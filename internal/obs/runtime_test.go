package obs

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestAllocSample(t *testing.T) {
	b1, o1 := AllocSample()
	// Allocate measurably so the cumulative totals must advance.
	sink := make([][]byte, 64)
	for i := range sink {
		sink[i] = make([]byte, 1024)
	}
	_ = sink
	b2, o2 := AllocSample()
	if b2 < b1 || o2 < o1 {
		t.Fatalf("AllocSample went backwards: bytes %d -> %d, objects %d -> %d", b1, b2, o1, o2)
	}
	if b2 == b1 && o2 == o1 {
		t.Error("AllocSample did not observe 64KiB of allocations")
	}
}

// TestWriteRuntimeMetricsConformance pins the exposition contract for the
// curated runtime/metrics families: every present family carries exactly
// one HELP and TYPE line, histogram families emit cumulative
// monotonically nondecreasing buckets ending in +Inf plus _sum/_count,
// and the core memory/GC/scheduler families this Go version supports are
// all present.
func TestWriteRuntimeMetricsConformance(t *testing.T) {
	for _, openMetrics := range []bool{false, true} {
		t.Run(fmt.Sprintf("openmetrics=%v", openMetrics), func(t *testing.T) {
			var b strings.Builder
			if err := WriteExposition(&b, RuntimeFamilies(), openMetrics); err != nil {
				t.Fatal(err)
			}
			out := b.String()

			for _, family := range []string{
				"go_mem_heap_objects_bytes",
				"go_gc_heap_allocs_bytes",
				"go_gc_cycles",
				"go_goroutines",
				"go_gomaxprocs",
				"go_gc_pauses_seconds",
				"go_sched_latencies_seconds",
			} {
				if !strings.Contains(out, "# TYPE "+family+" ") {
					t.Errorf("family %s missing from output", family)
				}
			}

			// Counter samples carry _total exactly when OpenMetrics.
			wantCounter := "go_gc_cycles "
			if openMetrics {
				wantCounter = "go_gc_cycles_total "
			}
			found := false
			for _, line := range strings.Split(out, "\n") {
				if strings.HasPrefix(line, wantCounter) {
					found = true
				}
			}
			if !found {
				t.Errorf("no counter sample line starting %q", wantCounter)
			}

			checkRuntimeExposition(t, out)
		})
	}
}

// checkRuntimeExposition validates structural properties of a runtime
// metrics exposition: metadata uniqueness and histogram invariants.
func checkRuntimeExposition(t *testing.T, out string) {
	t.Helper()
	meta := map[string]int{}
	var histFamily string
	var lastCum uint64
	var sawInf bool
	closeHistogram := func() {
		if histFamily != "" && !sawInf {
			t.Errorf("histogram %s has no +Inf bucket", histFamily)
		}
		histFamily, lastCum, sawInf = "", 0, false
	}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			key := fields[1] + " " + fields[2]
			meta[key]++
			if meta[key] > 1 {
				t.Errorf("duplicate metadata line %q", line)
			}
			if fields[1] == "TYPE" && len(fields) > 3 && fields[3] == "histogram" {
				closeHistogram()
				histFamily = fields[2]
			} else if fields[1] == "TYPE" {
				closeHistogram()
			}
			continue
		}
		if histFamily != "" && strings.HasPrefix(line, histFamily+"_bucket{le=") {
			n, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("unparseable bucket line %q: %v", line, err)
			}
			if n < lastCum {
				t.Errorf("histogram %s buckets not cumulative: %d after %d", histFamily, n, lastCum)
			}
			lastCum = n
			if strings.Contains(line, `le="+Inf"`) {
				sawInf = true
			}
		}
	}
	closeHistogram()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRuntimeMetricsBucketCap(t *testing.T) {
	var b strings.Builder
	if err := WriteExposition(&b, RuntimeFamilies(), false); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(b.String(), "\n") {
		if i := strings.Index(line, "_bucket{le="); i > 0 {
			counts[line[:i]]++
		}
	}
	for family, n := range counts {
		// +1 allows the synthesized +Inf bucket on top of the merged ones.
		if n > maxRuntimeBuckets+1 {
			t.Errorf("family %s exports %d buckets, cap is %d", family, n, maxRuntimeBuckets+1)
		}
	}
	if len(counts) == 0 {
		t.Error("no histogram families exported")
	}
}
