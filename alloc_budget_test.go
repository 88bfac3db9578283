package hdivexplorer

// The allocation gate: B/op and allocs/op of the two tracked paper
// artifacts may not grow past allocBudgetSlack × their committed values.
// Allocation counts are deterministic for a fixed workload, unlike ns/op,
// so the gate runs in the ordinary `go test ./...`. Wall-clock regressions
// are checked separately, on one machine, by the bench/ paper-sweep
// comparison in CI.

import (
	"runtime"
	"testing"
)

// allocBudgetSlack is the tolerated growth factor over the committed
// numbers below.
const allocBudgetSlack = 1.25

// Committed per-op allocations of BenchmarkTable3 and BenchmarkFigure2
// (benchCfg sizes, GOMAXPROCS 1, go1.24, linux/amd64). They are the
// baseline an earlier CI allocation check read from a committed JSON
// artifact, at the same bound; this test replaced both. Measured values
// match them to within 0.01% at GOMAXPROCS 1 and 2. Lower them when a
// change cuts allocations for good; raising them needs a stated reason.
const (
	table3BytesPerOp   = 44_017_972
	table3AllocsPerOp  = 25_488
	figure2BytesPerOp  = 1_067_753_992
	figure2AllocsPerOp = 1_716_270
)

// TestAllocationBudget fails when BenchmarkTable3 or BenchmarkFigure2
// allocates more than allocBudgetSlack × its committed bytes or objects
// per op. It is skipped under the race detector, where sync.Pool drops
// Puts at random and the counts measure the detector, not the code.
func TestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name          string
		bench         func(*testing.B)
		bytes, allocs int64
	}{
		{"BenchmarkTable3", BenchmarkTable3, table3BytesPerOp, table3AllocsPerOp},
		{"BenchmarkFigure2", BenchmarkFigure2, figure2BytesPerOp, figure2AllocsPerOp},
	} {
		r := testing.Benchmark(tc.bench)
		if r.N == 0 {
			t.Fatalf("%s did not run (failed or skipped)", tc.name)
		}
		for _, m := range []struct {
			metric          string
			committed, meas int64
		}{
			{"B/op", tc.bytes, r.AllocedBytesPerOp()},
			{"allocs/op", tc.allocs, r.AllocsPerOp()},
		} {
			ratio := float64(m.meas) / float64(m.committed)
			if ratio > allocBudgetSlack {
				t.Errorf("%s %s: committed %d, measured %d, ratio %.3fx exceeds the %.2fx budget",
					tc.name, m.metric, m.committed, m.meas, ratio, allocBudgetSlack)
			} else {
				t.Logf("%s %s: committed %d, measured %d, ratio %.4fx", tc.name, m.metric, m.committed, m.meas, ratio)
			}
		}
	}
}
