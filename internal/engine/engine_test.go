package engine

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestParallelFor(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 100} {
		for _, n := range []int{0, 1, 7, 100} {
			var sum atomic.Int64
			hits := make([]atomic.Int32, n)
			ParallelFor(n, workers, nil, func(i int) {
				hits[i].Add(1)
				sum.Add(int64(i))
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
			if want := int64(n * (n - 1) / 2); sum.Load() != want {
				t.Fatalf("workers=%d n=%d: sum = %d, want %d", workers, n, sum.Load(), want)
			}
		}
	}
}

// TestParallelForCounters pins the tracer contract: per-worker task
// counters sum to n and the worker gauge records the clamped count.
func TestParallelForCounters(t *testing.T) {
	tr := obs.New()
	n := 50
	ParallelFor(n, 4, tr, func(i int) {})
	snap := tr.Snapshot()
	var total int64
	for name, v := range snap.Counters {
		if len(name) > len(obs.CtrWorkerTaskPrefix) && name[:len(obs.CtrWorkerTaskPrefix)] == obs.CtrWorkerTaskPrefix {
			total += v
		}
	}
	if total != int64(n) {
		t.Errorf("worker task counters sum to %d, want %d", total, n)
	}
	if g := snap.Gauges[obs.GaugeWorkers]; g < 1 {
		t.Errorf("worker gauge = %v, want >= 1", g)
	}
}

// TestParallelForPanic pins the containment contract: a panicking task is
// recovered into a *PanicError carrying the panic value and a stack that
// names the panic site, remaining tasks are abandoned, the recovery is
// counted, and the process survives — at every worker shape.
func TestParallelForPanic(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		tr := obs.New()
		var ran atomic.Int64
		err := ParallelFor(100, workers, tr, func(i int) {
			if i == 3 {
				panic("kaboom at 3")
			}
			ran.Add(1)
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PanicError, got %v", workers, err)
		}
		if pe.Value != "kaboom at 3" {
			t.Errorf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if !strings.Contains(pe.Error(), "kaboom at 3") {
			t.Errorf("workers=%d: Error() = %q", workers, pe.Error())
		}
		if !strings.Contains(pe.Stack, "engine_test") {
			t.Errorf("workers=%d: stack does not name the panic site:\n%s", workers, pe.Stack)
		}
		if got := ran.Load(); got >= 100 {
			t.Errorf("workers=%d: %d tasks ran, want < 100 (abandon after panic)", workers, got)
		}
		if c := tr.Snapshot().Counters[obs.CtrPanicsRecovered]; c < 1 {
			t.Errorf("workers=%d: recovery counter = %d", workers, c)
		}
	}
	// No panic → nil error, all tasks run.
	var ran atomic.Int64
	if err := ParallelFor(50, 4, nil, func(i int) { ran.Add(1) }); err != nil || ran.Load() != 50 {
		t.Fatalf("clean run: err=%v ran=%d", err, ran.Load())
	}
}

// TestRecoverErrorNil pins that RecoverError passes nil through, so it can
// wrap recover() unconditionally.
func TestRecoverErrorNil(t *testing.T) {
	if pe := RecoverError(nil); pe != nil {
		t.Fatalf("RecoverError(nil) = %v", pe)
	}
}
