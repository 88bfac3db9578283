package engine

import (
	"sync"
	"testing"

	"repro/internal/bitvec"
)

// Concurrent Get/Put traffic from many goroutines must be race-free (the
// whole point of building on sync.Pool) and every dispensed vector must
// have the pool's length. Run with -race for the real assertion.
func TestPoolConcurrentReuse(t *testing.T) {
	const rows = 1000
	pl := NewPool(rows)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := pl.GetVector()
				if v.Len() != rows {
					t.Errorf("GetVector length %d, want %d", v.Len(), rows)
					return
				}
				v.Set(i % rows) // dirty it; the next user must overwrite anyway
				pl.PutVector(v)
			}
		}()
	}
	wg.Wait()
	if got := pl.Hits() + pl.Misses(); got != 8*200 {
		t.Fatalf("hits+misses = %d, want %d", got, 8*200)
	}
}

// Vectors of another length must be dropped, not recycled: a later Get
// must never dispense a vector of another run's length.
func TestPoolDropsWrongGeometry(t *testing.T) {
	pl := NewPool(128)
	pl.PutVector(bitvec.New(64))
	pl.PutVector(nil)
	for i := 0; i < 10; i++ {
		if v := pl.GetVector(); v.Len() != 128 {
			t.Fatalf("dispensed vector of length %d, want 128", v.Len())
		}
	}
}

// NoteHit/NoteMiss must fold into the same counters the Gets use.
func TestPoolNoteCounters(t *testing.T) {
	pl := NewPool(10)
	pl.NoteHit()
	pl.NoteHit()
	pl.NoteMiss()
	if pl.Hits() != 2 || pl.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", pl.Hits(), pl.Misses())
	}
}
