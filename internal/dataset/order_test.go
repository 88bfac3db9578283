package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// referenceOrder is the (value, row) order by a different route: a stable
// sort of the ascending non-NaN rows by value alone.
func referenceOrder(vals []float64) []int32 {
	rows := []int32{}
	for i, v := range vals {
		if !math.IsNaN(v) {
			rows = append(rows, int32(i))
		}
	}
	sort.SliceStable(rows, func(a, b int) bool { return vals[rows[a]] < vals[rows[b]] })
	return rows
}

func TestSortedRowsTotalOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{3, 1, 0, 3, math.NaN(), negZero, 1, -2, 0, math.NaN(), math.Inf(1), -2.5, math.Inf(-1), 1e-300}
	tab := NewBuilder().AddFloat("x", vals).MustBuild()
	want := []int32{12, 11, 7, 2, 5, 8, 13, 1, 6, 0, 3, 10}
	if got := tab.SortedRows("x"); !slices.Equal(got, want) {
		t.Errorf("SortedRows = %v, want %v", got, want)
	}
	if got := tab.SortedRows("x"); &got[0] != &tab.SortedRows("x")[0] {
		t.Error("SortedRows recomputed the order on a second call")
	}
	rng := rand.New(rand.NewSource(1))
	wide := make([]float64, 5000)
	for i := range wide {
		wide[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		if i%7 == 0 {
			wide[i] = wide[i/2] // ties
		}
	}
	wideTab := NewBuilder().AddFloat("x", wide).MustBuild()
	if got, want := wideTab.SortedRows("x"), referenceOrder(wide); !slices.Equal(got, want) {
		t.Error("SortedRows over wide-ranged values differs from a fresh sort")
	}
	allNaN := NewBuilder().AddFloat("x", []float64{math.NaN(), math.NaN()}).MustBuild()
	if got := allNaN.SortedRows("x"); len(got) != 0 {
		t.Errorf("all-NaN column: SortedRows = %v, want none", got)
	}
}

// orderBatch draws n values from a small domain, so ties span the prefix
// and the batch, with NaN and both zeros among them.
func orderBatch(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = math.NaN()
		case 1:
			out[i] = math.Copysign(0, -1)
		case 2:
			out[i] = 0
		default:
			out[i] = float64(rng.Intn(12)-6) / 2
		}
	}
	return out
}

// TestVersionedSortedRowsMerge checks that a snapshot's order, merged into
// the previous epoch's, equals a fresh (value, row) sort element for
// element — over ties spanning prefix and batch, NaN, −0/+0, an all-NaN
// batch and one-row batches — and that SnapshotAt of an older epoch,
// which cannot merge, sorts its own rows.
func TestVersionedSortedRowsMerge(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := NewVersioned(NewBuilder().
			AddFloat("x", orderBatch(rng, 40)).
			AddCategorical("c", make([]string, 40)).
			MustBuild())
		for i := 0; i < 12; i++ {
			n := 1 + rng.Intn(30)
			if i == 3 {
				n = 1
			}
			vals := orderBatch(rng, n)
			if i == 5 {
				for j := range vals {
					vals[j] = math.NaN()
				}
			}
			if _, _, err := v.Append(&Batch{
				Floats: map[string][]float64{"x": vals},
				Levels: map[string][]string{"c": make([]string, n)},
				N:      n,
			}); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(4) == 0 {
				continue // the next epoch merges more than one batch
			}
			held := v.orders[0].n
			tab, epoch := v.Snapshot()
			if got, want := tab.SortedRows("x"), referenceOrder(tab.Floats("x")); !slices.Equal(got, want) {
				t.Fatalf("seed %d epoch %d: merged order %v, want %v", seed, epoch, got, want)
			}
			if held > 0 && v.orders[0].n != tab.NumRows() {
				t.Fatalf("seed %d epoch %d: held order covers %d rows, want %d", seed, epoch, v.orders[0].n, tab.NumRows())
			}
			old, ok := v.SnapshotAt(epoch - uint64(1+rng.Intn(3)))
			if !ok {
				continue
			}
			if got, want := old.SortedRows("x"), referenceOrder(old.Floats("x")); !slices.Equal(got, want) {
				t.Fatalf("seed %d: older epoch's order %v, want %v", seed, got, want)
			}
			if v.orders[0].n != tab.NumRows() {
				t.Fatalf("seed %d: an older epoch replaced the held order", seed)
			}
		}
	}
}

// TestVersionedSortedRowsConcurrent reads the orders of current and
// retained snapshots from several goroutines while appends run; under
// -race it checks the lazy order and the held order are safely shared.
func TestVersionedSortedRowsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewVersioned(NewBuilder().AddFloat("x", orderBatch(rng, 200)).MustBuild())
	batches := make([][]float64, 20)
	for i := range batches {
		batches[i] = orderBatch(rng, 1+rng.Intn(20))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tab, epoch := v.Snapshot()
				if g%2 == 1 && epoch > 1 {
					if old, ok := v.SnapshotAt(epoch - 1); ok {
						tab = old
					}
				}
				if got, want := tab.SortedRows("x"), referenceOrder(tab.Floats("x")); !slices.Equal(got, want) {
					errs <- fmt.Errorf("goroutine %d: order of %d rows differs from a fresh sort", g, tab.NumRows())
					return
				}
			}
		}(g)
	}
	for _, b := range batches {
		if _, _, err := v.Append(&Batch{Floats: map[string][]float64{"x": b}, N: len(b)}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
