package bitvec

import (
	"math/rand"
	"testing"
)

// randomVector builds a vector with one of several bit-pattern shapes so
// the per-container encoding choice covers array, bitmap and run kinds.
func randomVector(rng *rand.Rand, n int) *Vector {
	v := New(n)
	if n == 0 {
		return v
	}
	switch rng.Intn(5) {
	case 0: // very sparse — array containers
		for k := 0; k < n/200+1; k++ {
			v.Set(rng.Intn(n))
		}
	case 1: // dense patches — bitmap containers
		for k := 0; k < 4; k++ {
			start := rng.Intn(n)
			for i := start; i < start+n/8 && i < n; i++ {
				if rng.Intn(3) > 0 {
					v.Set(i)
				}
			}
		}
	case 2: // long runs — run containers
		for k := 0; k < 5; k++ {
			start := rng.Intn(n)
			end := start + rng.Intn(n/3+1)
			for i := start; i <= end && i < n; i++ {
				v.Set(i)
			}
		}
	case 3: // empty-ish
		if rng.Intn(2) == 0 {
			v.Set(rng.Intn(n))
		}
	default: // mixed
		for k := 0; k < n/50+1; k++ {
			start := rng.Intn(n)
			end := start + rng.Intn(20)
			for i := start; i <= end && i < n; i++ {
				v.Set(i)
			}
		}
	}
	return v
}

// TestCompressedAgreesWithDense is the representation-equivalence property
// test: over randomized universes (lengths crossing word and container
// boundaries, all container kinds) the Compressed implementation of every
// Set primitive must agree with the dense Vector — including, for the
// moments accumulation, the exact float result, which pins the ascending
// visit order the determinism contract requires.
func TestCompressedAgreesWithDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{1, 63, 64, 65, 1000, 4096, 65535, 65536, 65537, 70000, 131072 + 17}
	for _, n := range lengths {
		for trial := 0; trial < 8; trial++ {
			v := randomVector(rng, n)
			c := Compress(v)
			u := randomVector(rng, n)
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = rng.Float64()*2 - 1
			}

			if c.Len() != v.Len() || c.Count() != v.Count() || c.NumWords() != v.NumWords() {
				t.Fatalf("n=%d: Len/Count/NumWords mismatch", n)
			}
			if d := c.Dense(); !d.Equal(v) {
				t.Fatalf("n=%d: Dense() round trip differs", n)
			}

			// Word ranges: full span, container-crossing splits, and random
			// sub-ranges including word-boundary splits.
			nw := v.NumWords()
			ranges := [][2]int{{0, nw}}
			for k := 0; k < 12; k++ {
				lo := rng.Intn(nw + 1)
				hi := lo + rng.Intn(nw-lo+1)
				ranges = append(ranges, [2]int{lo, hi})
			}
			if nw > containerWords {
				ranges = append(ranges,
					[2]int{containerWords - 1, containerWords + 1},
					[2]int{0, containerWords},
					[2]int{containerWords, nw})
			}
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				if got, want := c.AndCountRange(u, lo, hi), v.AndCountRange(u, lo, hi); got != want {
					t.Fatalf("n=%d [%d,%d): AndCountRange %d != %d", n, lo, hi, got, want)
				}
				cn, cs, cq := c.AndMomentsRange(u, vals, lo, hi)
				vn, vs, vq := v.AndMomentsRange(u, vals, lo, hi)
				if cn != vn || cs != vs || cq != vq {
					t.Fatalf("n=%d [%d,%d): AndMomentsRange (%d,%v,%v) != (%d,%v,%v)",
						n, lo, hi, cn, cs, cq, vn, vs, vq)
				}
				var ci, vi []int
				c.ForEachRange(lo, hi, func(i int) { ci = append(ci, i) })
				v.ForEachRange(lo, hi, func(i int) { vi = append(vi, i) })
				if len(ci) != len(vi) {
					t.Fatalf("n=%d [%d,%d): ForEachRange visited %d vs %d bits", n, lo, hi, len(ci), len(vi))
				}
				for k := range ci {
					if ci[k] != vi[k] {
						t.Fatalf("n=%d [%d,%d): ForEachRange order diverges at %d: %d != %d", n, lo, hi, k, ci[k], vi[k])
					}
				}
			}

			// ForEach over the whole set.
			var ci, vi []int
			c.ForEach(func(i int) { ci = append(ci, i) })
			v.ForEach(func(i int) { vi = append(vi, i) })
			if len(ci) != len(vi) {
				t.Fatalf("n=%d: ForEach visited %d vs %d bits", n, len(ci), len(vi))
			}

			// AndInto must fully overwrite an arbitrarily dirty destination.
			dst := randomVector(rng, n)
			want := v.Clone().And(u)
			if got := c.AndInto(u, dst); !got.Equal(want) {
				t.Fatalf("n=%d: AndInto differs from dense AND", n)
			}
		}
	}
}

// TestPackThreshold pins the density-based representation choice: Pack
// keeps dense vectors dense and compresses at or below DenseCutoff.
func TestPackThreshold(t *testing.T) {
	n := 100000
	sparse := New(n)
	for i := 0; i < n/100; i += 1 {
		sparse.Set(i * 97 % n)
	}
	if _, ok := Pack(sparse).(*Compressed); !ok {
		t.Fatalf("Pack kept a %d/%d-density vector dense", sparse.Count(), n)
	}
	dense := New(n)
	for i := 0; i < n/2; i++ {
		dense.Set(i * 2)
	}
	if _, ok := Pack(dense).(*Vector); !ok {
		t.Fatalf("Pack compressed a half-full vector")
	}
	if _, ok := Pack(New(0)).(*Vector); !ok {
		t.Fatalf("Pack of an empty vector should stay dense")
	}
}

// TestCompressedStats sanity-checks the container accounting: a sparse
// vector compresses into array containers with a footprint far below the
// dense equivalent, and a full vector collapses into run containers.
func TestCompressedStats(t *testing.T) {
	n := 3 * containerBits
	sparse := New(n)
	for i := 0; i < 30; i++ {
		sparse.Set(i * 6000)
	}
	st := Compress(sparse).Stats()
	if st.Array == 0 || st.Bytes >= st.DenseBytes/10 {
		t.Fatalf("sparse stats: %+v", st)
	}
	full := NewFull(n)
	st = Compress(full).Stats()
	if st.Run != 3 || st.Bytes != 12 {
		t.Fatalf("full-vector stats: %+v", st)
	}
	if got := Compress(full).Count(); got != n {
		t.Fatalf("full-vector count %d != %d", got, n)
	}
}
