package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsZeroed(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	if v.Count() != 0 {
		t.Fatalf("Count = %d, want 0", v.Count())
	}
	for i := 0; i < 130; i++ {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
	}
}

func TestNewFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 129, 1000} {
		v := NewFull(n)
		if got := v.Count(); got != n {
			t.Errorf("NewFull(%d).Count() = %d, want %d", n, got, n)
		}
	}
}

func TestSetGetClear(t *testing.T) {
	v := New(200)
	idx := []int{0, 1, 63, 64, 65, 127, 128, 199}
	for _, i := range idx {
		v.Set(i)
	}
	for _, i := range idx {
		if !v.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.Count() != len(idx) {
		t.Fatalf("Count = %d, want %d", v.Count(), len(idx))
	}
	v.Clear(64)
	if v.Get(64) {
		t.Error("bit 64 still set after Clear")
	}
	if v.Count() != len(idx)-1 {
		t.Errorf("Count = %d, want %d", v.Count(), len(idx)-1)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for name, fn := range map[string]func(){
		"Set":       func() { v.Set(10) },
		"Get":       func() { v.Get(-1) },
		"Clear":     func() { v.Clear(100) },
		"SetNeg":    func() { v.Set(-5) },
		"MismatchA": func() { v.And(New(11)) },
		"MismatchC": func() { v.AndCount(New(9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFromIndices(t *testing.T) {
	v := FromIndices(100, []int{3, 50, 99, 3})
	if v.Count() != 3 {
		t.Fatalf("Count = %d, want 3", v.Count())
	}
	want := []int{3, 50, 99}
	got := v.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestBooleanOps(t *testing.T) {
	a := FromIndices(130, []int{1, 2, 3, 64, 65, 129})
	b := FromIndices(130, []int{2, 3, 4, 65, 128})

	and := a.Clone().And(b)
	wantAnd := FromIndices(130, []int{2, 3, 65})
	if !and.Equal(wantAnd) {
		t.Errorf("And = %v, want %v", and.Indices(), wantAnd.Indices())
	}

	or := a.Clone().Or(b)
	wantOr := FromIndices(130, []int{1, 2, 3, 4, 64, 65, 128, 129})
	if !or.Equal(wantOr) {
		t.Errorf("Or = %v, want %v", or.Indices(), wantOr.Indices())
	}

	andNot := a.Clone().AndNot(b)
	wantAndNot := FromIndices(130, []int{1, 64, 129})
	if !andNot.Equal(wantAndNot) {
		t.Errorf("AndNot = %v, want %v", andNot.Indices(), wantAndNot.Indices())
	}

	if got := a.AndCount(b); got != 3 {
		t.Errorf("AndCount = %d, want 3", got)
	}
}

func TestNotRespectsLength(t *testing.T) {
	v := FromIndices(70, []int{0, 69})
	v.Not()
	if v.Count() != 68 {
		t.Fatalf("Not().Count() = %d, want 68", v.Count())
	}
	if v.Get(0) || v.Get(69) {
		t.Error("Not did not clear original bits")
	}
	// Double negation restores.
	v.Not()
	if !v.Equal(FromIndices(70, []int{0, 69})) {
		t.Error("double Not is not identity")
	}
}

func TestAndInto(t *testing.T) {
	a := FromIndices(100, []int{1, 2, 3})
	b := FromIndices(100, []int{2, 3, 4})
	dst := New(100)
	a.AndInto(b, dst)
	if !dst.Equal(FromIndices(100, []int{2, 3})) {
		t.Errorf("AndInto = %v", dst.Indices())
	}
	// Aliasing dst with a receiver must work.
	a.AndInto(b, a)
	if !a.Equal(FromIndices(100, []int{2, 3})) {
		t.Errorf("aliased AndInto = %v", a.Indices())
	}
}

func TestSubsetIntersect(t *testing.T) {
	a := FromIndices(80, []int{1, 70})
	b := FromIndices(80, []int{1, 2, 70})
	c := FromIndices(80, []int{5})
	if !a.IsSubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.IsSubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	if !a.Intersects(b) {
		t.Error("a should intersect b")
	}
	if a.Intersects(c) {
		t.Error("a should not intersect c")
	}
	empty := New(80)
	if !empty.IsSubsetOf(c) {
		t.Error("empty set is subset of everything")
	}
}

func TestForEachOrder(t *testing.T) {
	idx := []int{0, 5, 63, 64, 100, 127}
	v := FromIndices(128, idx)
	var got []int
	v.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(idx) {
		t.Fatalf("ForEach visited %v, want %v", got, idx)
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("ForEach visited %v, want %v", got, idx)
		}
	}
}

func TestSumAndMoments(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	v := FromIndices(5, []int{0, 2, 4})
	if got := v.SumFloat64(vals); got != 9 {
		t.Errorf("SumFloat64 = %v, want 9", got)
	}
	n, sum, sumSq := v.Moments(vals)
	if n != 3 || sum != 9 || sumSq != 1+9+25 {
		t.Errorf("Moments = (%d,%v,%v), want (3,9,35)", n, sum, sumSq)
	}
}

func TestStringRoundTrip(t *testing.T) {
	v := FromIndices(6, []int{0, 3, 5})
	if got := v.String(); got != "100101" {
		t.Errorf("String = %q, want %q", got, "100101")
	}
}

// Property: Count(a AND b) == AndCount(a, b) for random vectors.
func TestQuickAndCountConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				a.Set(i)
			}
			if r.Intn(2) == 0 {
				b.Set(i)
			}
		}
		return a.Clone().And(b).Count() == a.AndCount(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AndMoments(a, b, vals) == Moments of a AND b, for random
// vectors and values — the fused accumulator must match the allocating
// two-step form exactly (same bits, same fp addition order).
func TestQuickAndMomentsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := New(n), New(n)
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				a.Set(i)
			}
			if r.Intn(2) == 0 {
				b.Set(i)
			}
			vals[i] = r.NormFloat64()
		}
		n1, s1, q1 := a.Clone().And(b).Moments(vals)
		n2, s2, q2 := a.AndMoments(b, vals)
		return n1 == n2 && s1 == s2 && q1 == q2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAndCountWordBoundaries pins AndCount and AndMoments at lengths
// around the 64-bit word edges, where trim/masking bugs would hide.
func TestAndCountWordBoundaries(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 192} {
		a, b := NewFull(n), NewFull(n)
		if got := a.AndCount(b); got != n {
			t.Errorf("n=%d: AndCount = %d, want %d", n, got, n)
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 1
		}
		cnt, sum, _ := a.AndMoments(b, vals)
		if cnt != n || sum != float64(n) {
			t.Errorf("n=%d: AndMoments = (%d, %g), want (%d, %d)", n, cnt, sum, n, n)
		}
	}
}

// Property: De Morgan — NOT(a OR b) == NOT a AND NOT b.
func TestQuickDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				a.Set(i)
			}
			if r.Intn(3) == 0 {
				b.Set(i)
			}
		}
		left := a.Clone().Or(b).Not()
		right := a.Clone().Not().And(b.Clone().Not())
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Indices round-trips through FromIndices.
func TestQuickIndicesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		v := New(n)
		for i := 0; i < n; i++ {
			if r.Intn(4) == 0 {
				v.Set(i)
			}
		}
		return FromIndices(n, v.Indices()).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: subset relation is consistent with AND: a ⊆ b iff a AND b == a.
func TestQuickSubsetConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			switch r.Intn(4) {
			case 0:
				a.Set(i)
				b.Set(i)
			case 1:
				b.Set(i)
			case 2:
				a.Set(i)
			}
		}
		return a.IsSubsetOf(b) == a.Clone().And(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAndCount(b *testing.B) {
	n := 200_000
	r := rand.New(rand.NewSource(1))
	x, y := New(n), New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			x.Set(i)
		}
		if r.Intn(2) == 0 {
			y.Set(i)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.AndCount(y)
	}
}

// randomPair builds two random vectors of length n plus a value slice,
// for exercising the word-range primitives.
func randomPair(rng *rand.Rand, n int) (v, u *Vector, vals []float64) {
	v, u = New(n), New(n)
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			v.Set(i)
		}
		if rng.Intn(3) != 0 {
			u.Set(i)
		}
		vals[i] = float64(rng.Intn(3)) // integral so partial sums are exact
	}
	return v, u, vals
}

// TestRangePrimitivesMatchNaive checks every word-range primitive against
// a naive per-bit evaluation over the same row interval, and that summing
// over a full word-range partition reproduces the whole-vector primitive.
func TestRangePrimitivesMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 64, 65, 130, 1000} {
		v, u, vals := randomPair(rng, n)
		words := v.NumWords()
		if words != (n+63)/64 {
			t.Fatalf("n=%d: NumWords() = %d, want %d", n, words, (n+63)/64)
		}
		// All word-aligned [lo, hi) sub-ranges.
		for lo := 0; lo <= words; lo++ {
			for hi := lo; hi <= words; hi++ {
				rowLo, rowHi := lo*64, hi*64
				if rowHi > n {
					rowHi = n
				}
				var andCount, mN int
				var mSum, mSumSq float64
				for i := rowLo; i < rowHi; i++ {
					if v.Get(i) && u.Get(i) {
						andCount++
						mN++
						mSum += vals[i]
						mSumSq += vals[i] * vals[i]
					}
				}
				if got := v.AndCountRange(u, lo, hi); got != andCount {
					t.Fatalf("n=%d [%d,%d): AndCountRange = %d, want %d", n, lo, hi, got, andCount)
				}
				gotN, gotSum, gotSumSq := v.AndMomentsRange(u, vals, lo, hi)
				if gotN != mN || gotSum != mSum || gotSumSq != mSumSq {
					t.Fatalf("n=%d [%d,%d): AndMomentsRange = (%d, %v, %v), want (%d, %v, %v)",
						n, lo, hi, gotN, gotSum, gotSumSq, mN, mSum, mSumSq)
				}
			}
		}
		// A partition of the word range must sum to the whole-vector primitives.
		for _, parts := range []int{1, 2, 3, 5} {
			if parts > words && words > 0 {
				continue
			}
			total := 0
			var tN int
			var tSum, tSumSq float64
			bounds := []int{0}
			for p := 1; p < parts; p++ {
				bounds = append(bounds, p*words/parts)
			}
			bounds = append(bounds, words)
			for p := 0; p < len(bounds)-1; p++ {
				total += v.AndCountRange(u, bounds[p], bounds[p+1])
				pn, ps, pss := v.AndMomentsRange(u, vals, bounds[p], bounds[p+1])
				tN, tSum, tSumSq = tN+pn, tSum+ps, tSumSq+pss
			}
			if want := v.AndCount(u); total != want {
				t.Errorf("n=%d parts=%d: partitioned AndCount = %d, want %d", n, parts, total, want)
			}
			wN, wSum, wSumSq := v.AndMoments(u, vals)
			if tN != wN || tSum != wSum || tSumSq != wSumSq {
				t.Errorf("n=%d parts=%d: partitioned moments (%d, %v, %v), want (%d, %v, %v)",
					n, parts, tN, tSum, tSumSq, wN, wSum, wSumSq)
			}
		}
	}
}

// TestForEachRange checks the word-range iterator yields exactly the set
// bits of the row interval, in ascending order.
func TestForEachRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v, _, _ := randomPair(rng, 300)
	words := v.NumWords()
	for lo := 0; lo <= words; lo++ {
		for hi := lo; hi <= words; hi++ {
			var got []int
			v.ForEachRange(lo, hi, func(i int) { got = append(got, i) })
			var want []int
			rowHi := hi * 64
			if rowHi > v.Len() {
				rowHi = v.Len()
			}
			for i := lo * 64; i < rowHi; i++ {
				if v.Get(i) {
					want = append(want, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("[%d,%d): %d indices, want %d", lo, hi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("[%d,%d): index %d = %d, want %d", lo, hi, i, got[i], want[i])
				}
			}
		}
	}
}
