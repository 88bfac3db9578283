package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMomentsBasics(t *testing.T) {
	m := FromValues([]float64{1, 2, 3, 4})
	if m.N != 4 || m.Sum != 10 || m.SumSq != 30 {
		t.Fatalf("Moments = %+v", m)
	}
	if !almostEqual(m.Mean(), 2.5, 1e-12) {
		t.Errorf("Mean = %v, want 2.5", m.Mean())
	}
	// sample variance of 1..4 is 5/3
	if !almostEqual(m.Var(), 5.0/3.0, 1e-12) {
		t.Errorf("Var = %v, want %v", m.Var(), 5.0/3.0)
	}
}

func TestMomentsEmptyAndSingle(t *testing.T) {
	var m Moments
	if !math.IsNaN(m.Mean()) {
		t.Error("empty Mean should be NaN")
	}
	if !math.IsNaN(m.Var()) {
		t.Error("empty Var should be NaN")
	}
	m.Add(7)
	if m.Mean() != 7 {
		t.Errorf("single Mean = %v", m.Mean())
	}
	if !math.IsNaN(m.Var()) {
		t.Error("single Var should be NaN")
	}
}

func TestMomentsAddN(t *testing.T) {
	a := FromValues([]float64{1, 2})
	b := FromValues([]float64{3, 4, 5})
	a.AddN(b)
	want := FromValues([]float64{1, 2, 3, 4, 5})
	if a != want {
		t.Errorf("AddN = %+v, want %+v", a, want)
	}
}

func TestWelchTKnownValue(t *testing.T) {
	// Classic example: two samples with clearly different means.
	a := FromValues([]float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4})
	b := FromValues([]float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5})
	got := WelchT(a, b)
	// Verified against an independent two-pass implementation.
	if !almostEqual(got, -2.70778, 1e-4) {
		t.Errorf("WelchT = %v, want ≈ -2.70778", got)
	}
}

func TestWelchTDegenerate(t *testing.T) {
	small := FromValues([]float64{1})
	big := FromValues([]float64{1, 2, 3})
	if WelchT(small, big) != 0 {
		t.Error("WelchT with n<2 should be 0")
	}
	zeroVarSame := FromValues([]float64{2, 2, 2})
	if WelchT(zeroVarSame, zeroVarSame) != 0 {
		t.Error("equal-mean zero-variance should be 0")
	}
	zeroVarHigher := FromValues([]float64{3, 3, 3})
	if !math.IsInf(WelchT(zeroVarHigher, zeroVarSame), 1) {
		t.Error("zero-variance different means should be +Inf")
	}
	if !math.IsInf(WelchT(zeroVarSame, zeroVarHigher), -1) {
		t.Error("zero-variance different means should be -Inf")
	}
}

func TestWelchTSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMoments(r, 2+r.Intn(50))
		b := randomMoments(r, 2+r.Intn(50))
		return almostEqual(WelchT(a, b), -WelchT(b, a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func randomMoments(r *rand.Rand, n int) Moments {
	var m Moments
	for i := 0; i < n; i++ {
		m.Add(r.NormFloat64()*3 + 1)
	}
	return m
}

func TestBinaryEntropy(t *testing.T) {
	cases := []struct {
		p, want float64
	}{
		{0, 0},
		{1, 0},
		{-0.5, 0},
		{1.5, 0},
		{0.5, math.Log(2)},
	}
	for _, c := range cases {
		if got := BinaryEntropy(c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("BinaryEntropy(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !almostEqual(BinaryEntropy(math.NaN()), 0, 0) {
		t.Error("BinaryEntropy(NaN) should be 0")
	}
}

func TestBinaryEntropyProperties(t *testing.T) {
	f := func(p float64) bool {
		p = math.Abs(math.Mod(p, 1))
		h := BinaryEntropy(p)
		// Symmetric, bounded by log 2, nonnegative.
		return h >= 0 && h <= math.Log(2)+1e-12 && almostEqual(h, BinaryEntropy(1-p), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty input")
		}
	}()
	Quantile(nil, 0.5)
}

func TestIsotropicGaussian(t *testing.T) {
	g := IsotropicGaussian{Mean: []float64{0, 1, 2}, Sigma: 1}
	if got := g.NormalizedDensity([]float64{0, 1, 2}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("NormalizedDensity at mode = %v, want 1", got)
	}
	far := g.NormalizedDensity([]float64{5, 5, 5})
	if far <= 0 || far >= 0.01 {
		t.Errorf("NormalizedDensity far from mode = %v, want small positive", far)
	}
	// Monotone decrease with distance from the mode along an axis.
	prev := math.Inf(1)
	for d := 0.0; d < 4; d += 0.5 {
		v := g.NormalizedDensity([]float64{d, 1, 2})
		if v > prev {
			t.Fatalf("density not decreasing at distance %v", d)
		}
		prev = v
	}
}

func TestIsotropicGaussianDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	g := IsotropicGaussian{Mean: []float64{0, 0}, Sigma: 1}
	g.Density([]float64{1})
}

// Property: Moments.Var matches a two-pass variance computation.
func TestQuickVarTwoPass(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		m := FromValues(xs)
		mean := m.Mean()
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		want := ss / float64(n-1)
		return almostEqual(m.Var(), want, 1e-6*math.Max(1, want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
