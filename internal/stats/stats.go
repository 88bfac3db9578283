// Package stats provides the statistical primitives used by the discretizer
// and the subgroup explorers: binary entropy, Welch's t-test, running
// moments, quantiles and small distribution helpers.
//
// All divergence significance testing in the paper is done with Welch's
// t-test between the outcome values of the subgroup and of the entire
// dataset; the explorer accumulates (n, Σo, Σo²) per itemset so the t-value
// can be computed without another dataset pass.
package stats

import (
	"math"
	"sort"
)

// Moments accumulates count, sum and sum of squares of a stream of values.
// It is the per-itemset accumulator used by the mining algorithms.
type Moments struct {
	N     int
	Sum   float64
	SumSq float64
}

// Add folds a value into the accumulator.
func (m *Moments) Add(x float64) {
	m.N++
	m.Sum += x
	m.SumSq += x * x
}

// AddN folds another accumulator into m.
func (m *Moments) AddN(o Moments) {
	m.N += o.N
	m.Sum += o.Sum
	m.SumSq += o.SumSq
}

// Mean returns the mean of the accumulated values, or NaN if empty.
func (m Moments) Mean() float64 {
	if m.N == 0 {
		return math.NaN()
	}
	return m.Sum / float64(m.N)
}

// Var returns the unbiased sample variance, or NaN if fewer than two values.
func (m Moments) Var() float64 {
	if m.N < 2 {
		return math.NaN()
	}
	n := float64(m.N)
	v := (m.SumSq - m.Sum*m.Sum/n) / (n - 1)
	if v < 0 { // guard against tiny negative values from cancellation
		v = 0
	}
	return v
}

// FromValues builds a Moments accumulator from a slice.
func FromValues(xs []float64) Moments {
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	return m
}

// WelchT returns the Welch t-statistic between two samples summarized by
// their moments, as used to assess statistical significance of divergence.
// It returns 0 when either sample has fewer than two elements or both
// variances are zero with equal means; it returns +Inf/-Inf when variances
// are zero but the means differ.
func WelchT(a, b Moments) float64 {
	if a.N < 2 || b.N < 2 {
		return 0
	}
	va, vb := a.Var(), b.Var()
	se := math.Sqrt(va/float64(a.N) + vb/float64(b.N))
	diff := a.Mean() - b.Mean()
	if se == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(sign(diff))
	}
	return diff / se
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// BinaryEntropy returns the Shannon entropy (natural log) of a Bernoulli
// distribution with success probability p. By convention 0·log 0 = 0, and p
// outside [0,1] (possible only through caller bugs or NaN propagation)
// yields 0.
func BinaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return 0
	}
	return -p*math.Log(p) - (1-p)*math.Log(1-p)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (the "linear"/type-7 definition).
// It panics if xs is empty. xs need not be sorted; it is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// IsotropicGaussian is a multivariate normal with identity covariance scaled
// by Sigma², used by the synthetic-peak generator: the paper's "multivariate
// normal random variable with a mean of [0, 1, 2] and covariance of 1".
type IsotropicGaussian struct {
	Mean  []float64
	Sigma float64
}

// Density returns the (unnormalized-dimension-correct) density at x.
func (g IsotropicGaussian) Density(x []float64) float64 {
	if len(x) != len(g.Mean) {
		panic("stats: dimension mismatch in IsotropicGaussian.Density")
	}
	d2 := 0.0
	for i, xi := range x {
		d := (xi - g.Mean[i]) / g.Sigma
		d2 += d * d
	}
	k := float64(len(x))
	norm := math.Pow(2*math.Pi*g.Sigma*g.Sigma, -k/2)
	return norm * math.Exp(-0.5*d2)
}

// NormalizedDensity returns Density(x) scaled so the mode has value 1; the
// synthetic-peak generator uses it directly as a label-flip probability.
func (g IsotropicGaussian) NormalizedDensity(x []float64) float64 {
	return g.Density(x) / g.Density(g.Mean)
}
