// Package bitvec provides the row-set representations used throughout the
// mining code: dense fixed-length bit vectors (Vector) and roaring-style
// compressed bitmaps (Compressed), unified behind the Set interface. Every
// item is associated with the set of dataset rows it covers; itemset
// supports and divergence accumulators are then computed by word-wise AND
// and popcount, which is the performance backbone of both the Apriori and
// FP-Growth implementations.
//
// The Set contract (see the interface doc in compressed.go) is the
// determinism seam: every *Range primitive visits set bits in ascending
// index order over word-aligned [loWord, hiWord) windows, so float
// accumulation order — and hence the ranked output — is identical whichever
// representation holds an item. Pack selects the representation per item by
// density at universe build time; DESIGN.md §11 documents the container
// formats and the selection rule.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector. The zero value is an empty vector of
// length 0; use New to create one with a given length.
type Vector struct {
	words []uint64
	n     int // number of valid bits
}

// New returns a zeroed vector with n bits.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewFull returns a vector with all n bits set.
func NewFull(n int) *Vector {
	v := New(n)
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
	return v
}

// FromIndices returns a vector of length n with the given bit positions set.
func FromIndices(n int, idx []int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

// FromWords returns a vector of length n backed by words, which it takes
// over without copying: words[i] holds bits 64i..64i+63, and its length
// must be the word count of n bits. Bits at or beyond n are cleared.
func FromWords(words []uint64, n int) *Vector {
	if len(words) != (n+wordBits-1)/wordBits {
		panic(fmt.Sprintf("bitvec: FromWords got %d words for %d bits", len(words), n))
	}
	v := &Vector{words: words, n: n}
	v.trim()
	return v
}

// trim clears any bits beyond the logical length in the last word.
func (v *Vector) trim() {
	if r := v.n % wordBits; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (uint64(1) << uint(r)) - 1
	}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Set sets bit i.
func (v *Vector) Set(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: Set(%d) out of range [0,%d)", i, v.n))
	}
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (v *Vector) Clear(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: Clear(%d) out of range [0,%d)", i, v.n))
	}
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: Get(%d) out of range [0,%d)", i, v.n))
	}
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	w := New(v.n)
	copy(w.words, v.words)
	return w
}

// And sets v to v AND u and returns v. The vectors must have equal length.
func (v *Vector) And(u *Vector) *Vector {
	v.mustMatch(u)
	for i := range v.words {
		v.words[i] &= u.words[i]
	}
	return v
}

// Or sets v to v OR u and returns v. The vectors must have equal length.
func (v *Vector) Or(u *Vector) *Vector {
	v.mustMatch(u)
	for i := range v.words {
		v.words[i] |= u.words[i]
	}
	return v
}

// AndNot sets v to v AND NOT u and returns v.
func (v *Vector) AndNot(u *Vector) *Vector {
	v.mustMatch(u)
	for i := range v.words {
		v.words[i] &^= u.words[i]
	}
	return v
}

// Not inverts all bits of v in place and returns v.
func (v *Vector) Not() *Vector {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.trim()
	return v
}

// AndCount returns the popcount of v AND u without allocating.
func (v *Vector) AndCount(u *Vector) int {
	v.mustMatch(u)
	c := 0
	for i, w := range v.words {
		c += bits.OnesCount64(w & u.words[i])
	}
	return c
}

// AndInto stores v AND u into dst (which must have equal length) and returns
// dst. dst may alias v or u.
func (v *Vector) AndInto(u, dst *Vector) *Vector {
	v.mustMatch(u)
	v.mustMatch(dst)
	for i := range v.words {
		dst.words[i] = v.words[i] & u.words[i]
	}
	return dst
}

// Intersects reports whether v and u share at least one set bit.
func (v *Vector) Intersects(u *Vector) bool {
	v.mustMatch(u)
	for i, w := range v.words {
		if w&u.words[i] != 0 {
			return true
		}
	}
	return false
}

// IsSubsetOf reports whether every set bit of v is also set in u.
func (v *Vector) IsSubsetOf(u *Vector) bool {
	v.mustMatch(u)
	for i, w := range v.words {
		if w&^u.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and u have the same length and identical bits.
func (v *Vector) Equal(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i, w := range v.words {
		if w != u.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for each set bit index in increasing order.
func (v *Vector) ForEach(fn func(i int)) {
	for wi, w := range v.words {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Indices returns the indices of all set bits in increasing order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.Count())
	v.ForEach(func(i int) { out = append(out, i) })
	return out
}

// SumFloat64 returns the sum of vals[i] over all set bits i.
// vals must have at least Len elements.
func (v *Vector) SumFloat64(vals []float64) float64 {
	if len(vals) < v.n {
		panic("bitvec: SumFloat64 slice too short")
	}
	s := 0.0
	v.ForEach(func(i int) { s += vals[i] })
	return s
}

// Moments returns, over the set bits i of v, the count, the sum of vals[i]
// and the sum of squares of vals[i]. It is the single pass used by divergence
// and Welch t-value accumulation.
func (v *Vector) Moments(vals []float64) (n int, sum, sumSq float64) {
	if len(vals) < v.n {
		panic("bitvec: Moments slice too short")
	}
	v.ForEach(func(i int) {
		x := vals[i]
		n++
		sum += x
		sumSq += x * x
	})
	return n, sum, sumSq
}

// AndMoments returns, over the set bits i of v AND u, the count, the sum
// of vals[i] and the sum of squares of vals[i] — the fused equivalent of
// v.Clone().And(u).Moments(vals) with no intermediate vector. It is the
// divergence-accumulation hot path: the AND happens word by word in
// registers, and per-bit work is only spent on the (typically sparse)
// intersection.
func (v *Vector) AndMoments(u *Vector, vals []float64) (n int, sum, sumSq float64) {
	v.mustMatch(u)
	if len(vals) < v.n {
		panic("bitvec: AndMoments slice too short")
	}
	for wi, w := range v.words {
		w &= u.words[wi]
		base := wi * wordBits
		for w != 0 {
			x := vals[base+bits.TrailingZeros64(w)]
			n++
			sum += x
			sumSq += x * x
			w &= w - 1
		}
	}
	return n, sum, sumSq
}

// NumWords returns the number of 64-bit words backing the vector. Word w
// covers bits [64w, 64w+64) ∩ [0, Len); the range primitives below
// address sub-ranges of whole words.
func (v *Vector) NumWords() int { return len(v.words) }

// AndCountRange returns the popcount of v AND u restricted to the words in
// [loWord, hiWord) — the range view of AndCount.
func (v *Vector) AndCountRange(u *Vector, loWord, hiWord int) int {
	v.mustMatch(u)
	c := 0
	for wi := loWord; wi < hiWord; wi++ {
		c += bits.OnesCount64(v.words[wi] & u.words[wi])
	}
	return c
}

// AndMomentsRange is AndMoments restricted to the words in [loWord,
// hiWord): over the set bits i of v AND u with 64·loWord ≤ i < 64·hiWord,
// it returns the count, the sum of vals[i] and the sum of squares. Over
// the whole word range it adds in AndMoments' order, so the result is
// AndMoments' bit for bit.
func (v *Vector) AndMomentsRange(u *Vector, vals []float64, loWord, hiWord int) (n int, sum, sumSq float64) {
	v.mustMatch(u)
	if len(vals) < v.n {
		panic("bitvec: AndMomentsRange slice too short")
	}
	for wi := loWord; wi < hiWord; wi++ {
		w := v.words[wi] & u.words[wi]
		base := wi * wordBits
		for w != 0 {
			x := vals[base+bits.TrailingZeros64(w)]
			n++
			sum += x
			sumSq += x * x
			w &= w - 1
		}
	}
	return n, sum, sumSq
}

// ForEachRange calls fn for each set bit in the words [loWord, hiWord), in
// increasing order — the range view of ForEach.
func (v *Vector) ForEachRange(loWord, hiWord int, fn func(i int)) {
	for wi := loWord; wi < hiWord; wi++ {
		w := v.words[wi]
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// String renders the vector as a 0/1 string, bit 0 first, for debugging.
func (v *Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

func (v *Vector) mustMatch(u *Vector) {
	if v.n != u.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, u.n))
	}
}
