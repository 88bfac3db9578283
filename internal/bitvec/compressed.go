package bitvec

import (
	"math/bits"
)

// Set is the read-only row-set contract shared by the dense Vector and the
// roaring-style Compressed representation. Both miners and the outcome
// accumulators are written against this interface, so an item's
// representation is invisible to them.
//
// The *Range primitives address half-open word intervals [loWord, hiWord)
// of the underlying 64-bit word layout — the FP-tree build reads items in
// row blocks of a few words. Every implementation must visit set bits in
// ascending index order, both within a word range and across the whole
// set: the float accumulations layered on top (AndMomentsRange) then see
// an identical addition order regardless of representation, which is what
// keeps ranked mining output byte-identical when compressed items engage.
//
// The dense operand u of the And* primitives is always a *Vector: validity
// masks and materialized subgroup row sets stay dense; only per-item
// universe bitsets are representation-selected.
type Set interface {
	// Len returns the number of rows (bits) covered.
	Len() int
	// Count returns the number of set bits.
	Count() int
	// NumWords returns the number of 64-bit words of the layout.
	NumWords() int
	// AndCountRange returns the popcount of (set AND u) over the word range.
	AndCountRange(u *Vector, loWord, hiWord int) int
	// AndMomentsRange accumulates count, Σvals[i] and Σvals[i]² over the set
	// bits of (set AND u) in the word range, in ascending index order.
	AndMomentsRange(u *Vector, vals []float64, loWord, hiWord int) (n int, sum, sumSq float64)
	// ForEach calls fn for every set bit in ascending order.
	ForEach(fn func(i int))
	// ForEachRange calls fn for every set bit in the word range, ascending.
	ForEachRange(loWord, hiWord int, fn func(i int))
	// AndInto stores (set AND u) into dst, overwriting every word of dst,
	// and returns dst. dst must have the same length and may alias u.
	AndInto(u, dst *Vector) *Vector
	// Dense returns a dense view of the set: the receiver itself for a
	// Vector, a freshly materialized Vector for a Compressed.
	Dense() *Vector
}

// Dense returns v itself; Vector is its own dense view.
func (v *Vector) Dense() *Vector { return v }

// Compile-time checks that both representations satisfy the contract.
var (
	_ Set = (*Vector)(nil)
	_ Set = (*Compressed)(nil)
)

// DenseCutoff is the density (set bits / length) at or below which Pack
// selects the compressed representation. 1/64 is the break-even point of
// the array container: at most one set bit per word means the dense words
// are ≥ 97% zero and a 2-byte array entry per bit beats an 8-byte word.
const DenseCutoff = 1.0 / 64

// Pack selects a representation for v by density: vectors with more than
// DenseCutoff of their bits set stay dense (word-parallel AND/popcount is
// unbeatable there), sparser ones are compressed. The caller keeps
// ownership of v; the compressed copy shares no storage with it.
func Pack(v *Vector) Set {
	if v.n == 0 {
		return v
	}
	if float64(v.Count()) > DenseCutoff*float64(v.n) {
		return v
	}
	return Compress(v)
}

// Container geometry: each container covers 2^16 bits = 1024 words, so a
// container index is a bit index >> 16 and container boundaries are always
// word-aligned (a word range never splits a bit across containers).
const (
	containerBits  = 1 << 16
	containerWords = containerBits / wordBits
	// arrayMaxCard is the largest cardinality an array container may hold;
	// beyond it a bitmap (8 KiB) is smaller than the 2-byte-per-bit array.
	arrayMaxCard = containerBits / 16
)

// Container kinds.
const (
	cEmpty uint8 = iota
	cArray
	cBitmap
	cRun
)

// interval is one run of consecutive set bits within a container,
// inclusive on both ends (local bit offsets 0..65535).
type interval struct{ start, last uint16 }

// container is one 2^16-bit chunk of a Compressed set in its selected
// encoding. Exactly one of arr/words/runs is non-nil depending on kind;
// card caches the popcount.
type container struct {
	kind  uint8
	card  int32
	arr   []uint16   // cArray: sorted local bit offsets
	words []uint64   // cBitmap: dense words (possibly short in the last container)
	runs  []interval // cRun: sorted, disjoint, non-adjacent runs
}

// Compressed is an immutable roaring-style compressed bit set: a sequence
// of per-container encodings (array, bitmap or run), each chosen to
// minimize that container's footprint. It implements Set with the same
// ascending-order visit semantics as Vector; see the package comment for
// the determinism contract. Build one with Compress (or Pack).
type Compressed struct {
	n    int
	card int
	cs   []container
}

// Compress encodes v as a Compressed set, choosing per container the
// smallest of the three encodings. The result is independent of v.
func Compress(v *Vector) *Compressed {
	c := &Compressed{n: v.n}
	total := len(v.words)
	for base := 0; base < total; base += containerWords {
		hi := base + containerWords
		if hi > total {
			hi = total
		}
		ct := encodeContainer(v.words[base:hi])
		c.card += int(ct.card)
		c.cs = append(c.cs, ct)
	}
	return c
}

// encodeContainer picks the smallest encoding for one chunk of words.
func encodeContainer(chunk []uint64) container {
	card := 0
	nRuns := 0
	var prevMSB uint64
	for _, w := range chunk {
		card += bits.OnesCount64(w)
		// Run starts: set bits whose predecessor bit is clear; bits
		// continuing a run from the previous word are subtracted back out.
		nRuns += bits.OnesCount64(w &^ (w << 1))
		if prevMSB != 0 && w&1 != 0 {
			nRuns--
		}
		prevMSB = w >> 63
	}
	if card == 0 {
		return container{kind: cEmpty}
	}
	runBytes := nRuns * 4
	bmpBytes := len(chunk) * 8
	arrBytes := bmpBytes + 1 // array ineligible beyond arrayMaxCard
	if card <= arrayMaxCard {
		arrBytes = card * 2
	}
	switch {
	case runBytes < arrBytes && runBytes < bmpBytes:
		runs := make([]interval, 0, nRuns)
		prev, start := -2, -1
		forEachChunkBit(chunk, func(b int) {
			if b != prev+1 {
				if start >= 0 {
					runs = append(runs, interval{uint16(start), uint16(prev)})
				}
				start = b
			}
			prev = b
		})
		if start >= 0 {
			runs = append(runs, interval{uint16(start), uint16(prev)})
		}
		return container{kind: cRun, card: int32(card), runs: runs}
	case arrBytes <= bmpBytes:
		arr := make([]uint16, 0, card)
		forEachChunkBit(chunk, func(b int) { arr = append(arr, uint16(b)) })
		return container{kind: cArray, card: int32(card), arr: arr}
	default:
		words := make([]uint64, len(chunk))
		copy(words, chunk)
		return container{kind: cBitmap, card: int32(card), words: words}
	}
}

// forEachChunkBit visits the set bits of one word chunk in ascending order.
func forEachChunkBit(chunk []uint64, fn func(b int)) {
	for wi, w := range chunk {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Len returns the number of bits.
func (c *Compressed) Len() int { return c.n }

// Count returns the number of set bits (cached; O(1)).
func (c *Compressed) Count() int { return c.card }

// NumWords returns the number of 64-bit words of the dense layout.
func (c *Compressed) NumWords() int { return (c.n + wordBits - 1) / wordBits }

// containerSpan clips the word range [loWord, hiWord) to container ci,
// returning local word bounds [lw0, lw1) within the container (possibly
// empty) and the container's own word count.
func (c *Compressed) containerSpan(ci, loWord, hiWord int) (lw0, lw1 int) {
	base := ci * containerWords
	cw := c.NumWords() - base
	if cw > containerWords {
		cw = containerWords
	}
	lw0, lw1 = loWord-base, hiWord-base
	if lw0 < 0 {
		lw0 = 0
	}
	if lw1 > cw {
		lw1 = cw
	}
	return lw0, lw1
}

// forContainers invokes fn for every container overlapping [loWord,
// hiWord) with the clipped local word bounds, in ascending order.
func (c *Compressed) forContainers(loWord, hiWord int, fn func(ci int, ct *container, lw0, lw1 int)) {
	for ci := loWord / containerWords; ci < len(c.cs); ci++ {
		if ci*containerWords >= hiWord {
			break
		}
		lw0, lw1 := c.containerSpan(ci, loWord, hiWord)
		if lw0 >= lw1 {
			continue
		}
		fn(ci, &c.cs[ci], lw0, lw1)
	}
}

// arrBounds returns the index range [i0, i1) of arr entries falling in the
// local bit range [lw0*64, lw1*64).
func arrBounds(arr []uint16, lw0, lw1 int) (i0, i1 int) {
	lo, hi := lw0*wordBits, lw1*wordBits
	i0 = lowerBound(arr, lo)
	i1 = lowerBound(arr, hi)
	return i0, i1
}

// lowerBound returns the first index whose entry is ≥ b.
func lowerBound(arr []uint16, b int) int {
	lo, hi := 0, len(arr)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(arr[mid]) < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// maskFrom has bits [a, 64) set; maskUpTo has bits [0, b] set.
func maskFrom(a int) uint64 { return ^uint64(0) << uint(a) }
func maskUpTo(b int) uint64 {
	if b >= 63 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(b+1)) - 1
}

// clipRun clips an inclusive run [start, last] (local bits) to the local
// word range [lw0, lw1), reporting ok=false when the intersection is empty.
func clipRun(r interval, lw0, lw1 int) (rs, re int, ok bool) {
	rs, re = int(r.start), int(r.last)
	if lo := lw0 * wordBits; rs < lo {
		rs = lo
	}
	if hi := lw1*wordBits - 1; re > hi {
		re = hi
	}
	return rs, re, rs <= re
}

// wordsInContainer returns container ci's word count (short for the last).
func (c *Compressed) wordsInContainer(ci int) int {
	cw := c.NumWords() - ci*containerWords
	if cw > containerWords {
		cw = containerWords
	}
	return cw
}

// AndCountRange returns the popcount of (c AND u) over the word range.
func (c *Compressed) AndCountRange(u *Vector, loWord, hiWord int) int {
	c.mustMatch(u)
	total := 0
	c.forContainers(loWord, hiWord, func(ci int, ct *container, lw0, lw1 int) {
		base := ci * containerWords
		switch ct.kind {
		case cArray:
			i0, i1 := arrBounds(ct.arr, lw0, lw1)
			for _, b := range ct.arr[i0:i1] {
				if u.words[base+int(b)/wordBits]&(1<<uint(b%wordBits)) != 0 {
					total++
				}
			}
		case cBitmap:
			for lw := lw0; lw < lw1; lw++ {
				total += bits.OnesCount64(ct.words[lw] & u.words[base+lw])
			}
		case cRun:
			for _, r := range ct.runs {
				rs, re, ok := clipRun(r, lw0, lw1)
				if !ok {
					continue
				}
				total += andCountRunWords(u.words[base:], rs, re)
			}
		}
	})
	return total
}

// andCountRunWords counts u's set bits within the inclusive local bit
// range [rs, re], offset into uw (the container's slice of u's words).
func andCountRunWords(uw []uint64, rs, re int) int {
	w0, w1 := rs/wordBits, re/wordBits
	if w0 == w1 {
		return bits.OnesCount64(uw[w0] & maskFrom(rs%wordBits) & maskUpTo(re%wordBits))
	}
	n := bits.OnesCount64(uw[w0] & maskFrom(rs%wordBits))
	for w := w0 + 1; w < w1; w++ {
		n += bits.OnesCount64(uw[w])
	}
	return n + bits.OnesCount64(uw[w1]&maskUpTo(re%wordBits))
}

// AndMomentsRange accumulates (count, Σvals, Σvals²) over the set bits of
// (c AND u) in the word range, visiting bits in ascending order so the
// float addition order matches the dense implementation exactly.
func (c *Compressed) AndMomentsRange(u *Vector, vals []float64, loWord, hiWord int) (n int, sum, sumSq float64) {
	c.mustMatch(u)
	if len(vals) < c.n {
		panic("bitvec: AndMomentsRange slice too short")
	}
	add := func(i int) {
		x := vals[i]
		n++
		sum += x
		sumSq += x * x
	}
	c.forContainers(loWord, hiWord, func(ci int, ct *container, lw0, lw1 int) {
		base := ci * containerWords
		bitBase := base * wordBits
		switch ct.kind {
		case cArray:
			i0, i1 := arrBounds(ct.arr, lw0, lw1)
			for _, b := range ct.arr[i0:i1] {
				if u.words[base+int(b)/wordBits]&(1<<uint(b%wordBits)) != 0 {
					add(bitBase + int(b))
				}
			}
		case cBitmap:
			for lw := lw0; lw < lw1; lw++ {
				w := ct.words[lw] & u.words[base+lw]
				wb := bitBase + lw*wordBits
				for w != 0 {
					add(wb + bits.TrailingZeros64(w))
					w &= w - 1
				}
			}
		case cRun:
			for _, r := range ct.runs {
				rs, re, ok := clipRun(r, lw0, lw1)
				if !ok {
					continue
				}
				w0, w1 := rs/wordBits, re/wordBits
				for wi := w0; wi <= w1; wi++ {
					w := u.words[base+wi]
					if wi == w0 {
						w &= maskFrom(rs % wordBits)
					}
					if wi == w1 {
						w &= maskUpTo(re % wordBits)
					}
					wb := bitBase + wi*wordBits
					for w != 0 {
						add(wb + bits.TrailingZeros64(w))
						w &= w - 1
					}
				}
			}
		}
	})
	return n, sum, sumSq
}

// ForEach calls fn for every set bit in ascending order.
func (c *Compressed) ForEach(fn func(i int)) {
	c.ForEachRange(0, c.NumWords(), fn)
}

// ForEachRange calls fn for every set bit in the word range, ascending.
func (c *Compressed) ForEachRange(loWord, hiWord int, fn func(i int)) {
	c.forContainers(loWord, hiWord, func(ci int, ct *container, lw0, lw1 int) {
		bitBase := ci * containerBits
		switch ct.kind {
		case cArray:
			i0, i1 := arrBounds(ct.arr, lw0, lw1)
			for _, b := range ct.arr[i0:i1] {
				fn(bitBase + int(b))
			}
		case cBitmap:
			for lw := lw0; lw < lw1; lw++ {
				w := ct.words[lw]
				wb := bitBase + lw*wordBits
				for w != 0 {
					fn(wb + bits.TrailingZeros64(w))
					w &= w - 1
				}
			}
		case cRun:
			for _, r := range ct.runs {
				rs, re, ok := clipRun(r, lw0, lw1)
				if !ok {
					continue
				}
				for b := rs; b <= re; b++ {
					fn(bitBase + b)
				}
			}
		}
	})
}

// AndInto stores (c AND u) into dst, overwriting every word of dst, and
// returns dst. dst must have the same length; dst may alias u.
func (c *Compressed) AndInto(u, dst *Vector) *Vector {
	c.mustMatch(u)
	c.mustMatch(dst)
	for ci := range c.cs {
		ct := &c.cs[ci]
		base := ci * containerWords
		cw := c.wordsInContainer(ci)
		switch ct.kind {
		case cEmpty:
			for w := base; w < base+cw; w++ {
				dst.words[w] = 0
			}
		case cBitmap:
			for lw := 0; lw < cw; lw++ {
				dst.words[base+lw] = ct.words[lw] & u.words[base+lw]
			}
		case cArray:
			for w := base; w < base+cw; w++ {
				dst.words[w] = 0
			}
			for _, b := range ct.arr {
				w := base + int(b)/wordBits
				dst.words[w] |= u.words[w] & (1 << uint(b%wordBits))
			}
		case cRun:
			// Build the run mask word by word over a zeroed span. Runs are
			// disjoint and sorted, so |= accumulates without overlap.
			for w := base; w < base+cw; w++ {
				dst.words[w] = 0
			}
			for _, r := range ct.runs {
				rs, re := int(r.start), int(r.last)
				w0, w1 := rs/wordBits, re/wordBits
				for wi := w0; wi <= w1; wi++ {
					m := ^uint64(0)
					if wi == w0 {
						m &= maskFrom(rs % wordBits)
					}
					if wi == w1 {
						m &= maskUpTo(re % wordBits)
					}
					dst.words[base+wi] |= u.words[base+wi] & m
				}
			}
		}
	}
	return dst
}

// Dense materializes the set as a freshly allocated dense Vector.
func (c *Compressed) Dense() *Vector {
	v := New(c.n)
	for ci := range c.cs {
		ct := &c.cs[ci]
		base := ci * containerWords
		switch ct.kind {
		case cBitmap:
			copy(v.words[base:], ct.words)
		case cArray:
			for _, b := range ct.arr {
				v.words[base+int(b)/wordBits] |= 1 << uint(b%wordBits)
			}
		case cRun:
			for _, r := range ct.runs {
				rs, re := int(r.start), int(r.last)
				w0, w1 := rs/wordBits, re/wordBits
				for wi := w0; wi <= w1; wi++ {
					m := ^uint64(0)
					if wi == w0 {
						m &= maskFrom(rs % wordBits)
					}
					if wi == w1 {
						m &= maskUpTo(re % wordBits)
					}
					v.words[base+wi] |= m
				}
			}
		}
	}
	return v
}

// ContainerStats summarizes a Compressed set's encoding mix and footprint.
type ContainerStats struct {
	Array, Bitmap, Run, Empty int
	// Bytes is the payload footprint of the chosen encodings; DenseBytes is
	// what the equivalent dense Vector's words would occupy.
	Bytes, DenseBytes int64
}

// Stats returns the container mix and byte footprint of the set.
func (c *Compressed) Stats() ContainerStats {
	var s ContainerStats
	s.DenseBytes = int64(c.NumWords()) * 8
	for ci := range c.cs {
		switch c.cs[ci].kind {
		case cArray:
			s.Array++
			s.Bytes += int64(len(c.cs[ci].arr)) * 2
		case cBitmap:
			s.Bitmap++
			s.Bytes += int64(len(c.cs[ci].words)) * 8
		case cRun:
			s.Run++
			s.Bytes += int64(len(c.cs[ci].runs)) * 4
		default:
			s.Empty++
		}
	}
	return s
}

func (c *Compressed) mustMatch(u *Vector) {
	if c.n != u.n {
		panic("bitvec: length mismatch between compressed and dense operands")
	}
}
