package fpm

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/outcome"
)

// Rank returns the reporting order of items under bundle outcome k, o
// (each itemset's moments for it are MomentsAt(k)): order[i] is the index
// in items of the i-th ranked itemset. Itemsets rank by |divergence|
// descending, NaN last. Ties break toward smaller length, then higher
// support, then lexicographic items, then smaller index, so the order is
// the one a stable sort by the first three gives. items is not modified:
// a report is built by reading it in order.
//
// The sort runs over 16-byte records (rankRec), each holding its
// itemset's key, a 32-bit tie prefix and its index, and orders them by
// those 12 key bytes with an in-place radix sort (radixSort). The
// comparator (compare) reads the itemsets only for records whose 12
// bytes are equal, and radixSort first packs such records' ties again
// from later items. The last item tie-break compares item
// slices in the byte order of their varint encoding (keyCompare), the
// order of the historical string-key comparison, without building
// strings.
//
// workers follows Options.Workers (0 = every core). From 2*RankChunkMin
// itemsets on, the records are filled and sorted in contiguous chunks on
// that many goroutines (engine.Chunks), and the sorted chunks are merged
// into the order in as many parts of equal length (merge); one
// engine.ParallelFor runs the three phases (step). The comparison is a
// total order over the records, so the order is the serial one element
// for element, whatever the worker count. A panic in a chunk is raised
// again on the caller's goroutine, as the serial sort would raise it.
func Rank(items []MinedItemset, k int, o *outcome.Outcome, workers int) []int32 {
	n := len(items)
	rk := &ranker{
		items:  items,
		k:      k,
		o:      o,
		recs:   make([]rankRec, n),
		order:  make([]int32, n),
		chunks: engine.Chunks(n, workers, RankChunkMin),
		span:   newRankSpan(),
	}
	rk.filled.Add(rk.chunks)
	rk.sorted.Add(rk.chunks)
	// Untraced, so the worker counters keep describing mining; a step's
	// panic is raised again here, as the serial sort would raise it.
	if err := engine.ParallelFor(3*rk.chunks, rk.chunks, nil, rk.step); err != nil {
		panic(err)
	}
	return rk.order
}

// RankChunkMin is the fewest itemsets Rank sorts on one goroutine, and
// the fewest subgroups a report build (core) gives one: below twice this
// both stay serial, so a small result pays nothing for the workers.
// Measured with BenchmarkRank's ranking and report build (internal/core)
// on prefixes of its fixture at 2 workers: chunks of 256 ran 12% slower
// than serial, chunks of 512 20% faster; 1024 keeps a 2x margin.
const RankChunkMin = 1024

// ranker is one Rank call's state: the itemsets and the outcome they
// rank by, their records, the chunks both are split into, the chunks
// still to fill and to sort, the span of the itemsets, and the order.
type ranker struct {
	items          []MinedItemset
	k              int
	o              *outcome.Outcome
	recs           []rankRec
	order          []int32
	chunks         int
	filled, sorted sync.WaitGroup
	mu             sync.Mutex
	span           rankSpan // of the chunks filled so far, under mu
}

// step runs Rank's task i: phase i/chunks of chunk i%chunks, where the
// phases are fill, sortChunk and merge, once every chunk has finished
// the phase before. ParallelFor hands tasks out in index order, so those
// chunks' tasks have all been started when step waits for them, and a
// task that panics still counts its chunk as done.
func (rk *ranker) step(i int) {
	c := i % rk.chunks
	switch i / rk.chunks {
	case 0:
		defer rk.filled.Done()
		rk.fill(c)
	case 1:
		rk.filled.Wait()
		defer rk.sorted.Done()
		rk.sortChunk(c)
	default:
		rk.sorted.Wait()
		rk.merge(c)
	}
}

// chunk returns the half-open range of chunk c.
func (rk *ranker) chunk(c int) (lo, hi int) {
	return engine.ChunkRange(len(rk.recs), rk.chunks, c)
}

// fill sets chunk c's records' keys and indices, and adds its itemsets
// to the span the tie prefix is fitted to.
func (rk *ranker) fill(c int) {
	lo, hi := rk.chunk(c)
	s := newRankSpan()
	for i := lo; i < hi; i++ {
		m := &rk.items[i]
		rk.recs[i] = rankRec{key: rankKey(rk.o.DivergenceFromMoments(m.MomentsAt(rk.k))), idx: int32(i)}
		s.add(m)
	}
	rk.mu.Lock()
	rk.span.merge(s)
	rk.mu.Unlock()
}

// sortChunk packs chunk c's tie prefixes and sorts its records.
func (rk *ranker) sortChunk(c int) {
	lo, hi := rk.chunk(c)
	tie := newTiePacker(rk.span)
	for i := lo; i < hi; i++ {
		rk.recs[i].tie = tie.pack(&rk.items[i], withHead)
	}
	rk.radixSort(rk.recs[lo:hi], 0, withHead, &tie)
}

// compare is Rank's order over records: by key bytes, then by the
// itemsets' length, count and items, then by index.
func (rk *ranker) compare(a, b rankRec) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	if a.tie != b.tie {
		return cmp.Compare(a.tie, b.tie)
	}
	x, y := &rk.items[a.idx], &rk.items[b.idx]
	switch {
	case len(x.Items) != len(y.Items):
		return cmp.Compare(len(x.Items), len(y.Items))
	case x.Count != y.Count:
		return cmp.Compare(y.Count, x.Count)
	}
	if c := keyCompare(x.Items, y.Items); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// rankRec is Rank's sort record for items[idx]. Its key bytes, most
// significant first, are key then tie: key orders |divergence|
// descending (rankKey), tie orders the tie-breaks that follow it
// (tiePacker), both as unsigned integers in ascending order.
type rankRec struct {
	key uint64
	tie uint32
	idx int32
}

// rankKeyBytes is the number of key bytes in a rankRec.
const rankKeyBytes = 12

// byteAt returns the record's key byte b, most significant first.
func (r rankRec) byteAt(b int) byte {
	if b < 8 {
		return byte(r.key >> (56 - 8*b))
	}
	return byte(r.tie >> (88 - 8*b))
}

// rankKey maps a divergence to its record key: |d|, NaN as -Inf, through
// the order-preserving map of float64 bits to uint64, then complemented,
// so ascending keys rank |d| descending and NaN last.
func rankKey(d float64) uint64 {
	if math.IsNaN(d) {
		d = math.Inf(-1)
	} else {
		d = math.Abs(d)
	}
	u := math.Float64bits(d)
	if u>>63 != 0 {
		u = ^u
	} else {
		u |= 1 << 63
	}
	return ^u
}

// rankSpan is the range of the fields a tie prefix packs, over some
// itemsets: their largest length and item index, and their counts'
// range.
type rankSpan struct {
	maxLen, maxItem    int
	minCount, maxCount int
}

// newRankSpan returns the span of no itemsets.
func newRankSpan() rankSpan {
	return rankSpan{minCount: math.MaxInt, maxCount: math.MinInt}
}

func (s *rankSpan) add(m *MinedItemset) {
	s.maxLen = max(s.maxLen, len(m.Items))
	for _, it := range m.Items {
		s.maxItem = max(s.maxItem, it)
	}
	s.minCount = min(s.minCount, m.Count)
	s.maxCount = max(s.maxCount, m.Count)
}

func (s *rankSpan) merge(t rankSpan) {
	s.maxLen = max(s.maxLen, t.maxLen)
	s.maxItem = max(s.maxItem, t.maxItem)
	s.minCount = min(s.minCount, t.minCount)
	s.maxCount = max(s.maxCount, t.maxCount)
}

// tiePacker packs an itemset's tie-breaks into a record's 32-bit tie
// prefix, most significant first: its length, then maxCount - Count,
// then the varint-order ranks (varintRank) of its leading items. Each
// field is as wide as the span's largest value needs (at most 32 bits,
// keeping the high ones), and the packing is cut after 32 bits. A cut
// keeps the prefix monotone in Rank's tie order but not strict: two
// itemsets may share a prefix, and then the comparator decides, or the
// records are packed again from a later item (next).
type tiePacker struct {
	maxCount, maxItem int
	// Each field's value is shifted right by its cut, then left by its
	// shift, into a 64-bit word whose high 32 bits are the prefix. head
	// is the bits the length and count take, itemBits an item's.
	lenCut, lenShift     int
	countCut, countShift int
	head, itemBits       int
}

func newTiePacker(s rankSpan) tiePacker {
	if s.minCount > s.maxCount { // no itemsets
		s.minCount, s.maxCount = 0, 0
	}
	lenBits := bits.Len(uint(s.maxLen))
	lw := min(lenBits, 32)
	countBits := bits.Len64(uint64(s.maxCount) - uint64(s.minCount))
	cw := min(countBits, 32)
	p := tiePacker{
		maxCount: s.maxCount, maxItem: s.maxItem,
		lenCut: lenBits - lw, lenShift: 64 - lw,
		countCut: countBits - cw, countShift: 64 - lw - cw,
		head: lw + cw,
	}
	if ib := bits.Len(uint(s.maxItem)); ib <= 32 {
		p.itemBits = ib
	}
	return p
}

// withHead is the item a tie prefix is packed from when it starts with
// the length and count, then packs the items from the first.
const withHead = -1

// pack returns m's tie prefix packed from item from: its items from that
// one on, or, from withHead, its length and count and then its items.
func (p *tiePacker) pack(m *MinedItemset, from int) uint32 {
	var w uint64
	used := 0
	if from == withHead {
		w = uint64(len(m.Items))>>p.lenCut<<p.lenShift |
			(uint64(p.maxCount)-uint64(m.Count))>>p.countCut<<p.countShift
		used, from = p.head, 0
	}
	if ib := p.itemBits; ib > 0 {
		// Items whose field starts within the prefix, the last maybe cut.
		for j, shift := from, 64-used-ib; j < len(m.Items) && shift+ib > 32; j, shift = j+1, shift-ib {
			w |= uint64(varintRank(m.Items[j], p.maxItem)) << shift
		}
	}
	return uint32(w >> 32)
}

// next returns the first item that records packed from item from and
// sharing their prefix may differ in, or -1 when sharing it does not
// imply sharing length and count. Packing such records again from that
// item orders them by the tie-breaks their prefix left open.
func (p *tiePacker) next(from int) int {
	bits := 32
	if from == withHead {
		if p.lenCut != 0 || p.countCut != 0 || p.head > 32 {
			return -1
		}
		bits, from = 32-p.head, 0
	}
	if p.itemBits == 0 {
		return -1
	}
	return from + bits/p.itemBits
}

// varintRank returns item index v's position among the indices [0,
// maxItem] in the byte order of their varint key encoding (varintLess),
// so comparing ranks compares encodings. A one-byte encoding (v < 128)
// is its own rank. A longer one comes after those 128, after every index
// whose low 7 bits (first byte) are below v's, and then in the order of
// v>>7 among the indices above 0 that share v's low bits.
func varintRank(v, maxItem int) int {
	rank := 0
	for v >= 0x80 {
		low, q, r := v&0x7f, maxItem>>7, maxItem&0x7f
		// low*q - max(0, low-r-1) indices have a first byte below v's;
		// the -1 drops v>>7 = 0, which v's low bits alone encode.
		rank += 0x80 + low*q - max(0, low-r-1) - 1
		v, maxItem = v>>7, (maxItem-low)>>7
	}
	return rank + v
}

// radixSmall is the largest bucket radixSort hands to the comparator
// rather than split by its next byte.
const radixSmall = 48

// radixSort sorts recs by compare, an order that agrees with the records'
// key bytes, from byte b on (the bytes before b are equal across recs,
// whose ties are packed from item from): an in-place MSD radix sort
// (American flag) that splits recs into 256 buckets by byte b and sorts
// each bucket from byte b+1, skipping the bytes a bucket's records all
// share. Records that share all 12 bytes are sorted again from byte 8
// with their ties packed from the next item, then given back the tie
// they shared, so the chunks merge on the ties of the first packing.
// compare sorts a bucket of at most radixSmall records that differ in
// some byte, and records with no item left to pack.
func (rk *ranker) radixSort(recs []rankRec, b, from int, p *tiePacker) {
	for len(recs) > 1 {
		if b == rankKeyBytes {
			next := p.next(from)
			if next < 0 || next >= len(rk.items[recs[0].idx].Items) {
				break
			}
			tie := recs[0].tie
			for i := range recs {
				recs[i].tie = p.pack(&rk.items[recs[i].idx], next)
			}
			rk.radixSort(recs, 8, next, p)
			for i := range recs {
				recs[i].tie = tie
			}
			return
		}
		if len(recs) <= radixSmall {
			if b = firstDifferingByte(recs); b == rankKeyBytes {
				continue
			}
			break
		}
		// end counts each byte's records, then marks where its bucket ends;
		// next is where the bucket's next record goes.
		var next, end [256]int32
		for _, r := range recs {
			end[r.byteAt(b)]++
		}
		if int(end[recs[0].byteAt(b)]) == len(recs) {
			b = firstDifferingByte(recs)
			continue
		}
		sum := int32(0)
		for d, c := range end {
			next[d] = sum
			sum += c
			end[d] = sum
		}
		// Each record taken from the head of bucket d is swapped into the
		// head of its own bucket until one of bucket d comes back.
		for d := range 256 {
			for next[d] < end[d] {
				r := recs[next[d]]
				for x := r.byteAt(b); x != byte(d); x = r.byteAt(b) {
					recs[next[x]], r = r, recs[next[x]]
					next[x]++
				}
				recs[next[d]] = r
				next[d]++
			}
		}
		lo := int32(0)
		for _, hi := range end {
			if hi-lo > 1 {
				rk.radixSort(recs[lo:hi], b+1, from, p)
			}
			lo = hi
		}
		return
	}
	slices.SortFunc(recs, rk.compare)
}

// firstDifferingByte returns the first key byte on which some of recs
// differ, or rankKeyBytes when they share all of them.
func firstDifferingByte(recs []rankRec) int {
	var key uint64
	var tie uint32
	for _, r := range recs[1:] {
		key |= r.key ^ recs[0].key
		tie |= r.tie ^ recs[0].tie
	}
	switch {
	case key != 0:
		return bits.LeadingZeros64(key) / 8
	case tie != 0:
		return 8 + bits.LeadingZeros32(tie)/8
	}
	return rankKeyBytes
}

// merge writes part p of the order: the indices of the records the
// sorted chunks, merged in compare order, hold at chunk p's positions.
// Each part starts where its chunk would in recs, and is merged from the
// chunks' split at its start and at its end (split), so the merge runs
// on all the workers the sort did, for any chunk count, and needs no
// second record buffer.
func (rk *ranker) merge(p int) {
	lo, hi := rk.chunk(p)
	size := 1
	for size < rk.chunks {
		size *= 2
	}
	var small [32]int // the scratch of up to 8 chunks
	buf := small[:]
	if need := 2*rk.chunks + 2*size; need > len(small) {
		buf = make([]int, need)
	}
	pos, end, tree := buf[:rk.chunks], buf[rk.chunks:2*rk.chunks], buf[2*rk.chunks:]
	rk.split(lo, pos)
	rk.split(hi, end)
	// A tournament tree over the chunks: tree[1] holds the chunk whose
	// next record comes first, and taking a record replays only its
	// leaf's path, log2(chunks) comparisons. A chunk past the last or
	// exhausted loses.
	win := func(x, y int) int {
		switch {
		case y >= rk.chunks || pos[y] == end[y]:
			return x
		case x >= rk.chunks || pos[x] == end[x]:
			return y
		case rk.compare(rk.recs[pos[y]], rk.recs[pos[x]]) < 0:
			return y
		}
		return x
	}
	for i := range size {
		tree[size+i] = i
	}
	for v := size - 1; v >= 1; v-- {
		tree[v] = win(tree[2*v], tree[2*v+1])
	}
	for i := lo; i < hi; i++ {
		w := tree[1]
		rk.order[i] = rk.recs[pos[w]].idx
		pos[w]++
		for v := (size + w) / 2; v >= 1; v /= 2 {
			tree[v] = win(tree[2*v], tree[2*v+1])
		}
	}
}

// split sets cut[c] to the position in recs of the first record of
// chunk c not among the r first of the merged order: the merge path's
// split, for any number of chunks. The records are distinct under
// compare, so a record's merged position is the number of records before
// it in every chunk, which grows along its own chunk; each chunk's cut is
// a binary search on it.
func (rk *ranker) split(r int, cut []int) {
	for c := range cut {
		lo, hi := rk.chunk(c)
		cut[c] = lo + sort.Search(hi-lo, func(j int) bool {
			x, pos := rk.recs[lo+j], j
			for h := range cut {
				if h != c {
					hlo, hhi := rk.chunk(h)
					pos += sort.Search(hhi-hlo, func(m int) bool { return rk.compare(rk.recs[hlo+m], x) > 0 })
				}
			}
			return pos >= r
		})
	}
}

// keyCompare compares key(a) with key(b), as cmp.Compare does, without
// materializing either string. Single-value varint encodings are
// self-delimiting (every byte but the last has the high bit set), so two
// distinct values' encodings always differ within their common prefix —
// concatenated-stream byte order therefore reduces to comparing the first
// differing item's encoding, with the shorter slice first on a
// pure-prefix tie. It is 0 only for equal slices.
func keyCompare(a, b []int) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			if varintLess(a[i], b[i]) {
				return -1
			}
			return 1
		}
	}
	return cmp.Compare(len(a), len(b))
}

// varintLess compares two values by the byte order of their key encoding
// (low 7 bits first, high bit marking continuation).
func varintLess(x, y int) bool {
	for {
		bx, by := x&0x7f, y&0x7f
		x >>= 7
		y >>= 7
		if x > 0 {
			bx |= 0x80
		}
		if y > 0 {
			by |= 0x80
		}
		if bx != by {
			return bx < by
		}
		if x == 0 && y == 0 {
			return false
		}
	}
}
