package fpm

import (
	"math/bits"
	"slices"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/outcome"
	"repro/internal/stats"
)

// fpNode is one node of an arena-backed FP-tree, less its item and parent
// (its fpLink). Nodes live in the tree's flat slab and link by index: next
// chains nodes of the same item for the header table, and the tree's
// child index finds a (parent, item) child in O(1), so a whole tree
// is a handful of slice allocations instead of one map-bearing heap object
// per node. Beyond the usual support count, each node carries the outcome
// moments of the transactions (rows) flowing through it, which is what
// lets divergence fall out of the mining recursion with no extra dataset
// pass. Under a multi-outcome bundle the node's extra moments live in the
// tree's parallel mx slab.
type fpNode struct {
	next  int32 // header chain of nodes with the same item
	count int
	m     stats.Moments
}

// fpLink is a node's item and parent, held in the tree's links slab (node
// n's at links[n]) apart from the 40-byte fpNode: the growth phase's
// ancestor walk and the child index's key check read only these, so they
// touch 8 bytes per node.
type fpLink struct {
	item   int32 // universe item id; -1 for the root
	parent int32
}

// fpTree is an arena FP-tree plus its header table. nodes and links are
// parallel slabs, one entry per node. headers/tails are indexed by
// position in order; pos maps a universe item id to its order position + 1
// (0 = absent), giving O(1) item→header lookup without a map. mx is the
// flat extra-moments slab, mxStride entries per node (empty on
// single-outcome runs). The node, link and mx arenas grow together: the
// node arena by slices.Grow, the other two to its capacity exactly
// (growArenas), so cap(links) == cap(nodes) and cap(mx) ==
// mxStride*cap(nodes) hold for every built tree.
//
// index is an open-addressing hash table (linear probing, a power-of-two
// length kept at most half full) from (parent, item) to node+1, 0 marking
// an empty slot; the key is read back from the node's link. It holds every
// non-root node, so lookup costs one short probe run however many children
// the parent has. Conditional trees are recycled through growScratch:
// putTree clears pos via the order list — O(|order|), not O(universe) —
// and reset truncates index, which regrows by doubling with the new tree.
type fpTree struct {
	nodes    []fpNode
	links    []fpLink
	mx       []stats.Moments
	mxStride int
	order    []int // the tree's items, most to least frequent
	headers  []int32
	tails    []int32
	pos      []int32
	index    []int32 // child index: (parent, item) → node+1
	shift    uint    // 64 − log2(len(index)): a hash's top bits pick the slot
}

// newFPTree builds an empty tree over order.
func newFPTree(order []int, numItems, mxStride int) *fpTree {
	t := &fpTree{pos: make([]int32, numItems)}
	t.reset(order, mxStride)
	return t
}

// reset empties t to a lone root over order, keeping the capacity of its
// arenas. order is copied into tree-owned storage (the growth recursion
// reuses the caller's buffer); pos must hold no other order's
// registrations (putTree clears them).
func (t *fpTree) reset(order []int, mxStride int) {
	t.nodes, t.links, t.mx = t.nodes[:0], t.links[:0], t.mx[:0]
	t.mxStride = mxStride
	t.growArenas(1)
	t.nodes = append(t.nodes, fpNode{next: -1})
	t.links = append(t.links, fpLink{item: -1, parent: -1})
	t.mx = t.mx[:mxStride]
	clear(t.mx)
	t.index = t.index[:0]
	t.order = append(t.order[:0], order...)
	t.headers = slices.Grow(t.headers[:0], len(order))[:len(order)]
	t.tails = slices.Grow(t.tails[:0], len(order))[:len(order)]
	for p, it := range order {
		t.headers[p], t.tails[p] = -1, -1
		t.pos[it] = int32(p) + 1
	}
}

// fpIndexMin is the child index's smallest length.
const fpIndexMin = 16

// slot returns the index slot where the probe for (parent, it) starts:
// the top bits of a Fibonacci hash of the pair.
func (t *fpTree) slot(parent, it int32) int {
	k := uint64(uint32(parent))<<32 | uint64(uint32(it))
	return int((k * 0x9E3779B97F4A7C15) >> t.shift)
}

// growIndex doubles the child index (to fpIndexMin when empty), reusing
// its capacity, and re-enters every non-root node in creation order.
func (t *fpTree) growIndex() {
	n := max(2*len(t.index), fpIndexMin)
	if cap(t.index) < n {
		t.index = make([]int32, 0, n)
	}
	t.index = t.index[:n]
	clear(t.index)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for c := 1; c < len(t.links); c++ {
		h := t.slot(t.links[c].parent, t.links[c].item)
		for t.index[h] != 0 {
			h = (h + 1) & mask
		}
		t.index[h] = int32(c) + 1
	}
}

// child returns node parent's child for item it, creating it (and linking
// it onto the header chain in creation order, which the growth recursion
// relies on for determinism) if absent.
func (t *fpTree) child(parent, it int32) int32 {
	if 2*len(t.nodes) > len(t.index) {
		t.growIndex()
	}
	mask := len(t.index) - 1
	h := t.slot(parent, it)
	for e := t.index[h]; e != 0; e = t.index[h] {
		if l := t.links[e-1]; l.parent == parent && l.item == it {
			return e - 1
		}
		h = (h + 1) & mask
	}
	c := int32(len(t.nodes))
	t.index[h] = c + 1
	if len(t.nodes) == cap(t.nodes) {
		t.growArenas(len(t.nodes))
	}
	t.nodes = append(t.nodes, fpNode{next: -1})
	t.links = append(t.links, fpLink{item: it, parent: parent})
	if k := t.mxStride; k > 0 {
		n := len(t.mx)
		t.mx = t.mx[:n+k]
		clear(t.mx[n:])
	}
	p := t.pos[it] - 1
	if t.headers[p] < 0 {
		t.headers[p] = c
	} else {
		t.nodes[t.tails[p]].next = c
	}
	t.tails[p] = c
	return c
}

// growArenas makes room for at least n more nodes: the node arena grows
// by slices.Grow, whose capacity is rounded to the allocator's size
// class, and the link and mx arenas are then sized to that capacity
// exactly, so no arena holds slots the others cannot match.
func (t *fpTree) growArenas(n int) {
	t.nodes = slices.Grow(t.nodes, n)
	c := cap(t.nodes)
	t.links = withCap(t.links, c)
	t.mx = withCap(t.mx, c*t.mxStride)
}

// withCap returns s with capacity exactly c (at least len(s)): s itself
// when it has it, else a copy.
func withCap[S ~[]E, E any](s S, c int) S {
	if cap(s) == c {
		return s
	}
	g := make(S, len(s), c)
	copy(g, s)
	return g
}

// insert adds a transaction (items already filtered to the tree's universe
// and sorted by rank) with the given weight and moments. mx, when
// non-empty, carries the moments of the bundle's extra outcomes; its values
// are added into the node slab (the caller may reuse the slice).
func (t *fpTree) insert(items []int32, count int, m stats.Moments, mx []stats.Moments) {
	cur := int32(0)
	for _, it := range items {
		c := t.child(cur, it)
		nd := &t.nodes[c]
		nd.count += count
		nd.m.AddN(m)
		if t.mxStride > 0 {
			base := int(c) * t.mxStride
			for k := range mx {
				t.mx[base+k].AddN(mx[k])
			}
		}
		cur = c
	}
}

// nodeMx returns node n's extra-moments view (nil stride-0).
func (t *fpTree) nodeMx(n int32) []stats.Moments {
	if t.mxStride == 0 {
		return nil
	}
	return t.mx[int(n)*t.mxStride : (int(n)+1)*t.mxStride]
}

// fpBlockWords is the width, in bitmap words, of the row blocks
// buildRootTree assembles transactions for: 512 rows.
const fpBlockWords = 8

// buildRootTree builds the root FP-tree over order, one block of
// fpBlockWords words at a time. A block's transactions are assembled in a
// block-rows × |order| buffer — each row's segment filled by one
// ForEachRange pass per item, in order, so items land in rank order —
// then inserted in ascending row order, exactly the order a row-at-a-time
// build inserts them. Scratch is one block's buffer however many rows the
// universe holds. On cancellation it returns the tree built so far.
func buildRootTree(u *Universe, bun *outcome.Bundle, order []int, cancel *canceller) *fpTree {
	nOut := bun.Len()
	t := newFPTree(order, len(u.Rows), nOut-1)
	numWords := (u.NumRows + 63) / 64
	width := len(order)
	const blockRows = fpBlockWords * 64
	txn := make([]int32, blockRows*width)
	var n [blockRows]int32 // items per row of the block
	var it32 int32
	var base int // the block's first row
	fill := func(r int) {
		i := r - base
		txn[i*width+int(n[i])] = it32
		n[i]++
	}
	var mx []stats.Moments
	if nOut > 1 {
		mx = make([]stats.Moments, nOut-1) // reused per row; insert adds values
	}
	prim := bun.Primary()
	for lo := 0; lo < numWords; lo += fpBlockWords {
		if cancel.cancelled() {
			return t
		}
		hi := min(lo+fpBlockWords, numWords)
		base = lo * 64
		for _, it := range order {
			it32 = int32(it)
			u.Rows[it].ForEachRange(lo, hi, fill)
		}
		for i := range min(blockRows, u.NumRows-base) {
			cnt := n[i]
			if cnt == 0 {
				continue
			}
			n[i] = 0
			r := base + i
			var m stats.Moments
			if prim.Valid.Get(r) {
				m.Add(prim.Values[r])
			}
			for k := 1; k < nOut; k++ {
				mx[k-1] = stats.Moments{}
				if o := bun.At(k); o.Valid.Get(r) {
					mx[k-1].Add(o.Values[r])
				}
			}
			t.insert(txn[i*width:i*width+int(cnt)], 1, m, mx)
		}
	}
	return t
}

// keptTree is a universe's root FP-tree, kept so re-queries need not
// rebuild it. The tree depends only on the universe, the outcome and the
// item order, and the order at a higher support is a prefix of the order
// at a lower one (items ranked by count desc, item asc). Root paths are rank-ascending, so the nodes of the first K items
// form an ancestor-closed top of the tree, and that top is node for node
// the tree a build over order[:K] makes: the same rows in the same order,
// the same header-chain order, the same per-node summation order. A
// top-level branch of item idx < K walks only idx's header chain and its
// ancestors, so mining the view over the first K items is the same
// recursion, counters included.
//
// tree is a copy clipped to its length, without the child index (the
// recursion never reads it), and is never written once published, so
// concurrent mines share it; it is single-outcome, so it has no extra
// moments.
type keptTree struct {
	tree *fpTree
}

// serves reports whether k can stand in for a build over order: order is
// a prefix of k's.
func (k *keptTree) serves(order []int) bool {
	return k != nil && len(order) <= len(k.tree.order) &&
		slices.Equal(order, k.tree.order[:len(order)])
}

// view returns k's tree cut to its first n items.
func (k *keptTree) view(n int) *fpTree {
	t := *k.tree
	t.order, t.headers, t.tails = t.order[:n], t.headers[:n], t.tails[:n]
	return &t
}

// keepTree publishes a clipped copy of root, a built root tree, unless u
// was released or already keeps a tree serving root's order.
func (u *Universe) keepTree(root *fpTree) {
	if u.released.Load() || u.kept.Load().serves(root.order) {
		return
	}
	u.kept.Store(&keptTree{
		tree: &fpTree{
			nodes:   slices.Clone(root.nodes),
			links:   slices.Clone(root.links),
			order:   slices.Clone(root.order),
			headers: slices.Clone(root.headers),
			tails:   slices.Clone(root.tails),
		},
	})
	if u.released.Load() { // a ReleaseTree raced the store: it wins
		u.kept.Store(nil)
	}
}

// growScratch is the per-goroutine reusable state of the growth phase:
// the conditional support counters (item-indexed, reset via the parent
// tree's order after each use), the suffix stack, the conditional
// pattern-base and conditional-order buffers, the extra-outcome moments
// of the candidate under test, the slabs emitted Items and Multi slices
// are carved from (at full capacity, so an append by a consumer cannot
// clobber a neighbour), and a free list of released conditional trees.
// One scratch serves one branch recursion at a time; the sync.Pool in
// mineFPGrowth hands them to workers and its reuse is counted through the
// run's engine.Pool.
type growScratch struct {
	cnt     []int           // per universe item: conditional support count
	suffix  []int           // current itemset suffix (append/truncate stack)
	base    []int32         // per occurrence: node, path length, filtered ancestors
	condBuf []int           // conditional item order under construction
	mx      []stats.Moments // the candidate's extra-outcome moments
	items   []int           // current Items slab
	multi   []stats.Moments // current Multi slab
	trees   []*fpTree
}

// resetCnt zeroes the counters touched by a pass over tree order (a
// superset of the items actually incremented).
func (sc *growScratch) resetCnt(order []int) {
	for _, it := range order {
		sc.cnt[it] = 0
	}
}

// getTree returns an empty conditional tree over the given order,
// recycling a released tree's arenas when possible.
func (sc *growScratch) getTree(order []int, numItems, mxStride int, pool *engine.Pool) *fpTree {
	n := len(sc.trees)
	if n == 0 {
		pool.NoteMiss()
		return newFPTree(order, numItems, mxStride)
	}
	pool.NoteHit()
	t := sc.trees[n-1]
	sc.trees = sc.trees[:n-1]
	t.reset(order, mxStride)
	return t
}

// putTree releases a conditional tree back to the free list, clearing its
// pos registrations (O(|order|)) so the arena can serve any item order.
func (sc *growScratch) putTree(t *fpTree) {
	for _, it := range t.order {
		t.pos[it] = 0
	}
	sc.trees = append(sc.trees, t)
}

// mineFPGrowth mines all frequent generalized itemsets via recursive
// conditional FP-trees, in the style of FP-tax: the conditional pattern
// base of an item excludes items of the same attribute (its hierarchy
// ancestors/descendants), which enforces the one-item-per-attribute rule of
// generalized itemsets.
//
// The root tree is built once, serially, over all rows; the top-level
// branches then mine in parallel. A universe mined again over its own
// outcome keeps its root tree and mines later requests from a view of it
// (keptTree), with the same results, counters and spans as a build.
//
// A deterministic budget (MaxCandidates or MaxItemsets) serializes the
// growth phase: the recursion then visits branches in the fixed serial
// order, so the truncation point — and hence the ranked output — is
// byte-identical across Workers. A capped run is bounded by
// construction, so the lost parallelism is bounded too. The soft
// dimensions (deadline, heap) stay parallel and stop cooperatively.
//
// Memory: trees are index-linked arenas, conditional trees and all
// per-branch working arrays are recycled through growScratch (reuse
// surfaces in the run pool's hit counters), each occurrence's ancestors
// are walked once — pass 1 records the filtered paths in one scratch
// buffer while counting conditional supports, pass 2 replays them — and
// emitted itemsets, Items and Multi slices are carved from slabs that
// start small and double (see fpLocal).
func mineFPGrowth(u *Universe, bun *outcome.Bundle, opt Options, minCount int, pool *engine.Pool, span *obs.Span, cancel *canceller, counts *obs.MiningCounters, budget *budgetTracker, hBatch *obs.Histogram) (*Result, error) {
	res := &Result{}
	nOut := bun.Len()
	numItems := len(u.Items)
	stopped := func() bool { return cancel.cancelled() || budget.softExhausted() != "" }

	// Global frequent items, ranked by support descending (ties by index).
	scan := span.Start(obs.SpanMineScan)
	hBatch.Observe(float64(len(u.Items)))
	if err := faultinject.Hit(faultinject.SiteCandidateBatch); err != nil {
		scan.End()
		return nil, err
	}
	var scanned tally
	nAllowed := budget.allowCandidates(len(u.Items), &scanned)
	type freq struct{ item, count int }
	var fr []freq
	for i := 0; i < nAllowed; i++ {
		scanned.candidates++
		if c := u.Rows[i].Count(); c >= minCount {
			fr = append(fr, freq{i, c})
		} else {
			scanned.prunedSupport++
		}
	}
	scanned.publish(counts)
	sort.Slice(fr, func(a, b int) bool {
		if fr[a].count != fr[b].count {
			return fr[a].count > fr[b].count
		}
		return fr[a].item < fr[b].item
	})
	order := make([]int, len(fr))
	for i, f := range fr {
		order[i] = f.item
	}
	scan.End()

	// The root tree: a view of the universe's kept tree when it serves
	// this order (see keptTree), else a build. Only a bundle of the
	// universe's own outcome over an uncut scan may use or keep one, and
	// a universe keeps one only from its second build on.
	build := span.Start(obs.SpanMineBuild)
	reusable := nOut == 1 && bun.Primary() == u.out && nAllowed == numItems
	var tree *fpTree
	if k := u.kept.Load(); reusable && k.serves(order) {
		tree = k.view(len(order))
	} else {
		tree = buildRootTree(u, bun, order, cancel)
		if reusable && u.builds.Add(1) > 1 && !cancel.cancelled() {
			u.keepTree(tree)
		}
	}
	build.End()
	if cancel.cancelled() {
		return res, nil
	}

	// branch mines the suffix {item}+suffix rooted at one header item of
	// tree t, appending to the local accumulator. Branches of distinct
	// top-level items are independent, which is what the parallel path
	// exploits. All transient state lives in the worker's scratch.
	var local func(acc *fpLocal, sc *growScratch, t *fpTree, idx int)
	local = func(acc *fpLocal, sc *growScratch, t *fpTree, idx int) {
		// Each (conditional tree, header item) pair is one candidate; bail
		// out here and the whole recursion unwinds promptly on cancel,
		// soft-budget exhaustion or an injected branch failure.
		if acc.err != nil || stopped() {
			return
		}
		it := t.order[idx]
		head := t.headers[idx]
		if head < 0 {
			return
		}
		total := 0
		var m stats.Moments
		mx := sc.mx
		clear(mx)
		for n := head; n >= 0; n = t.nodes[n].next {
			nd := &t.nodes[n]
			total += nd.count
			m.AddN(nd.m)
			base := int(n) * t.mxStride
			for k := range mx {
				mx[k].AddN(t.mx[base+k])
			}
		}
		if total < minCount {
			return
		}
		// Itemset budget: consumed in the fixed serial order (a
		// deterministic budget forces Workers=1 on the growth phase), so
		// which itemsets make the cut is reproducible.
		if budget.allowItemsets(1, &acc.tally) < 1 {
			return
		}
		depth := len(sc.suffix) + 1
		sorted := carve(&sc.items, depth, fpItemsSlab)
		copy(sorted, sc.suffix)
		sorted[depth-1] = it
		sort.Ints(sorted)
		var multi []stats.Moments
		if len(mx) > 0 {
			multi = carve(&sc.multi, len(mx), fpItemsSlab)
			copy(multi, mx)
		}
		acc.emit(MinedItemset{Items: sorted, Count: total, M: m, Multi: multi})
		acc.frequent++
		// FP-Growth has no global level sweep, so its level is the deepest
		// itemset emitted so far across all branches.
		acc.level = max(acc.level, depth)

		if opt.MaxLen > 0 && depth >= opt.MaxLen {
			return
		}

		// Conditional pattern base, pass 1: walk each occurrence's
		// ancestors once — excluding items of it's attribute (generalized-
		// itemset rule) and, under polarity pruning, items of opposite
		// polarity — accumulating conditional supports in the scratch
		// counters and recording the occurrence's node, path length and
		// filtered path in sc.base (occurrences with an empty path are
		// dropped: pass 2 would skip them).
		attr, pol := u.AttrID[it], u.Polarity[it]
		rec := sc.base[:0]
		for n := head; n >= 0; n = t.nodes[n].next {
			w := t.nodes[n].count
			at := len(rec)
			rec = append(rec, n, 0)
			// Counted locally, so the hottest loop makes no store
			// through acc per pruned ancestor.
			pruned := 0
			for l := t.links[t.links[n].parent]; l.item >= 0; l = t.links[l.parent] {
				pi := l.item
				if u.AttrID[pi] == attr {
					continue
				}
				if opt.PolarityPrune && u.Polarity[pi] != pol {
					pruned++
					continue
				}
				sc.cnt[pi] += w
				rec = append(rec, pi)
			}
			acc.prunedPolarity += pruned
			if k := len(rec) - at - 2; k > 0 {
				rec[at+1] = int32(k)
			} else {
				rec = rec[:at]
			}
		}
		sc.base = rec
		if len(rec) == 0 {
			sc.resetCnt(t.order)
			return
		}
		// Conditional universe: items frequent within the base, keeping
		// the parent tree's rank order. The whole batch must fit the
		// remaining candidate budget; otherwise this expansion stops here.
		if budget.allowCandidates(len(t.order), &acc.tally) < len(t.order) {
			sc.resetCnt(t.order)
			return
		}
		condOrder := sc.condBuf[:0]
		for _, oi := range t.order {
			acc.candidates++
			if sc.cnt[oi] >= minCount {
				condOrder = append(condOrder, oi)
			} else {
				acc.prunedSupport++
			}
		}
		// The batch boundary: one publish per conditional tree.
		acc.tally.publish(counts)
		sc.condBuf = condOrder
		if len(condOrder) == 0 {
			sc.resetCnt(t.order)
			return
		}
		hBatch.Observe(float64(len(condOrder)))
		if err := faultinject.Hit(faultinject.SiteCandidateBatch); err != nil {
			acc.err = err
			sc.resetCnt(t.order)
			return
		}
		// Pass 2: replay the recorded occurrences in chain order — exactly
		// the order the historical pattern-base list was consumed in —
		// inserting each path, cut to the conditional support floor in
		// place and reversed, into the conditional tree. Every root path
		// of every tree is strictly rank-ascending (the root tree inserts
		// rows in rank order, a conditional tree the reversed paths), so
		// pass 1 recorded each path in strictly descending rank and the
		// reversal is the ascending-rank sort insert needs.
		cond := sc.getTree(condOrder, numItems, t.mxStride, pool)
		for off := 0; off < len(rec); {
			n, seg := rec[off], rec[off+2:off+2+int(rec[off+1])]
			off += 2 + len(seg)
			path := seg[:0]
			for _, pi := range seg {
				if sc.cnt[pi] >= minCount {
					path = append(path, pi)
				}
			}
			if len(path) == 0 {
				continue
			}
			slices.Reverse(path)
			cond.insert(path, t.nodes[n].count, t.nodes[n].m, t.nodeMx(n))
		}
		sc.resetCnt(t.order)
		sc.suffix = append(sc.suffix, it)
		for i := len(cond.order) - 1; i >= 0; i-- {
			local(acc, sc, cond, i)
		}
		sc.suffix = sc.suffix[:len(sc.suffix)-1]
		sc.putTree(cond)
	}

	// Top-level branches, least-frequent first, optionally in parallel.
	// Each branch accumulates locally; concatenating in branch order makes
	// the output identical to the serial traversal. Scratches are pooled
	// per worker; their reuse counts into the run pool's hit rate.
	grow := span.Start(obs.SpanMineGrow)
	defer grow.End()
	nBranch := len(tree.order)
	locals := make([]fpLocal, nBranch)
	var scratchPool sync.Pool
	getScratch := func() *growScratch {
		if v := scratchPool.Get(); v != nil {
			pool.NoteHit()
			return v.(*growScratch)
		}
		pool.NoteMiss()
		return &growScratch{cnt: make([]int, numItems), mx: make([]stats.Moments, nOut-1)}
	}
	growWorkers := opt.Workers
	if opt.Budget.deterministic() {
		// Serialize so budget consumption follows the fixed branch order;
		// the budget bounds the total work, so serial stays affordable.
		growWorkers = 1
	}
	if err := engine.ParallelFor(nBranch, growWorkers, opt.Tracer, func(j int) {
		idx := nBranch - 1 - j
		sc := getScratch()
		local(&locals[j], sc, tree, idx)
		locals[j].tally.publish(counts)
		// On a panic the scratch is simply dropped (its counters may be
		// dirty); ParallelFor recovers and the run fails.
		scratchPool.Put(sc)
	}); err != nil {
		return nil, err
	}
	total := len(res.Itemsets)
	for j := range locals {
		if locals[j].err != nil {
			return nil, locals[j].err
		}
		for _, ch := range locals[j].sets {
			total += len(ch)
		}
	}
	// One exact-size allocation for the concatenated result: branch slabs
	// are copied in branch order, reproducing the serial traversal order.
	all := make([]MinedItemset, len(res.Itemsets), total)
	copy(all, res.Itemsets)
	for j := range locals {
		for _, ch := range locals[j].sets {
			all = append(all, ch...)
		}
	}
	res.Itemsets = all
	opt.Tracer.MaxGauge(obs.GaugeMaxDepth, float64(counts.Level.Load()))
	return res, nil
}

// fpLocal accumulates one FP-Growth branch's results. The itemsets are
// appended to slabs that start small and double up to a cap, so a branch
// that emits one itemset costs a few dozen bytes and a prolific one no
// append-growth churn: a full slab is closed, never reallocated. The run's
// result is assembled by one exact-size concatenation.
type fpLocal struct {
	tally                  // the branch's unpublished mining events
	sets  [][]MinedItemset // emission slabs, in order; last is open
	err   error            // injected failure surfaced from this branch
}

// Slab sizes: each kind's first slab holds fpSlabMin elements, and each
// new one doubles the last up to the cap — fpSetSlab itemsets per branch,
// or fpItemsSlab Items or Multi elements per worker scratch.
const (
	fpSlabMin   = 8
	fpSetSlab   = 1024
	fpItemsSlab = 4096
)

// emit appends one mined itemset to the branch's emission slabs.
func (acc *fpLocal) emit(m MinedItemset) {
	n := len(acc.sets)
	if n == 0 || len(acc.sets[n-1]) == cap(acc.sets[n-1]) {
		last := 0
		if n > 0 {
			last = cap(acc.sets[n-1])
		}
		acc.sets = append(acc.sets, make([]MinedItemset, 0, slabSize(last, fpSetSlab)))
		n++
	}
	acc.sets[n-1] = append(acc.sets[n-1], m)
}

// slabSize is the capacity of the slab that follows one of capacity
// last: twice it, between fpSlabMin and limit.
func slabSize(last, limit int) int { return max(min(2*last, limit), fpSlabMin) }

// carve returns a fresh n-element slice backed by *slab, opening a new
// slab (slabSize, and at least n) when the current one is full.
func carve[T any](slab *[]T, n, limit int) []T {
	if len(*slab)+n > cap(*slab) {
		*slab = make([]T, 0, max(slabSize(cap(*slab), limit), n))
	}
	off := len(*slab)
	*slab = (*slab)[:off+n]
	return (*slab)[off : off+n : off+n]
}
