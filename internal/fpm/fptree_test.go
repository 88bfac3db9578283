package fpm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/outcome"
	"repro/internal/stats"
)

// The reference below is the FP-tree construction the miner must
// reproduce node for node: a child lookup that walks the parent's sibling
// list, one-at-a-time node appends, per-row transactions read straight off
// the item bitmaps, and a shard fold that sorts each node's children by
// rank. The production tree is free to find children and assemble rows
// however it likes, but the arena it leaves — node creation order, header
// chains, per-node counts and moment sums — must be this one.

// refTree returns an empty reference tree over order.
func refTree(order []int, numItems, mxStride int) *fpTree {
	t := &fpTree{
		nodes:    []fpNode{{firstChild: -1, nextSib: -1, next: -1}},
		links:    []fpLink{{item: -1, parent: -1}},
		mx:       make([]stats.Moments, mxStride),
		mxStride: mxStride,
		order:    order,
		headers:  make([]int32, len(order)),
		tails:    make([]int32, len(order)),
		pos:      make([]int32, numItems),
	}
	for p, it := range order {
		t.headers[p], t.tails[p] = -1, -1
		t.pos[it] = int32(p) + 1
	}
	return t
}

// refChild finds parent's child for item it by a linear walk of the
// sibling list, creating it (and chaining it onto its header) if absent.
func refChild(t *fpTree, parent, it int32) int32 {
	for c := t.nodes[parent].firstChild; c >= 0; c = t.nodes[c].nextSib {
		if t.links[c].item == it {
			return c
		}
	}
	c := int32(len(t.nodes))
	t.nodes = append(t.nodes, fpNode{firstChild: -1, nextSib: t.nodes[parent].firstChild, next: -1})
	t.links = append(t.links, fpLink{item: it, parent: parent})
	t.nodes[parent].firstChild = c
	for k := 0; k < t.mxStride; k++ {
		t.mx = append(t.mx, stats.Moments{})
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

func refInsert(t *fpTree, items []int32, count int, m stats.Moments, mx []stats.Moments) {
	cur := int32(0)
	for _, it := range items {
		c := refChild(t, cur, it)
		t.nodes[c].count += count
		t.nodes[c].m.AddN(m)
		for k := range mx {
			t.mx[int(c)*t.mxStride+k].AddN(mx[k])
		}
		cur = c
	}
}

// refAbsorb folds src into t, visiting each node's children in rank order.
func refAbsorb(t, src *fpTree, rank []int32) {
	var walk func(dst, s int32)
	walk = func(dst, s int32) {
		var keys []int32
		for c := src.nodes[s].firstChild; c >= 0; c = src.nodes[c].nextSib {
			keys = append(keys, c)
		}
		sort.Slice(keys, func(a, b int) bool {
			return rank[src.links[keys[a]].item] < rank[src.links[keys[b]].item]
		})
		for _, sc := range keys {
			c := refChild(t, dst, src.links[sc].item)
			t.nodes[c].count += src.nodes[sc].count
			t.nodes[c].m.AddN(src.nodes[sc].m)
			for k, v := range src.nodeMx(sc) {
				t.mx[int(c)*t.mxStride+k].AddN(v)
			}
			walk(c, sc)
		}
	}
	walk(0, 0)
}

// refShardTree builds shard s's tree row by row in ascending row order,
// each row's items in order.
func refShardTree(u *Universe, bun *outcome.Bundle, order []int, plan engine.Plan, s int) (*fpTree, int) {
	t := refTree(order, len(u.Rows), bun.Len()-1)
	dense := make([]*bitvec.Vector, len(u.Rows))
	for i, rs := range u.Rows {
		dense[i] = rs.Dense()
	}
	lo, hi := plan.RowRange(s)
	rows := 0
	for r := lo; r < hi; r++ {
		var items []int32
		for _, it := range order {
			if dense[it].Get(r) {
				items = append(items, int32(it))
			}
		}
		if len(items) == 0 {
			continue
		}
		moments := make([]stats.Moments, bun.Len())
		for k := range moments {
			if o := bun.At(k); o.Valid.Get(r) {
				moments[k].Add(o.Values[r])
			}
		}
		refInsert(t, items, 1, moments[0], moments[1:])
		rows++
	}
	return t, rows
}

// sameTree requires got's arena to equal want's field for field: every
// node (sibling and header links, count, moments) and its link (item,
// parent), the extra-moments slab, and the header and tail of every item.
func sameTree(t *testing.T, label string, got, want *fpTree) {
	t.Helper()
	if len(got.nodes) != len(want.nodes) || len(got.links) != len(want.links) {
		t.Fatalf("%s: %d nodes and %d links, want %d and %d",
			label, len(got.nodes), len(got.links), len(want.nodes), len(want.links))
	}
	for i := range want.nodes {
		if got.nodes[i] != want.nodes[i] {
			t.Fatalf("%s: node %d is %+v, want %+v", label, i, got.nodes[i], want.nodes[i])
		}
		if got.links[i] != want.links[i] {
			t.Fatalf("%s: node %d's link is %+v, want %+v", label, i, got.links[i], want.links[i])
		}
	}
	if len(got.mx) != len(want.mx) {
		t.Fatalf("%s: %d extra moments, want %d", label, len(got.mx), len(want.mx))
	}
	for i := range want.mx {
		if got.mx[i] != want.mx[i] {
			t.Fatalf("%s: extra moments %d are %+v, want %+v", label, i, got.mx[i], want.mx[i])
		}
	}
	if !reflect.DeepEqual(got.headers, want.headers) || !reflect.DeepEqual(got.tails, want.tails) {
		t.Fatalf("%s: header table differs:\nheaders %v\n   want %v\ntails   %v\n   want %v",
			label, got.headers, want.headers, got.tails, want.tails)
	}
}

// maxFanOut returns the largest number of children of any node.
func maxFanOut(t *fpTree) int {
	best := 0
	for i := range t.nodes {
		k := 0
		for c := t.nodes[i].firstChild; c >= 0; c = t.nodes[c].nextSib {
			k++
		}
		best = max(best, k)
	}
	return best
}

// shapeFixture is a universe of numItems items over n rows whose
// densities fall from 0.6 to below bitvec.DenseCutoff, so rows share long
// prefixes, the root has a wide fan-out and the sparsest items are
// compressed, plus a bundle of three outcomes: a numeric primary with ⊥
// rows (so moment sums are order-sensitive), a boolean and another
// numeric.
func shapeFixture(t *testing.T, seed int64, n, numItems int) (*Universe, *outcome.Bundle, []int, []int32) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	u := &Universe{NumRows: n, Rows: make([]bitvec.Set, numItems)}
	for i := 0; i < numItems; i++ {
		p := 0.6 * math.Pow(0.8, float64(i))
		v := bitvec.New(n)
		for row := 0; row < n; row++ {
			if r.Float64() < p {
				v.Set(row)
			}
		}
		u.Rows[i] = bitvec.Pack(v)
	}
	num := make([]float64, n)
	num2 := make([]float64, n)
	flag := make([]float64, n)
	for row := range num {
		num[row] = r.NormFloat64()*1e4 + 3e4
		if r.Intn(10) == 0 {
			num[row] = math.NaN()
		}
		num2[row] = r.ExpFloat64() / 7
		flag[row] = float64(r.Intn(2))
	}
	bun, err := outcome.NewBundle(outcome.Numeric("num", num), outcome.Numeric("flag", flag), outcome.Numeric("num2", num2))
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, numItems)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return u.Rows[order[a]].Count() > u.Rows[order[b]].Count() })
	rank := make([]int32, numItems)
	for i, it := range order {
		rank[it] = int32(i)
	}
	return u, bun, order, rank
}

// TestShardTreeMatchesReference builds the root FP-tree of a seeded
// universe shard by shard, folds the shards, and compares every arena with
// the reference construction: bundles of one and three outcomes, one shard
// and three (so absorb runs), dense and compressed item rows, shared
// prefixes and a root with more than 8 children.
func TestShardTreeMatchesReference(t *testing.T) {
	const n, numItems = 3000, 22
	u, bun3, order, rank := shapeFixture(t, 11, n, numItems)
	compressed := 0
	for _, rs := range u.Rows {
		if _, ok := rs.(*bitvec.Compressed); ok {
			compressed++
		}
	}
	if compressed == 0 {
		t.Fatal("fixture has no compressed item; the case is vacuous")
	}
	bun1 := outcome.Single(bun3.Primary())
	for _, bun := range []*outcome.Bundle{bun1, bun3} {
		for _, shards := range []int{1, 3} {
			label := fmt.Sprintf("outcomes=%d shards=%d", bun.Len(), shards)
			plan := engine.NewPlan(n, shards)
			var got, want []*fpTree
			for s := 0; s < plan.NumShards(); s++ {
				g, gRows := buildShardTree(u, bun, order, numItems, plan, s, nil)
				w, wRows := refShardTree(u, bun, order, plan, s)
				if gRows != wRows {
					t.Fatalf("%s shard %d: %d rows inserted, want %d", label, s, gRows, wRows)
				}
				sameTree(t, fmt.Sprintf("%s shard %d", label, s), g, w)
				got, want = append(got, g), append(want, w)
			}
			for s := 1; s < len(got); s++ {
				got[0].absorb(got[s], rank)
				refAbsorb(want[0], want[s], rank)
			}
			sameTree(t, label+" folded", got[0], want[0])
			if k := maxFanOut(want[0]); k <= 8 {
				t.Errorf("%s: widest node has %d children; the case needs more than 8", label, k)
			}
			if len(want[0].nodes) >= n {
				t.Errorf("%s: %d nodes for %d rows; the case needs shared prefixes", label, len(want[0].nodes), n)
			}
		}
	}
}

// TestConditionalTreeRecycledMatchesReference drives the growth phase's
// tree recycling: conditional trees taken with getTree after putTree (so
// their arenas, header tables and child index hold a previous tree's
// state) must build exactly the tree a fresh reference builds, for
// weighted transactions with moments, with and without extra outcomes.
func TestConditionalTreeRecycledMatchesReference(t *testing.T) {
	const numItems = 40
	r := rand.New(rand.NewSource(5))
	orders := [][]int{
		r.Perm(numItems)[:30], // wide: many root children
		r.Perm(numItems)[:12],
		r.Perm(numItems)[:30],
		r.Perm(numItems)[:3],
	}
	for _, stride := range []int{0, 2} {
		sc := &growScratch{cnt: make([]int, numItems)}
		pool := engine.NewPool(engine.NewPlan(64, 1))
		for round, order := range orders {
			label := fmt.Sprintf("stride=%d round=%d", stride, round)
			got := sc.getTree(order, numItems, stride, pool)
			want := refTree(order, numItems, stride)
			for k := 0; k < 400; k++ {
				// A transaction is a random subsequence of order, biased
				// toward its head so paths share prefixes.
				var items []int32
				for p, it := range order {
					if r.Float64() < 0.7/float64(1+p/2) {
						items = append(items, int32(it))
					}
				}
				if len(items) == 0 {
					continue
				}
				w := 1 + r.Intn(4)
				m := stats.Moments{N: w, Sum: r.NormFloat64() * 1e3, SumSq: r.ExpFloat64() * 1e6}
				mx := make([]stats.Moments, stride)
				for j := range mx {
					mx[j] = stats.Moments{N: r.Intn(w + 1), Sum: r.Float64(), SumSq: r.Float64()}
				}
				got.insert(items, w, m, mx)
				refInsert(want, items, w, m, mx)
			}
			sameTree(t, label, got, want)
			if round == 0 && maxFanOut(want) <= 8 {
				t.Errorf("%s: widest node has %d children; the case needs more than 8", label, maxFanOut(want))
			}
			sc.putTree(got)
		}
	}
}

// rankAscending fails unless every node below the root's children holds
// an item ranked strictly above its parent's.
func rankAscending(t *testing.T, label string, tr *fpTree, rank []int32) {
	t.Helper()
	for n := 1; n < len(tr.links); n++ {
		l := tr.links[n]
		if l.parent > 0 && rank[l.item] <= rank[tr.links[l.parent].item] {
			t.Fatalf("%s: node %d (item %d, rank %d) under node %d (item %d, rank %d)", label,
				n, l.item, rank[l.item], l.parent, tr.links[l.parent].item, rank[tr.links[l.parent].item])
		}
	}
}

// TestFPTreePathsRankAscending pins the invariant the growth phase's pass
// 2 relies on to reverse a recorded path instead of sorting it: along
// every root path items rank strictly ascending, so walking up from a
// node meets them in strictly descending rank. It checks root trees of one
// and three shards (so absorb runs) and two levels of conditional trees
// built, as pass 2 builds them, from reversed ancestor walks into trees
// recycled through getTree and putTree.
func TestFPTreePathsRankAscending(t *testing.T) {
	const n, numItems = 3000, 22
	u, bun3, order, rank := shapeFixture(t, 11, n, numItems)
	bun := outcome.Single(bun3.Primary())
	sc := &growScratch{cnt: make([]int, numItems)}
	pool := engine.NewPool(engine.NewPlan(n, 1))
	conds := 0
	var grow func(label string, tr *fpTree, depth int)
	grow = func(label string, tr *fpTree, depth int) {
		rankAscending(t, label, tr, rank)
		if depth == 2 {
			return
		}
		for idx := len(tr.order) - 1; idx >= 0; idx-- {
			// Ancestors rank above tr.order[idx], so they are all in
			// tr.order[:idx].
			cond := sc.getTree(tr.order[:idx], numItems, 0, pool)
			for h := tr.headers[idx]; h >= 0; h = tr.nodes[h].next {
				var path []int32
				for l := tr.links[tr.links[h].parent]; l.item >= 0; l = tr.links[l.parent] {
					path = append(path, l.item)
				}
				slices.Reverse(path)
				cond.insert(path, tr.nodes[h].count, tr.nodes[h].m, nil)
			}
			conds++
			grow(fmt.Sprintf("%s/%d", label, tr.order[idx]), cond, depth+1)
			sc.putTree(cond)
		}
	}
	for _, shards := range []int{1, 3} {
		plan := engine.NewPlan(n, shards)
		root, _ := buildShardTree(u, bun, order, numItems, plan, 0, nil)
		for s := 1; s < plan.NumShards(); s++ {
			st, _ := buildShardTree(u, bun, order, numItems, plan, s, nil)
			root.absorb(st, rank)
		}
		grow(fmt.Sprintf("shards=%d", shards), root, 0)
	}
	if pool.Hits() == 0 {
		t.Fatalf("%d conditional trees, none recycled; the case is vacuous", conds)
	}
}

// arenasShareCap fails unless tr's link and mx arenas have exactly the
// node arena's capacity (mx: mxStride slots per node).
func arenasShareCap(t *testing.T, label string, tr *fpTree) {
	t.Helper()
	if cap(tr.links) != cap(tr.nodes) || cap(tr.mx) != tr.mxStride*cap(tr.nodes) {
		t.Fatalf("%s: %d nodes in %d node slots, %d link slots, %d mx slots (stride %d)",
			label, len(tr.nodes), cap(tr.nodes), cap(tr.links), cap(tr.mx), tr.mxStride)
	}
}

// TestFPTreeArenasShareCapacity pins the arenas' joint growth: root trees
// of several row counts (one and three shards, so absorb grows shard 0's
// tree, with no and two extra outcomes) and conditional trees of several
// sizes recycled through getTree and putTree, strides changing between
// uses, end with cap(links) == cap(nodes) and cap(mx) ==
// mxStride*cap(nodes).
func TestFPTreeArenasShareCapacity(t *testing.T) {
	const numItems = 22
	for _, n := range []int{70, 1000, 6000} {
		u, bun3, order, rank := shapeFixture(t, int64(n), n, numItems)
		for _, bun := range []*outcome.Bundle{outcome.Single(bun3.Primary()), bun3} {
			for _, shards := range []int{1, 3} {
				plan := engine.NewPlan(n, shards)
				root, _ := buildShardTree(u, bun, order, numItems, plan, 0, nil)
				for s := 1; s < plan.NumShards(); s++ {
					st, _ := buildShardTree(u, bun, order, numItems, plan, s, nil)
					arenasShareCap(t, fmt.Sprintf("n=%d outcomes=%d shard %d", n, bun.Len(), s), st)
					root.absorb(st, rank)
				}
				arenasShareCap(t, fmt.Sprintf("n=%d outcomes=%d shards=%d root", n, bun.Len(), shards), root)
			}
		}
	}
	r := rand.New(rand.NewSource(9))
	sc := &growScratch{cnt: make([]int, numItems)}
	pool := engine.NewPool(engine.NewPlan(64, 1))
	for round, tc := range []struct{ txns, stride int }{{3, 0}, {300, 2}, {5000, 2}, {40, 3}, {2000, 0}, {10, 1}} {
		order := r.Perm(numItems)
		cond := sc.getTree(order, numItems, tc.stride, pool)
		arenasShareCap(t, fmt.Sprintf("round %d empty", round), cond)
		mx := make([]stats.Moments, tc.stride)
		for k := 0; k < tc.txns; k++ {
			var items []int32
			for _, it := range order {
				if r.Intn(3) == 0 {
					items = append(items, int32(it))
				}
			}
			cond.insert(items, 1, stats.Moments{N: 1, Sum: 1, SumSq: 1}, mx)
		}
		arenasShareCap(t, fmt.Sprintf("round %d: %d transactions, stride %d", round, tc.txns, tc.stride), cond)
		sc.putTree(cond)
	}
}
