package fpm

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/outcome"
	"repro/internal/stats"
)

// Algorithm selects the mining algorithm.
type Algorithm int

const (
	// FPGrowth mines via a generalized FP-tree (the default; fastest).
	FPGrowth Algorithm = iota
	// Apriori mines level-wise with candidate generation over row bitsets.
	Apriori
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case FPGrowth:
		return "fp-growth"
	case Apriori:
		return "apriori"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm is the inverse of String for the CLI flag and the
// server request field: it accepts any case, "fpgrowth" as well as
// "fp-growth", and "" for the default, FPGrowth.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch strings.ToLower(name) {
	case "", "fpgrowth", "fp-growth":
		return FPGrowth, nil
	case "apriori":
		return Apriori, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", name)
	}
}

// Options configures a mining run.
type Options struct {
	// Ctx, when non-nil, makes the run cancellable: both miners poll the
	// context at candidate granularity and Mine returns an error wrapping
	// ctx.Err() as soon as cancellation is observed. A nil Ctx (or one
	// that can never be cancelled) adds no per-candidate cost.
	Ctx context.Context
	// MinSupport is the exploration support threshold s ∈ (0, 1].
	MinSupport float64
	// MaxLen bounds itemset length; 0 means unlimited.
	MaxLen int
	// PolarityPrune enables the paper's polarity-pruning heuristic: itemsets
	// of length ≥ 2 only combine items whose individual divergence has the
	// same sign. Length-1 itemsets are always kept.
	PolarityPrune bool
	// Algorithm selects Apriori or FPGrowth.
	Algorithm Algorithm
	// Workers is the number of mining goroutines: 0 uses every core
	// (runtime.GOMAXPROCS(0), resolved by engine.Workers) and 1 runs
	// serially; values above the task count or GOMAXPROCS are clamped.
	// Results are identical and deterministically ordered regardless of
	// Workers.
	Workers int
	// Shards fixes the number of row shards of the engine data plane; 0
	// selects the default layout (one shard per engine.DefaultShardRows
	// rows, so small datasets stay single-shard). Both miners accumulate
	// supports and outcome moments shard by shard and merge in ascending
	// shard order; for boolean outcomes (all built-in rate statistics) the
	// ranked output is byte-identical across shard counts. Negative values
	// are rejected.
	Shards int
	// Tracer, when non-nil, receives mining spans, the fpm.* counters and
	// the worker-utilization gauges.
	Tracer *obs.Tracer
	// TraceParent optionally nests the mining span under an existing span
	// (e.g. core's explore span). When nil, spans are emitted top-level on
	// Tracer.
	TraceParent *obs.Span
	// Progress, when non-nil, reads the run's counter set live: the
	// current (or, for FP-Growth, deepest) itemset length, candidates,
	// pruned candidates and frequent itemsets, advancing per batch and
	// ending equal to Result.Stats. The caller owns its lifecycle (and
	// calls Finish).
	Progress *obs.Progress
	// Budget bounds the run's resource consumption; on exhaustion the
	// miner stops expanding the lattice and returns a Result flagged
	// Truncated instead of failing. The zero value is unlimited. See the
	// Budget type for the per-dimension determinism guarantees; note that
	// a deterministic budget serializes FP-Growth's growth phase.
	Budget Budget
}

// MiningStats reports work done by a mining run. All fields are
// deterministic for a given universe and options, independent of Workers.
type MiningStats struct {
	// Candidates is the number of itemsets whose support was evaluated,
	// counted as each batch is admitted, so an Apriori level a soft stop
	// cuts short counts its whole batch. Budget.MaxCandidates caps it.
	Candidates int `json:"candidates"`
	// Frequent is the number of frequent itemsets found.
	Frequent int `json:"frequent"`
	// PrunedSupport counts candidates discarded as infrequent, including
	// Apriori's subset-infrequency prunes.
	PrunedSupport int `json:"pruned_support"`
	// PrunedPolarity counts combinations skipped by polarity pruning
	// (§V-C): Apriori joins rejected for mixed polarity, and FP-Growth
	// conditional-pattern-base entries excluded for opposite polarity.
	// Always 0 when Options.PolarityPrune is off.
	PrunedPolarity int `json:"pruned_polarity"`
}

// Result is the output of Mine: all frequent itemsets (length ≥ 1) with
// their support counts and outcome moments.
type Result struct {
	Itemsets []MinedItemset
	Stats    MiningStats
	NumRows  int
	// Truncated marks a run cut short by an exhausted Options.Budget: the
	// itemsets present are correctly scored, but the lattice was not fully
	// explored. Exhausted names the dimension that ran out (one of the
	// Exhausted* constants). Both are zero on unbudgeted runs.
	Truncated bool
	Exhausted string
}

// Mine runs frequent generalized itemset mining with integrated divergence
// accumulation over the universe. It is MineMulti with a bundle of one:
// single-statistic mining is literally the one-outcome special case of the
// multi-statistic pass, so the two paths cannot diverge.
func Mine(u *Universe, o *outcome.Outcome, opt Options) (*Result, error) {
	return MineMulti(u, outcome.Single(o), opt)
}

// MineMulti mines the itemset lattice once while accumulating outcome
// moments for every statistic in the bundle. The candidate enumeration
// (and, under PolarityPrune, the polarity signs) is driven solely by the
// bundle's primary outcome; each MinedItemset then carries the primary's
// moments in M and the remaining outcomes' moments in Multi. Compared to
// re-mining per statistic this costs one lattice walk instead of N.
func MineMulti(u *Universe, b *outcome.Bundle, opt Options) (*Result, error) {
	if opt.MinSupport <= 0 || opt.MinSupport > 1 {
		return nil, fmt.Errorf("fpm: MinSupport %v out of (0, 1]", opt.MinSupport)
	}
	if opt.Shards < 0 {
		return nil, fmt.Errorf("fpm: negative shard count %d", opt.Shards)
	}
	if opt.MaxLen < 0 {
		return nil, fmt.Errorf("fpm: negative MaxLen %d", opt.MaxLen)
	}
	if b == nil || b.Len() == 0 {
		return nil, fmt.Errorf("fpm: empty outcome bundle")
	}
	if err := opt.Budget.Validate(); err != nil {
		return nil, err
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	for _, o := range b.Outcomes() {
		if o.Len() != u.NumRows {
			return nil, fmt.Errorf("fpm: outcome %q has %d rows, universe %d", o.Name, o.Len(), u.NumRows)
		}
	}
	minCount := int(math.Ceil(opt.MinSupport * float64(u.NumRows)))
	if minCount < 1 {
		minCount = 1
	}
	if opt.Tracer == nil {
		opt.Tracer = opt.TraceParent.Tracer()
	}
	opt.Workers = engine.Workers(opt.Workers)
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fpm: mining cancelled: %w", err)
	}
	plan := engine.NewPlan(u.NumRows, opt.Shards)
	opt.Tracer.SetGauge(obs.GaugeShards, float64(plan.NumShards()))
	cancel := watchContext(ctx)
	defer cancel.release()
	counts := &obs.MiningCounters{}
	opt.Progress.Attach(counts)
	budget := newBudgetTracker(opt.Budget, counts)
	defer budget.release()
	span := opt.TraceParent.Start(obs.SpanMine)
	if span == nil {
		span = opt.Tracer.Start(obs.SpanMine)
	}
	hBatch := opt.Tracer.Histogram(obs.HistCandidateBatch, obs.SizeBuckets)
	// The dispatch closure contains the miners' serial sections (candidate
	// generation, shard merges, result assembly); a panic there is
	// recovered into a *engine.PanicError just like ParallelFor recovers
	// its workers' panics, so a poisoned request fails instead of killing
	// the process.
	// One buffer pool per run, keyed by the plan: both miners draw their
	// scratch (row vectors, count matrices, conditional-tree arenas) from
	// it, and its hit/miss counters feed the explain memory section.
	pool := engine.NewPool(plan)
	mineRun := func() (r *Result, err error) {
		defer func() {
			if pe := engine.RecoverError(recover()); pe != nil {
				opt.Tracer.Counter(obs.CtrPanicsRecovered).Add(1)
				r, err = nil, pe
			}
		}()
		switch opt.Algorithm {
		case Apriori:
			return mineApriori(u, b, opt, minCount, plan, pool, span, cancel, counts, budget, hBatch)
		case FPGrowth:
			return mineFPGrowth(u, b, opt, minCount, plan, pool, span, cancel, counts, budget, hBatch)
		default:
			return nil, fmt.Errorf("fpm: unknown algorithm %v", opt.Algorithm)
		}
	}
	res, err := mineRun()
	if err != nil {
		span.End()
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		span.End()
		return nil, fmt.Errorf("fpm: mining cancelled: %w", err)
	}
	res.NumRows = u.NumRows
	res.Stats = statsOf(counts)
	if trunc, dim := budget.truncated(); trunc {
		res.Truncated = true
		res.Exhausted = dim
		opt.Tracer.Counter(obs.CtrBudgetExhaustedPrefix + dim).Add(1)
	}
	span.End()
	if tr := opt.Tracer; tr != nil {
		tr.Counter(obs.CtrPoolHits).Add(pool.Hits())
		tr.Counter(obs.CtrPoolMisses).Add(pool.Misses())
		tr.Counter(obs.CtrCandidates).Add(int64(res.Stats.Candidates))
		tr.Counter(obs.CtrPrunedSupport).Add(int64(res.Stats.PrunedSupport))
		tr.Counter(obs.CtrPrunedPolarity).Add(int64(res.Stats.PrunedPolarity))
		tr.Counter(obs.CtrItemsetsEmitted).Add(int64(res.Stats.Frequent))
		// Mirror the configured budget limits (and the observed heap
		// high-water mark) as gauges so the explain profile can derive
		// consumption fractions per dimension.
		if b := opt.Budget; !b.IsZero() {
			if b.MaxCandidates > 0 {
				tr.SetGauge(obs.GaugeBudgetMaxCandidates, float64(b.MaxCandidates))
			}
			if b.MaxItemsets > 0 {
				tr.SetGauge(obs.GaugeBudgetMaxItemsets, float64(b.MaxItemsets))
			}
			if b.SoftDeadline > 0 {
				tr.SetGauge(obs.GaugeBudgetSoftDeadlineNS, float64(b.SoftDeadline.Nanoseconds()))
			}
			if b.MaxHeapBytes > 0 {
				tr.SetGauge(obs.GaugeBudgetMaxHeapBytes, float64(b.MaxHeapBytes))
				if hw := budget.heapPeak.Load(); hw > 0 { // budget is non-nil: b is not zero
					tr.MaxGauge(obs.GaugeBudgetHeapBytes, float64(hw))
				}
			}
		}
		if hs := tr.Histogram(obs.HistItemsetSupport, obs.SupportBuckets); hs != nil && u.NumRows > 0 {
			inv := 1 / float64(u.NumRows)
			for i := range res.Itemsets {
				hs.Observe(float64(res.Itemsets[i].Count) * inv)
			}
		}
	}
	return res, nil
}

// canceller adapts a context to a lock-free flag the mining hot loops can
// poll at candidate granularity: one goroutine watches ctx.Done() and
// flips an atomic, so a poll costs a single atomic load instead of the
// mutex acquisition inside context.Context.Err. A nil *canceller reports
// not-cancelled, so uncancellable contexts cost nothing.
type canceller struct {
	stop     atomic.Bool
	released chan struct{}
}

// watchContext returns a canceller following ctx, or nil when ctx can
// never be cancelled. Callers must release it to stop the watcher.
func watchContext(ctx context.Context) *canceller {
	if ctx.Done() == nil {
		return nil
	}
	c := &canceller{released: make(chan struct{})}
	go func() {
		select {
		case <-ctx.Done():
			c.stop.Store(true)
		case <-c.released:
		}
	}()
	return c
}

// cancelled reports whether the watched context was cancelled.
func (c *canceller) cancelled() bool { return c != nil && c.stop.Load() }

// release stops the watcher goroutine.
func (c *canceller) release() {
	if c != nil {
		close(c.released)
	}
}

// momentsMulti computes, for every outcome of the bundle, the moments of a
// subgroup's rows by accumulating shard by shard and merging in ascending
// shard order (the engine data-plane contract). The primary outcome's
// moments return in m; the remaining outcomes' in extra (nil for a
// single-outcome bundle, keeping that path allocation-free).
func momentsMulti(p engine.Plan, b *outcome.Bundle, rows bitvec.Set) (m stats.Moments, extra []stats.Moments) {
	m = b.Primary().AccOf(p, rows).Moments()
	if b.Len() == 1 {
		return m, nil
	}
	extra = make([]stats.Moments, b.Len()-1)
	for k := 1; k < b.Len(); k++ {
		extra[k-1] = b.At(k).AccOf(p, rows).Moments()
	}
	return m, extra
}

// mineApriori is the level-wise candidate-generation miner. Level k
// candidates join two frequent (k−1)-itemsets sharing their first k−2
// items; the two differing items must constrain different attributes (the
// generalized-itemset rule) and, under polarity pruning, share polarity.
// Candidates with an infrequent (k−1)-subset are pruned before counting.
//
// Evaluation is sharded: support counting fans out over (candidate, shard)
// pairs into a fixed-position partial-count matrix, and survivors'
// outcome moments are accumulated shard by shard and merged in ascending
// shard order, so the output is deterministic regardless of both Workers
// and the shard count.
//
// Budget enforcement rides the same determinism: each level's candidate
// slice is generated deterministically and then trimmed to the remaining
// candidate budget as a prefix, and itemset-budget checks happen in the
// caller-goroutine merge loops — so a truncated ranked output is
// byte-identical across Workers and Shards. The soft dimensions
// (deadline, heap) stop the run cooperatively like cancellation.
//
// Buffer reuse: survivor row vectors and the partial-count matrix come
// from the run's pool. Level-1 entries reference universe-owned row sets
// (never returned to the pool); level-k≥2 entries own pooled vectors that
// are recycled once the next level is built. Pooled vectors are fully
// overwritten by AndInto before any read, so reuse cannot leak state.
func mineApriori(u *Universe, bun *outcome.Bundle, opt Options, minCount int, plan engine.Plan, pool *engine.Pool, span *obs.Span, cancel *canceller, counts *obs.MiningCounters, budget *budgetTracker, hBatch *obs.Histogram) (*Result, error) {
	res := &Result{}
	// Every event is counted in ev, on the caller goroutine, and published
	// per phase; the deferred publish covers the early returns.
	var ev tally
	defer ev.publish(counts)
	nShards := plan.NumShards()
	stopped := func() bool { return cancel.cancelled() || budget.softExhausted() != "" }

	type entry struct {
		items []int
		rows  *bitvec.Vector
		// pooled marks rows as pool-owned (recyclable when the level dies);
		// false for level-1 dense views, which the universe owns.
		pooled bool
	}

	// Level 1.
	scan := span.Start(obs.SpanMineScan)
	ev.level = 1
	hBatch.Observe(float64(len(u.Items)))
	if err := faultinject.Hit(faultinject.SiteCandidateBatch); err != nil {
		scan.End()
		return nil, err
	}
	nAllowed := budget.allowCandidates(len(u.Items), &ev)
	var level []entry
	for i := 0; i < nAllowed; i++ {
		ev.candidates++
		if u.Rows[i].Count() < minCount {
			ev.prunedSupport++
			continue
		}
		if budget.allowItemsets(1, &ev) < 1 {
			break
		}
		// Frequent items are almost always dense (minCount exceeds the
		// compression cutoff for typical supports); a compressed frequent
		// item materializes a dense working copy once here.
		level = append(level, entry{items: []int{i}, rows: u.Rows[i].Dense()})
		ev.frequent++
		m, extra := momentsMulti(plan, bun, u.Rows[i])
		res.Itemsets = append(res.Itemsets, MinedItemset{
			Items: []int{i},
			Count: u.Rows[i].Count(),
			M:     m,
			Multi: extra,
		})
	}

	ev.publish(counts)
	scan.End()

	frequent := map[string]bool{}
	for _, e := range level {
		frequent[key(e.items)] = true
	}

	levels := span.Start(obs.SpanMineLevels)
	defer levels.End()
	for k := 2; opt.MaxLen == 0 || k <= opt.MaxLen; k++ {
		if budget.detExhausted() || stopped() {
			return res, nil
		}
		ev.level = k
		// Phase 1: candidate generation. The level is sorted
		// lexicographically by construction (level 1 is index-ordered;
		// joins preserve order), enabling prefix grouping.
		type candidate struct {
			items []int
			base  int // index into level of the prefix entry
			extra int // the appended item
		}
		var cands []candidate
		for a := 0; a < len(level); a++ {
			if stopped() {
				return res, nil
			}
			ea := level[a]
			for b := a + 1; b < len(level); b++ {
				eb := level[b]
				if !samePrefix(ea.items, eb.items) {
					break // sorted: no further b shares ea's prefix
				}
				x, y := ea.items[k-2], eb.items[k-2]
				if u.AttrID[x] == u.AttrID[y] {
					continue
				}
				if opt.PolarityPrune && !polarityCompatible(u, ea.items, y) {
					ev.prunedPolarity++
					continue
				}
				cand := append(append([]int{}, ea.items...), y)
				if k > 2 && !allSubsetsFrequent(cand, frequent) {
					ev.prunedSupport++
					continue
				}
				cands = append(cands, candidate{items: cand, base: a, extra: y})
			}
		}
		// Trim the deterministically-generated candidate list to the
		// remaining candidate budget: a prefix cut, so the truncation point
		// is independent of Workers and Shards.
		if allowed := budget.allowCandidates(len(cands), &ev); allowed < len(cands) {
			cands = cands[:allowed]
		}
		ev.candidates += len(cands)
		ev.publish(counts)
		hBatch.Observe(float64(len(cands)))
		if err := faultinject.Hit(faultinject.SiteCandidateBatch); err != nil {
			return nil, err
		}

		// Phase 2a: sharded support counting. Each (candidate, shard) pair
		// is one task computing a fused AND+popcount over the shard's word
		// range into a fixed slot of the partial-count matrix, so wide
		// datasets expose shard-level parallelism and the totals are
		// independent of the task interleaving. The matrix comes zeroed
		// from the pool and its capacity is recycled across levels.
		partial := pool.GetInts(len(cands) * nShards)
		if err := engine.ParallelFor(len(cands)*nShards, opt.Workers, opt.Tracer, func(t int) {
			if stopped() {
				return
			}
			c, s := t/nShards, t%nShards
			lo, hi := plan.WordRange(s)
			partial[t] = u.Rows[cands[c].extra].AndCountRange(level[cands[c].base].rows, lo, hi)
		}); err != nil {
			return nil, err
		}
		if stopped() {
			return res, nil
		}
		if err := faultinject.Hit(faultinject.SiteShardMerge); err != nil {
			return nil, err
		}
		supports := make([]int, len(cands))
		var survivors []int
		for c := range cands {
			total := 0
			for s := 0; s < nShards; s++ {
				total += partial[c*nShards+s]
			}
			supports[c] = total
			if total >= minCount {
				survivors = append(survivors, c)
			}
		}
		// Per-shard load attribution for the explain profile: fold this
		// level's partial-count matrix into the deterministic shard-support
		// counters. Second pass only when tracing, so untraced (benchmark)
		// runs skip it entirely.
		if opt.Tracer != nil {
			for s := 0; s < nShards; s++ {
				var col int64
				for c := range cands {
					col += int64(partial[c*nShards+s])
				}
				opt.Tracer.Counter(fmt.Sprintf("%s%d", obs.CtrShardSupportPrefix, s)).Add(col)
			}
		}
		pool.PutInts(partial)

		// Phase 2b: survivors (the minority) materialize their row bitset
		// into a pooled vector (fully overwritten by AndInto, so a recycled
		// buffer's stale contents are unobservable) and accumulate outcome
		// moments per shard, merged in shard order.
		evaluated := make([]*entry, len(cands))
		moments := make([]stats.Moments, len(cands))
		multi := make([][]stats.Moments, len(cands))
		if err := engine.ParallelFor(len(survivors), opt.Workers, opt.Tracer, func(i int) {
			if stopped() {
				return
			}
			c := cands[survivors[i]]
			rows := u.Rows[c.extra].AndInto(level[c.base].rows, pool.GetVector())
			evaluated[survivors[i]] = &entry{items: c.items, rows: rows, pooled: true}
			moments[survivors[i]], multi[survivors[i]] = momentsMulti(plan, bun, rows)
		}); err != nil {
			return nil, err
		}
		if stopped() {
			return res, nil
		}

		var next []entry
		nextKeys := map[string]bool{}
		for i, e := range evaluated {
			if e == nil {
				ev.prunedSupport++
				continue
			}
			if budget.allowItemsets(1, &ev) < 1 {
				return res, nil
			}
			next = append(next, *e)
			ev.frequent++
			nextKeys[key(e.items)] = true
			res.Itemsets = append(res.Itemsets, MinedItemset{
				Items: e.items,
				Count: supports[i],
				M:     moments[i],
				Multi: multi[i],
			})
		}
		ev.publish(counts)
		// The finished level's pooled row vectors are dead (the next level
		// materialized its own); recycle them. Level-1 dense views are
		// universe-owned and skipped. Early returns above simply drop their
		// buffers — the pool is per-run, so the GC reclaims them.
		for _, e := range level {
			if e.pooled {
				pool.PutVector(e.rows)
			}
		}
		if len(next) == 0 {
			break
		}
		level = next
		frequent = nextKeys
	}
	return res, nil
}

// polarityCompatible reports whether appending item y to the itemset keeps
// all polarities equal. Single items are exempt (length-1 itemsets are
// always kept), so the check binds from length 2 upward.
func polarityCompatible(u *Universe, items []int, y int) bool {
	for _, x := range items {
		if u.Polarity[x] != u.Polarity[y] {
			return false
		}
	}
	return true
}

func samePrefix(a, b []int) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allSubsetsFrequent(cand []int, frequent map[string]bool) bool {
	sub := make([]int, 0, len(cand)-1)
	for drop := 0; drop < len(cand); drop++ {
		sub = sub[:0]
		for i, v := range cand {
			if i != drop {
				sub = append(sub, v)
			}
		}
		if !frequent[key(sub)] {
			return false
		}
	}
	return true
}

// key encodes a sorted index slice as a map key.
func key(items []int) string {
	b := make([]byte, 0, len(items)*3)
	for _, v := range items {
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		b = append(b, byte(v))
	}
	return string(b)
}
