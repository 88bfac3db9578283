// Package core implements the subgroup explorers: DivExplorer (base,
// non-hierarchical) and H-DivExplorer (hierarchical/generalized). Given a
// dataset, an outcome function and a set of item hierarchies, Explore mines
// all frequent (generalized) itemsets and reports each one's support,
// statistic value, divergence and Welch t-value, ranked by divergence.
//
// The full H-DivExplorer pipeline of the paper is: build item hierarchies
// for continuous attributes with the tree discretizer (package discretize),
// add flat or taxonomy hierarchies for categorical attributes, then call
// Explore in Hierarchical mode. Base mode restricts the item universe to
// hierarchy leaves, reproducing the behaviour of prior non-hierarchical
// tools for comparison.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fpm"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/outcome"
)

// Mode selects base (leaf items only) or hierarchical (all items)
// exploration.
type Mode int

const (
	// Hierarchical explores generalized itemsets over all hierarchy levels
	// (H-DivExplorer).
	Hierarchical Mode = iota
	// Base explores leaf items only (classic DivExplorer over a fixed
	// discretization).
	Base
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Hierarchical:
		return "hierarchical"
	case Base:
		return "base"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode is the inverse of String for the CLI flag and the server
// request field: it accepts any case, and "" means the default,
// Hierarchical.
func ParseMode(name string) (Mode, error) {
	switch strings.ToLower(name) {
	case "", "hierarchical":
		return Hierarchical, nil
	case "base":
		return Base, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", name)
	}
}

// Config parameterizes Explore.
type Config struct {
	// Outcome is the statistic whose divergence is explored.
	Outcome *outcome.Outcome
	// Hierarchies supplies the item universe, one hierarchy per attribute.
	Hierarchies *hierarchy.Set
	// MinSupport is the exploration support threshold s.
	MinSupport float64
	// MaxLen bounds itemset length (0 = unlimited).
	MaxLen int
	// PolarityPrune enables polarity pruning (§V-C).
	PolarityPrune bool
	// Algorithm selects the miner; FPGrowth by default.
	Algorithm fpm.Algorithm
	// Mode selects hierarchical or base exploration.
	Mode Mode
	// Workers is the number of goroutines mining and ranking run on:
	// 0 uses every core (runtime.GOMAXPROCS(0)), 1 runs serially. Results
	// are identical regardless of the setting.
	Workers int
	// Budget bounds the mining run's resource consumption; on exhaustion
	// the exploration returns a ranked Report flagged Truncated instead of
	// failing. The zero value is unlimited. See fpm.Budget for the
	// per-dimension determinism guarantees.
	Budget fpm.Budget
	// Tracer, when non-nil, receives exploration spans (universe build,
	// mining, ranking) and the fpm.* counters; the report's Trace field is
	// set to its snapshot. Nil disables all collection.
	Tracer *obs.Tracer
	// Progress, when non-nil, receives live mining progress (level,
	// candidates, pruned, frequent) and is Finished when the exploration
	// body returns, freezing its elapsed clock. Poll it from another
	// goroutine to watch a long run; nil disables collection.
	Progress *obs.Progress
	// Explain, when true, attaches an obs.Explain cost-attribution profile
	// (per-stage self/cumulative wall time, mining counters, worker split,
	// budget consumption) to the report. A nil Tracer is
	// upgraded to a fresh one so Explain is self-sufficient.
	Explain bool

	// span is the explore span exploreBundle opens; mining and ranking
	// nest under it (internal).
	span *obs.Span
}

// Subgroup is one explored data subgroup.
type Subgroup struct {
	// Itemset is the pattern defining the subgroup.
	Itemset hierarchy.Itemset
	// ItemIdx are the universe indices of the items (sorted).
	ItemIdx []int
	// Count and Support measure the subgroup size.
	Count   int
	Support float64
	// Statistic is f(S); Divergence is Δf(S) = f(S) − f(D).
	Statistic  float64
	Divergence float64
	// T is the Welch t-value of the divergence against the whole dataset.
	T float64
}

// String renders the subgroup compactly.
func (s *Subgroup) String() string {
	return fmt.Sprintf("{%s} sup=%.3f Δ=%+.4f t=%.1f", s.Itemset, s.Support, s.Divergence, s.T)
}

// Report is the result of an exploration.
type Report struct {
	// Subgroups holds every frequent itemset, sorted by |divergence|
	// descending.
	Subgroups []Subgroup
	// Global is f(D), the statistic on the whole dataset.
	Global float64
	// NumRows is the dataset size.
	NumRows int
	// NumItems is the size of the item universe explored.
	NumItems int
	// Elapsed is the wall-clock mining time (excluding universe setup).
	Elapsed time.Duration
	// Mining reports candidate/frequent counts from the miner.
	Mining fpm.MiningStats
	// Truncated marks an exploration cut short by an exhausted
	// Config.Budget: every subgroup present is correctly scored and the
	// ranking over them is exact, but the lattice was not fully explored.
	// Exhausted names the budget dimension that ran out (one of the
	// fpm.Exhausted* constants). Both are zero on unbudgeted runs.
	Truncated bool
	Exhausted string
	// Trace is the observability snapshot (spans, counters, gauges) when
	// the exploration ran with a Config.Tracer; nil otherwise. It covers
	// everything the tracer saw, including upstream parse/discretize spans
	// when the same tracer was threaded through the whole pipeline.
	Trace *obs.Trace
	// Explain is the query-level cost-attribution profile, computed from
	// the same snapshot when Config.Explain was set; nil otherwise. It
	// survives Trace being stripped (the server drops Trace from responses
	// unless requested, but keeps Explain).
	Explain *obs.Explain `json:"explain,omitempty"`
}

// Explore runs (H-)DivExplorer over the table.
func Explore(t *dataset.Table, cfg Config) (*Report, error) {
	return ExploreContext(context.Background(), t, cfg)
}

// ExploreContext is Explore with cancellation: the miners poll ctx at
// candidate granularity, so a cancelled or timed-out context makes the
// exploration return promptly with an error wrapping ctx.Err(). A
// context.Background() ctx behaves exactly like Explore. It is the
// bundle-of-one case of ExploreMultiContext, so single- and
// multi-statistic explorations share one code path and cannot diverge.
func ExploreContext(ctx context.Context, t *dataset.Table, cfg Config) (*Report, error) {
	if cfg.Outcome == nil {
		return nil, errNilOutcome
	}
	return first(ExploreMultiContext(ctx, t, cfg, outcome.Single(cfg.Outcome)))
}

// ExploreUniverse runs the exploration over a prebuilt item universe; use
// this to supply a custom item set.
func ExploreUniverse(u *fpm.Universe, cfg Config) (*Report, error) {
	return ExploreUniverseContext(context.Background(), u, cfg)
}

// ExploreUniverseContext is ExploreUniverse with cancellation, with the
// same contract as ExploreContext. Mining writes the universe only to
// keep its root FP-tree, and a cancelled run keeps none, so a cancelled
// run leaves it valid for reuse (the serving layer relies on this to keep
// cached universes intact across aborted requests).
func ExploreUniverseContext(ctx context.Context, u *fpm.Universe, cfg Config) (*Report, error) {
	if cfg.Outcome == nil {
		return nil, errNilOutcome
	}
	return first(ExploreUniverseMultiContext(ctx, u, cfg, outcome.Single(cfg.Outcome)))
}

var errNilOutcome = fmt.Errorf("core: Config.Outcome is nil")

// first unwraps a bundle-of-one exploration.
func first(reps []*Report, err error) (*Report, error) {
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// ExploreMulti runs the exploration once for a bundle of statistics: the
// itemset lattice is mined a single time (driven by the bundle's primary
// outcome, which also determines item polarities under PolarityPrune) and
// every statistic's moments are accumulated in that one pass. It returns
// one report per bundle outcome, each ranked by its own |divergence|. For
// a bundle of one, the report is byte-identical to Explore's; for larger
// bundles, each report is byte-identical to an independent Explore call
// with the same Hierarchies and that statistic as Config.Outcome (when the
// polarity signs agree — polarities always come from the primary).
// cfg.Outcome is ignored; the bundle supplies the outcomes.
func ExploreMulti(t *dataset.Table, cfg Config, b *outcome.Bundle) ([]*Report, error) {
	return ExploreMultiContext(context.Background(), t, cfg, b)
}

// ExploreMultiContext is ExploreMulti with cancellation.
func ExploreMultiContext(ctx context.Context, t *dataset.Table, cfg Config, b *outcome.Bundle) ([]*Report, error) {
	if b == nil || b.Len() == 0 {
		return nil, fmt.Errorf("core: empty outcome bundle")
	}
	if cfg.Hierarchies == nil {
		return nil, fmt.Errorf("core: Config.Hierarchies is nil")
	}
	if err := cfg.Hierarchies.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid hierarchies: %w", err)
	}
	switch cfg.Mode {
	case Hierarchical, Base:
	default:
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: exploration cancelled: %w", err)
	}
	return exploreBundle(ctx, t, nil, cfg, b)
}

// ExploreUniverseMultiContext is ExploreMultiContext over a prebuilt item
// universe — the entry point the serving layer's batch endpoint uses with
// cached universes. The universe must have been built against the
// bundle's primary outcome for polarity pruning to be meaningful.
func ExploreUniverseMultiContext(ctx context.Context, u *fpm.Universe, cfg Config, b *outcome.Bundle) ([]*Report, error) {
	if b == nil || b.Len() == 0 {
		return nil, fmt.Errorf("core: empty outcome bundle")
	}
	return exploreBundle(ctx, nil, u, cfg, b)
}

// exploreBundle is the body every entry point shares: it opens the
// explore span, builds the item universe over t when u is nil, mines and
// ranks the bundle, and attaches one tracer snapshot (and, when
// requested, one shared explain profile) to every report. An explain
// request upgrades a nil tracer to a fresh one, so Explain works without
// the caller wiring observability explicitly.
func exploreBundle(ctx context.Context, t *dataset.Table, u *fpm.Universe, cfg Config, b *outcome.Bundle) ([]*Report, error) {
	cfg.Outcome = b.Primary()
	if cfg.Explain && cfg.Tracer == nil {
		cfg.Tracer = obs.New()
	}
	if id := obs.RequestIDFrom(ctx); id != "" {
		cfg.Tracer.SetID(id)
	}
	cfg.span = cfg.Tracer.Start(obs.SpanExplore)
	if u == nil {
		us := cfg.span.Start(obs.SpanUniverse)
		if cfg.Mode == Hierarchical {
			u = fpm.GeneralizedUniverse(t, cfg.Hierarchies, cfg.Outcome)
		} else {
			u = fpm.BaseUniverse(t, cfg.Hierarchies, cfg.Outcome)
		}
		us.End()
	}
	reps, err := exploreUniverseMulti(ctx, u, cfg, b)
	cfg.span.End()
	if err != nil || cfg.Tracer == nil {
		return reps, err
	}
	trace := cfg.Tracer.Snapshot()
	var ex *obs.Explain
	if cfg.Explain {
		ex = obs.NewExplain(trace)
	}
	for _, r := range reps {
		r.Trace = trace
		r.Explain = ex
	}
	return reps, nil
}

// exploreUniverseMulti mines the universe once for every statistic of the
// bundle and builds one ranked report per statistic. The reports share
// the lattice, supports and mining stats; each is sorted by its own
// statistic's |divergence|.
func exploreUniverseMulti(ctx context.Context, u *fpm.Universe, cfg Config, b *outcome.Bundle) ([]*Report, error) {
	defer cfg.Progress.Finish()
	if tr := cfg.Tracer; tr != nil {
		// Universe representation gauges feed the explain memory section;
		// deterministic for a fixed dataset and item set.
		mem := u.Memory()
		tr.SetGauge(obs.GaugeItemsDense, float64(mem.ItemsDense))
		tr.SetGauge(obs.GaugeItemsCompressed, float64(mem.ItemsCompressed))
		tr.SetGauge(obs.GaugeContainersArray, float64(mem.ContainersArray))
		tr.SetGauge(obs.GaugeContainersBitmap, float64(mem.ContainersBitmap))
		tr.SetGauge(obs.GaugeContainersRun, float64(mem.ContainersRun))
		tr.SetGauge(obs.GaugeUniverseBytes, float64(mem.Bytes))
		tr.SetGauge(obs.GaugeUniverseDenseBytes, float64(mem.DenseBytes))
	}
	start := time.Now()
	res, err := fpm.MineMulti(u, b, fpm.Options{
		Ctx:           ctx,
		MinSupport:    cfg.MinSupport,
		MaxLen:        cfg.MaxLen,
		PolarityPrune: cfg.PolarityPrune,
		Algorithm:     cfg.Algorithm,
		Workers:       cfg.Workers,
		Budget:        cfg.Budget,
		Tracer:        cfg.Tracer,
		TraceParent:   cfg.span,
		Progress:      cfg.Progress,
	})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	rank := cfg.span.Start(obs.SpanRank)
	defer rank.End()
	return rankReports(u, res, b, elapsed, cfg.Workers)
}

// rankReports builds one report per bundle statistic from a mined result:
// each ranks the result's itemsets by its own statistic (fpm.Rank) and
// reads them in that order into its subgroups. elapsed is the mining time
// the reports carry. Ranking and the build run on workers goroutines
// (Config.Workers), the build in contiguous chunks of the order
// (engine.Chunks, at least fpm.RankChunkMin subgroups each); the tracer
// is left out, so the worker counters keep describing mining.
func rankReports(u *fpm.Universe, res *fpm.Result, b *outcome.Bundle, elapsed time.Duration, workers int) ([]*Report, error) {
	reps := make([]*Report, b.Len())
	for k := range reps {
		o := b.At(k)
		order := fpm.Rank(res.Itemsets, k, o, workers)
		rep := &Report{
			Global:    o.GlobalMean(),
			NumRows:   u.NumRows,
			NumItems:  len(u.Items),
			Elapsed:   elapsed,
			Mining:    res.Stats,
			Truncated: res.Truncated,
			Exhausted: res.Exhausted,
		}
		rep.Subgroups = make([]Subgroup, len(order))
		chunks := engine.Chunks(len(order), workers, fpm.RankChunkMin)
		if err := engine.ParallelFor(chunks, chunks, nil, func(c int) {
			lo, hi := engine.ChunkRange(len(order), chunks, c)
			// The chunk carves its subgroups' itemsets from one slab of
			// its own, each clipped to its length so an append to one
			// cannot overwrite the next.
			numItems := 0
			for _, j := range order[lo:hi] {
				numItems += len(res.Itemsets[j].Items)
			}
			slab := make(hierarchy.Itemset, numItems)
			for i, j := range order[lo:hi] {
				m := &res.Itemsets[j]
				mk := m.MomentsAt(k)
				n := len(m.Items)
				set := slab[:n:n]
				slab = slab[n:]
				for x, it := range m.Items {
					set[x] = u.Items[it]
				}
				rep.Subgroups[lo+i] = Subgroup{
					Itemset:    set,
					ItemIdx:    m.Items,
					Count:      m.Count,
					Support:    m.Support(u.NumRows),
					Statistic:  mk.Mean(),
					Divergence: o.DivergenceFromMoments(mk),
					T:          o.TValueFromMoments(mk),
				}
			}
		}); err != nil {
			return nil, err
		}
		reps[k] = rep
	}
	return reps, nil
}

// TopK returns the k subgroups with largest |divergence| (fewer if the
// report is smaller).
func (r *Report) TopK(k int) []Subgroup {
	if k > len(r.Subgroups) {
		k = len(r.Subgroups)
	}
	return r.Subgroups[:k]
}

// MaxAbsDivergence returns the largest |Δ| over all subgroups, 0 if none.
func (r *Report) MaxAbsDivergence() float64 {
	if len(r.Subgroups) == 0 {
		return 0
	}
	return math.Abs(r.Subgroups[0].Divergence)
}

// Top returns the single most divergent subgroup, or nil if empty.
func (r *Report) Top() *Subgroup {
	if len(r.Subgroups) == 0 {
		return nil
	}
	return &r.Subgroups[0]
}

// FilterMinT returns the subgroups whose |t| is at least tMin, preserving
// order.
func (r *Report) FilterMinT(tMin float64) []Subgroup {
	var out []Subgroup
	for _, s := range r.Subgroups {
		if math.Abs(s.T) >= tMin {
			out = append(out, s)
		}
	}
	return out
}

// Find returns the subgroup whose itemset renders to the given canonical
// string (as produced by hierarchy.Itemset.String), or nil.
func (r *Report) Find(pattern string) *Subgroup {
	for i := range r.Subgroups {
		if r.Subgroups[i].Itemset.String() == pattern {
			return &r.Subgroups[i]
		}
	}
	return nil
}

// Table renders the top k subgroups as an aligned text table.
func (r *Report) Table(k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-60s %8s %10s %8s\n", "itemset", "sup", "Δ", "t")
	for _, s := range r.TopK(k) {
		fmt.Fprintf(&b, "%-60s %8.3f %+10.4f %8.1f\n", s.Itemset.String(), s.Support, s.Divergence, s.T)
	}
	return b.String()
}

// DescribeHierarchy renders an item hierarchy with the support and
// divergence of every node, reproducing the annotated tree of the paper's
// Figure 1.
func DescribeHierarchy(t *dataset.Table, h *hierarchy.Hierarchy, o *outcome.Outcome) string {
	var b strings.Builder
	var walk func(i, depth int)
	walk = func(i, depth int) {
		n := h.Nodes[i]
		rows := n.Item.Rows(t)
		sup := float64(rows.Count()) / float64(t.NumRows())
		indent := strings.Repeat("  ", depth)
		if i == 0 {
			fmt.Fprintf(&b, "%sroot sup=%.2f %s=%.3f\n", indent, sup, o.Name, o.GlobalMean())
		} else {
			fmt.Fprintf(&b, "%s%s sup=%.2f Δ=%+.3f\n", indent, n.Item, sup, o.DivergenceOf(rows))
		}
		children := append([]int(nil), n.Children...)
		sort.Ints(children)
		for _, c := range children {
			walk(c, depth+1)
		}
	}
	walk(0, 0)
	return b.String()
}
