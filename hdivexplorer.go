// The package comment lives in doc.go; this file re-exports the library
// surface from the internal packages.
package hdivexplorer

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discretize"
	"repro/internal/faultinject"
	"repro/internal/fpm"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/outcome"
)

// Observability.
type (
	// Tracer collects hierarchical spans, counters and gauges across the
	// pipeline; a nil *Tracer disables collection at no cost.
	Tracer = obs.Tracer
	// TraceSpan is one timed region of a trace.
	TraceSpan = obs.Span
	// Trace is an immutable tracer snapshot (JSON-marshalable; renders a
	// human-readable span tree via Tree and exports Chrome/Perfetto
	// trace_event JSON via WriteChromeTrace).
	Trace = obs.Trace
	// Progress is a lock-free live progress reporter for a mining run;
	// poll Snapshot from any goroutine while the run is in flight.
	Progress = obs.Progress
	// ProgressSnapshot is one consistent view of a Progress reporter.
	ProgressSnapshot = obs.ProgressSnapshot
	// Explain is a query-level cost-attribution profile: per-stage wall
	// time, mining counters, worker split, cache outcome and budget
	// consumption, aggregated from a trace snapshot. Reports
	// carry one when the run asked for it (PipelineOptions.Explain or
	// ExploreConfig.Explain).
	Explain = obs.Explain
)

// NewExplain computes an explain profile from a trace snapshot; it
// returns nil on a nil trace. Use it to profile a run after the fact
// when only the trace was kept.
func NewExplain(tr *Trace) *Explain { return obs.NewExplain(tr) }

// NewTracer returns an empty tracer whose clock starts now. Set it on
// CSVOptions, PipelineOptions or ExploreConfig to instrument a run; the
// resulting Report.Trace holds the snapshot.
func NewTracer() *Tracer { return obs.New() }

// NewProgress returns a progress reporter whose clock starts now. Set it
// on PipelineOptions or ExploreConfig and poll Snapshot from another
// goroutine to watch a long run live.
func NewProgress() *Progress { return obs.NewProgress() }

// Dataset substrate.
type (
	// Table is a columnar dataset with continuous and categorical columns.
	Table = dataset.Table
	// TableBuilder assembles a Table column by column.
	TableBuilder = dataset.Builder
	// Field describes one attribute.
	Field = dataset.Field
	// Kind distinguishes continuous from categorical attributes.
	Kind = dataset.Kind
	// CSVOptions controls CSV parsing.
	CSVOptions = dataset.CSVOptions
)

// Attribute kinds.
const (
	Continuous  = dataset.Continuous
	Categorical = dataset.Categorical
)

// NewTableBuilder returns an empty table builder.
func NewTableBuilder() *TableBuilder { return dataset.NewBuilder() }

// ReadCSV parses a headed CSV stream, inferring column kinds.
var ReadCSV = dataset.ReadCSV

// ReadCSVFile parses a headed CSV file, inferring column kinds.
var ReadCSVFile = dataset.ReadCSVFile

// Outcome functions.
type (
	// Outcome is a per-row outcome function o: D → ℝ ∪ {⊥}; subgroup
	// statistics are means of o over subgroup members with defined outcome.
	Outcome = outcome.Outcome
	// OutcomeBundle is an ordered set of outcomes evaluated together in one
	// mining pass; the first outcome is the primary and determines the
	// itemset lattice (discretization and polarities).
	OutcomeBundle = outcome.Bundle
)

// NewOutcomeBundle validates and assembles a multi-statistic bundle; all
// outcomes must cover the same rows.
var NewOutcomeBundle = outcome.NewBundle

// BuildStatistic assembles the outcome named by stat ("fpr", "fnr",
// "error", "accuracy", "numeric") from a table's label columns, returning
// the outcome plus the columns to exclude from the exploration.
var BuildStatistic = core.BuildStatistic

// The statistic-list path the CLI and the HTTP server share: ParseStats
// normalizes a list, StatInputs gives its exclusion set (every
// statistic's label columns), BuildBundle builds one outcome per
// statistic, WriteReports renders one report per statistic as json or
// csv.
var (
	ParseStats   = core.ParseStats
	StatInputs   = core.StatInputs
	BuildBundle  = core.BuildBundle
	WriteReports = core.WriteReports
)

// BoolColumn reads a table column as booleans (nonzero for continuous
// columns; true/false, yes/no, 1/0, t/f, y/n for categorical ones).
var BoolColumn = core.BoolColumn

// Outcome constructors.
var (
	// FalsePositiveRate builds the FPR outcome from actual and predicted
	// labels.
	FalsePositiveRate = outcome.FalsePositiveRate
	// FalseNegativeRate builds the FNR outcome.
	FalseNegativeRate = outcome.FalseNegativeRate
	// ErrorRate builds the misclassification outcome.
	ErrorRate = outcome.ErrorRate
	// Accuracy builds the accuracy outcome.
	Accuracy = outcome.Accuracy
	// Numeric builds an outcome directly from a numeric target column.
	Numeric = outcome.Numeric
)

// Items and hierarchies.
type (
	// Item is a constraint on one attribute (interval or level set).
	Item = hierarchy.Item
	// Itemset is a conjunction of items, at most one per attribute.
	Itemset = hierarchy.Itemset
	// Hierarchy is an item hierarchy for one attribute.
	Hierarchy = hierarchy.Hierarchy
	// HierarchySet maps attributes to their hierarchies (the paper's Γ).
	HierarchySet = hierarchy.Set
)

// Hierarchy constructors.
var (
	// ContinuousItem returns the item attr ∈ (lo, hi].
	ContinuousItem = hierarchy.ContinuousItem
	// CategoricalItem returns an item covering level codes of attr.
	CategoricalItem = hierarchy.CategoricalItem
	// NewHierarchySet returns an empty hierarchy set.
	NewHierarchySet = hierarchy.NewSet
	// FlatCategorical builds the depth-1 hierarchy A=a for all levels a.
	FlatCategorical = hierarchy.FlatCategorical
	// PathTaxonomy builds a multi-level categorical hierarchy from a path
	// function (e.g. occupation supercategories, IP prefixes).
	PathTaxonomy = hierarchy.PathTaxonomy
)

// Discretization.
type (
	// TreeOptions configures the divergence-aware tree discretizer.
	TreeOptions = discretize.TreeOptions
	// Criterion selects the tree split gain.
	Criterion = discretize.Criterion
)

// Tree split criteria.
const (
	// DivergenceGain is the paper's divergence-based split criterion,
	// applicable to any outcome.
	DivergenceGain = discretize.DivergenceGain
	// EntropyGain is the classic entropy criterion for boolean outcomes.
	EntropyGain = discretize.EntropyGain
)

// Option-name parsers: the inverses of the String methods, shared by the
// CLI flags and the HTTP server's request fields. Each accepts any case,
// and "" means the default.
var (
	// ParseCriterion parses "divergence" or "entropy".
	ParseCriterion = discretize.ParseCriterion
	// ParseMode parses "hierarchical" or "base".
	ParseMode = core.ParseMode
	// ParseAlgorithm parses "fpgrowth" (or "fp-growth") or "apriori".
	ParseAlgorithm = fpm.ParseAlgorithm
)

// ArmFaultsFromEnv arms the deterministic fault-injection failpoints
// listed in the HDIV_FAILPOINTS environment variable (comma-separated
// site=spec pairs, e.g. "dataset.read_csv=error(disk gone)"); see
// internal/faultinject for the spec grammar and DESIGN.md §Failure
// containment for the site catalog. A no-op when the variable is unset;
// disarmed failpoints cost one atomic load. Intended for fault-injection
// testing of binaries built on this package.
var ArmFaultsFromEnv = faultinject.ArmFromEnv

// Discretizers.
var (
	// Tree builds the item hierarchy for one continuous attribute.
	Tree = discretize.Tree
	// TreeSet builds tree hierarchies for every continuous attribute.
	TreeSet = discretize.TreeSet
	// Quantile builds a flat equal-frequency discretization.
	Quantile = discretize.Quantile
	// UniformWidth builds a flat equal-width discretization.
	UniformWidth = discretize.UniformWidth
	// ManualCuts builds a flat discretization from explicit cut points.
	ManualCuts = discretize.ManualCuts
)

// Exploration.
type (
	// ExploreConfig parameterizes Explore.
	ExploreConfig = core.Config
	// Report is an exploration result: subgroups ranked by |divergence|.
	Report = core.Report
	// Subgroup is one explored subgroup with support, divergence and
	// t-value.
	Subgroup = core.Subgroup
	// Mode selects base or hierarchical exploration.
	Mode = core.Mode
	// Algorithm selects the mining algorithm.
	Algorithm = fpm.Algorithm
	// Budget bounds a mining run's resource consumption; on exhaustion the
	// exploration returns a ranked Report flagged Truncated instead of
	// failing. The zero value is unlimited.
	Budget = fpm.Budget
)

// Exploration modes and algorithms.
const (
	// Hierarchical explores generalized itemsets over all hierarchy levels.
	Hierarchical = core.Hierarchical
	// Base explores leaf items only (classic DivExplorer).
	Base = core.Base
	// FPGrowth selects the FP-tree miner (default).
	FPGrowth = fpm.FPGrowth
	// Apriori selects the level-wise miner.
	Apriori = fpm.Apriori
)

// Explore runs (H-)DivExplorer over a table with explicit hierarchies.
var Explore = core.Explore

// ExploreContext is Explore with cancellation: the miners poll the context
// at candidate granularity, so cancelling it (or letting its deadline
// expire) makes the exploration return promptly with an error wrapping
// ctx.Err().
var ExploreContext = core.ExploreContext

// ExploreUniverseContext runs a cancellable exploration over a prebuilt
// item universe. The universe is never mutated, so it stays valid for
// reuse after a cancelled run — the property the serving layer's universe
// cache relies on.
var ExploreUniverseContext = core.ExploreUniverseContext

// ExploreMulti mines the itemset lattice once for a bundle of statistics
// and returns one ranked report per statistic; a bundle of one is
// byte-identical to Explore. See core.ExploreMulti for the polarity
// caveat when pruning is enabled.
var ExploreMulti = core.ExploreMulti

// ExploreMultiContext is ExploreMulti with cancellation.
var ExploreMultiContext = core.ExploreMultiContext

// ExploreUniverseMultiContext is the multi-statistic exploration over a
// prebuilt universe (built against the bundle's primary outcome).
var ExploreUniverseMultiContext = core.ExploreUniverseMultiContext

// DescribeHierarchy renders an item hierarchy annotated with per-node
// support and divergence (the paper's Figure 1).
var DescribeHierarchy = core.DescribeHierarchy

// PipelineOptions configures the end-to-end Pipeline helper.
type PipelineOptions struct {
	// TreeSupport is the tree-node support st used by the hierarchical
	// discretizer (default 0.1).
	TreeSupport float64
	// Criterion is the tree split gain (default DivergenceGain).
	Criterion Criterion
	// MinSupport is the exploration support threshold s (default 0.05).
	MinSupport float64
	// MaxLen bounds itemset length (0 = unlimited).
	MaxLen int
	// PolarityPrune enables polarity pruning.
	PolarityPrune bool
	// Mode selects hierarchical (default) or base exploration.
	Mode Mode
	// Algorithm selects the miner (default FPGrowth).
	Algorithm Algorithm
	// Workers is the number of goroutines mining and ranking run on
	// (0 = every core, runtime.GOMAXPROCS(0); 1 = serial). Results are
	// identical regardless.
	Workers int
	// ResourceBudget bounds the mining run; on exhaustion the pipeline
	// returns a ranked Report flagged Truncated instead of failing. The
	// zero value is unlimited.
	ResourceBudget Budget
	// Taxonomies supplies hierarchies for specific attributes, each in
	// place of its attribute's default: multi-level taxonomies for
	// categorical attributes (all others get flat hierarchies), or fixed
	// cuts for a continuous attribute instead of its tree.
	Taxonomies []*Hierarchy
	// Exclude lists attributes to leave out of the exploration entirely.
	Exclude []string
	// Explain computes a query-level cost-attribution profile for the run;
	// the report's Explain field receives it. Implies tracing: when Tracer
	// is nil a run-local tracer is created for the exploration stages, so
	// Explain is self-sufficient (set Tracer too to also cover parsing and
	// discretization in the profile).
	Explain bool
	// Tracer, when non-nil, instruments the whole pipeline — tree
	// discretization, universe build, mining, ranking — with spans and
	// counters; the report's Trace field receives the snapshot. Thread the
	// same tracer through CSVOptions to cover parsing too.
	Tracer *Tracer
	// Progress, when non-nil, receives live mining progress; poll its
	// Snapshot from another goroutine while the pipeline runs.
	Progress *Progress
}

// Pipeline runs the full H-DivExplorer pipeline on a table: divergence-
// aware tree discretization of every continuous attribute, flat or
// taxonomic hierarchies for categorical attributes, then (hierarchical)
// divergence subgroup exploration.
func Pipeline(t *Table, o *Outcome, opt PipelineOptions) (*Report, error) {
	return PipelineContext(context.Background(), t, o, opt)
}

// PipelineContext is Pipeline with cancellation: the context is checked
// between pipeline stages and polled at candidate granularity inside the
// miners, so a cancelled or timed-out context aborts the run promptly
// with an error wrapping ctx.Err().
func PipelineContext(ctx context.Context, t *Table, o *Outcome, opt PipelineOptions) (*Report, error) {
	hs, cfg, err := pipelinePrepare(ctx, t, o, &opt)
	if err != nil {
		return nil, err
	}
	cfg.Outcome = o
	cfg.Hierarchies = hs
	return core.ExploreContext(ctx, t, cfg)
}

// PipelineMulti runs the full pipeline once for a bundle of statistics:
// discretization and the itemset lattice follow the bundle's primary
// outcome, a single mining pass accumulates every outcome's moments, and
// one ranked report per statistic is returned (in bundle order). A bundle
// of one is byte-identical to Pipeline.
func PipelineMulti(t *Table, b *OutcomeBundle, opt PipelineOptions) ([]*Report, error) {
	return PipelineMultiContext(context.Background(), t, b, opt)
}

// PipelineMultiContext is PipelineMulti with cancellation.
func PipelineMultiContext(ctx context.Context, t *Table, b *OutcomeBundle, opt PipelineOptions) ([]*Report, error) {
	if b == nil || b.Len() == 0 {
		return nil, fmt.Errorf("hdivexplorer: nil or empty outcome bundle")
	}
	hs, cfg, err := pipelinePrepare(ctx, t, b.Primary(), &opt)
	if err != nil {
		return nil, err
	}
	cfg.Hierarchies = hs
	return core.ExploreMultiContext(ctx, t, cfg, b)
}

// pipelinePrepare applies pipeline defaults, builds the hierarchy set
// (discretize.Hierarchies: trees driven by o, then the taxonomies, then
// flat categorical hierarchies) and assembles the exploration config
// shared by the single- and multi-statistic pipelines.
func pipelinePrepare(ctx context.Context, t *Table, o *Outcome, opt *PipelineOptions) (*HierarchySet, core.Config, error) {
	if opt.TreeSupport == 0 {
		opt.TreeSupport = 0.1
	}
	if opt.MinSupport == 0 {
		opt.MinSupport = 0.05
	}
	for _, e := range opt.Exclude {
		if !t.HasColumn(e) {
			return nil, core.Config{}, fmt.Errorf("hdivexplorer: excluded attribute %q not in table", e)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, core.Config{}, fmt.Errorf("hdivexplorer: pipeline cancelled: %w", err)
	}
	hs, err := discretize.Hierarchies(t, o, discretize.TreeOptions{
		Criterion:  opt.Criterion,
		MinSupport: opt.TreeSupport,
		Tracer:     opt.Tracer,
	}, opt.Taxonomies, opt.Exclude...)
	if err != nil {
		return nil, core.Config{}, err
	}
	return hs, core.Config{
		MinSupport:    opt.MinSupport,
		MaxLen:        opt.MaxLen,
		PolarityPrune: opt.PolarityPrune,
		Algorithm:     opt.Algorithm,
		Mode:          opt.Mode,
		Workers:       opt.Workers,
		Budget:        opt.ResourceBudget,
		Explain:       opt.Explain,
		Tracer:        opt.Tracer,
		Progress:      opt.Progress,
	}, nil
}
