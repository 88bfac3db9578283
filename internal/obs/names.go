package obs

// Canonical span names emitted by the pipeline. Stage packages use these
// constants so the CLI, benchmarks and tests agree on one vocabulary;
// README.md §Observability documents the full registry.
const (
	// SpanReadCSV covers dataset.ReadCSV; its children split raw CSV
	// decoding (SpanCSVParse) from column building and kind inference
	// (SpanCSVColumns).
	SpanReadCSV    = "read_csv"
	SpanCSVParse   = "read_csv.parse"
	SpanCSVColumns = "read_csv.columns"

	// SpanDiscretize covers discretize.TreeSet; one child per continuous
	// attribute, named SpanTreePrefix + attribute.
	SpanDiscretize = "discretize"
	SpanTreePrefix = "discretize.tree:"

	// SpanExplore covers core.Explore end to end; children are universe
	// construction, mining (SpanMine, owned by fpm) and ranking.
	SpanExplore  = "explore"
	SpanUniverse = "explore.universe"
	SpanRank     = "explore.rank"

	// SpanMine covers fpm.Mine. FP-Growth emits SpanMineScan (global item
	// frequency scan), SpanMineBuild (FP-tree construction, with a
	// SpanMineMerge child when shard trees are folded together) and
	// SpanMineGrow (conditional-tree recursion); Apriori emits
	// SpanMineScan (level 1) and SpanMineLevels (levels ≥ 2).
	SpanMine       = "mine"
	SpanMineScan   = "mine.scan"
	SpanMineBuild  = "mine.build"
	SpanMineMerge  = "mine.build.merge"
	SpanMineGrow   = "mine.grow"
	SpanMineLevels = "mine.levels"
)

// Canonical counter names.
const (
	CtrRows            = "dataset.rows"
	CtrCols            = "dataset.cols"
	CtrColsContinuous  = "dataset.cols_continuous"
	CtrColsCategorical = "dataset.cols_categorical"

	// CtrTreeNodes counts hierarchy nodes grown by the tree discretizer
	// (beyond roots); CtrSplitsNoSupport counts leaves that could not be
	// split because the st support floor left no feasible cut;
	// CtrSplitsNoGain counts leaves whose best feasible cut had zero gain.
	CtrTreeNodes       = "discretize.nodes_grown"
	CtrSplitsNoSupport = "discretize.splits_rejected_support"
	CtrSplitsNoGain    = "discretize.splits_rejected_gain"

	// CtrCandidates counts itemset candidates whose support was evaluated;
	// CtrPrunedSupport the candidates discarded as infrequent (including
	// Apriori's subset-infrequency prunes); CtrPrunedPolarity the
	// combinations skipped by §V-C polarity pruning; CtrItemsetsEmitted
	// the frequent itemsets returned.
	CtrCandidates      = "fpm.candidates"
	CtrPrunedSupport   = "fpm.pruned_support"
	CtrPrunedPolarity  = "fpm.pruned_polarity"
	CtrItemsetsEmitted = "fpm.itemsets_emitted"

	// CtrWorkerTaskPrefix + worker index counts tasks completed by each
	// engine.ParallelFor worker goroutine (utilization; nondeterministic
	// split).
	CtrWorkerTaskPrefix = "fpm.worker_tasks.w"

	// CtrShardRowsPrefix + shard index counts the transactions (non-empty
	// rows) each engine shard inserted during FP-tree construction;
	// deterministic per shard for a given plan.
	CtrShardRowsPrefix = "engine.shard_rows.s"

	// CtrShardSupportPrefix + shard index counts the candidate-support
	// increments Apriori's sharded counting phase attributed to each
	// engine shard; deterministic per shard for a given plan, and the
	// load signal behind the explain profile's shard-skew ratio.
	CtrShardSupportPrefix = "engine.shard_support.s"

	// CtrPoolHits / CtrPoolMisses count buffer acquisitions served by the
	// run's engine.Pool from recycled storage vs freshly allocated — row
	// vectors, partial-count matrices, FP-Growth conditional trees and
	// scratches alike. The split depends on GC timing and worker
	// interleaving, so it is measured (nondeterministic) telemetry.
	CtrPoolHits   = "engine.pool_hits"
	CtrPoolMisses = "engine.pool_misses"

	// CtrPanicsRecovered counts panics recovered into errors by the
	// failure-containment layer: engine.ParallelFor worker recoveries and
	// the miners' serial-section recoveries. Zero in a healthy process.
	CtrPanicsRecovered = "engine.panics_recovered"

	// CtrBudgetExhaustedPrefix + dimension (candidates, itemsets,
	// deadline, heap) counts mining runs truncated because that resource
	// budget was exhausted.
	CtrBudgetExhaustedPrefix = "fpm.budget_exhausted."

	// Serving-layer counters (internal/server, accumulated on the server's
	// lifetime tracer and rendered by GET /metrics).
	//
	// CtrServerRequestPrefix + endpoint counts requests per endpoint
	// (datasets, explore, healthz, metrics); CtrServerExplores counts
	// explorations actually run; CtrServerErrors counts requests answered
	// with a 4xx/5xx status; CtrServerRejected counts explorations turned
	// away with 429 because the in-flight limit was reached;
	// CtrServerCancelled counts explorations aborted by client disconnect
	// or per-request timeout; CtrServerCacheHits / CtrServerCacheMisses
	// count universe-cache lookups (a hit skips discretization and
	// universe construction entirely).
	CtrServerRequestPrefix = "server.requests."
	CtrServerExplores      = "server.explores"
	CtrServerErrors        = "server.http_errors"
	CtrServerRejected      = "server.rejected_saturated"
	CtrServerCancelled     = "server.explores_cancelled"
	CtrServerCacheHits     = "server.universe_cache_hits"
	CtrServerCacheMisses   = "server.universe_cache_misses"

	// CtrServerCacheEvictions counts universe-cache entries evicted by the
	// LRU capacity bound; CtrServerBatchStats counts the statistics
	// computed across /v1/explore/batch requests (one mining pass may
	// cover several).
	CtrServerCacheEvictions = "server.universe_cache_evictions"
	CtrServerBatchStats     = "server.batch_statistics"

	// CtrServerPanics counts handler panics recovered by the server's
	// recovery middleware (each answered with a 500 while the daemon keeps
	// serving); CtrServerTruncated counts explorations answered 200 with a
	// budget-truncated (best-effort) report.
	CtrServerPanics    = "server.panics_recovered"
	CtrServerTruncated = "server.explorations_truncated"

	// Dataset-lifecycle counters. CtrServerAppends counts accepted append
	// batches (each bumping its dataset's epoch); CtrServerAppendRows the
	// rows they carried. CtrServerCacheStaleEvictions counts universe-cache
	// evictions that picked a stale-epoch entry over the plain LRU tail.
	// CtrServerDriftRemines counts background drift re-mines;
	// CtrServerDriftEvents the threshold crossings they detected.
	CtrServerAppends             = "server.appends"
	CtrServerAppendRows          = "server.append_rows"
	CtrServerCacheStaleEvictions = "server.universe_cache_stale_evictions"
	CtrServerDriftRemines        = "server.drift_remines"
	CtrServerDriftEvents         = "server.drift_events"

	// Write-ahead-log counters (internal/wal, accumulated on the server's
	// lifetime tracer when durability is enabled). CtrWALRecords counts
	// records appended to the active segment; CtrWALReplayedRecords the
	// records applied during startup recovery; CtrWALTruncatedRecords the
	// torn or checksum-failed records recovery truncated the log at
	// (everything after the first bad record is discarded rather than
	// refusing to start); CtrWALSnapshotsWritten the full-table snapshots
	// compaction has staged and committed; CtrWALSegmentsDeleted the
	// sealed segments deleted because a snapshot covers every record in
	// them. CtrServerEpochsRetired counts pinned-replay cache entries the
	// epoch-retention sweep aged out (their epochs now answer 410 Gone).
	CtrWALRecords          = "wal.records_appended"
	CtrWALReplayedRecords  = "wal.replayed_records"
	CtrWALTruncatedRecords = "wal.truncated_records"
	CtrWALSnapshotsWritten = "wal.snapshots_written"
	CtrWALSegmentsDeleted  = "wal.segments_deleted"
	CtrServerEpochsRetired = "server.epochs_retired"

	// SLO lifetime counters. CtrServerSLOBreachPrefix + endpoint class +
	// "." + objective name (e.g. "explore.p99") counts requests that
	// violated that latency objective over the process lifetime — the
	// monotonic series behind the windowed burn-rate gauges.
	// CtrServerSLOErrPrefix + endpoint class counts 5xx answers per class
	// (the availability objective's lifetime breach count).
	CtrServerSLOBreachPrefix = "server.slo_breaches."
	CtrServerSLOErrPrefix    = "server.slo_errors."
)

// Canonical gauge names.
const (
	// GaugeWorkers is the clamped worker count actually used by the miner.
	GaugeWorkers = "fpm.workers"
	// GaugeShards is the number of row shards of the engine data plane the
	// last mining run partitioned the dataset into.
	GaugeShards = "engine.shards"
	// GaugeMaxDepth is the FP-Growth conditional-recursion high-water mark
	// (equals the longest frequent itemset mined).
	GaugeMaxDepth = "fpm.max_depth"

	// Budget gauges mirror the mining run's configured Budget limits (set
	// only for dimensions with a limit) plus the heap high-water mark the
	// budget tracker observed; the explain profile derives consumption
	// fractions from them.
	GaugeBudgetMaxCandidates  = "fpm.budget.max_candidates"
	GaugeBudgetMaxItemsets    = "fpm.budget.max_itemsets"
	GaugeBudgetSoftDeadlineNS = "fpm.budget.soft_deadline_ns"
	GaugeBudgetMaxHeapBytes   = "fpm.budget.max_heap_bytes"
	GaugeBudgetHeapBytes      = "fpm.budget.heap_bytes"

	// Universe memory gauges, set by core from fpm.Universe.Memory():
	// per-item row-set representation counts (dense vectors vs compressed
	// bitmaps), the compressed container mix, and the byte footprint
	// against the all-dense equivalent. Deterministic for a given dataset
	// and item set.
	GaugeItemsDense         = "bitvec.items_dense"
	GaugeItemsCompressed    = "bitvec.items_compressed"
	GaugeContainersArray    = "bitvec.containers_array"
	GaugeContainersBitmap   = "bitvec.containers_bitmap"
	GaugeContainersRun      = "bitvec.containers_run"
	GaugeUniverseBytes      = "bitvec.universe_bytes"
	GaugeUniverseDenseBytes = "bitvec.universe_dense_bytes"

	// GaugeCacheHit is set on a per-request tracer by the server: 1 when
	// the universe cache satisfied the exploration, 0 on a miss. Absent on
	// CLI runs.
	GaugeCacheHit = "server.cache_hit"

	// GaugeServerInFlight is the number of explorations currently running;
	// GaugeServerInFlightMax its high-water mark; GaugeServerDatasets the
	// number of datasets loaded; GaugeServerCachedUniverses the number of
	// (dataset, statistic, criterion, st) universe-cache entries built.
	GaugeServerInFlight        = "server.in_flight"
	GaugeServerInFlightMax     = "server.in_flight_max"
	GaugeServerDatasets        = "server.datasets"
	GaugeServerCachedUniverses = "server.cached_universes"

	// GaugeServerEpochPrefix + dataset name is the dataset's current epoch
	// (1 at load, +1 per accepted append batch).
	GaugeServerEpochPrefix = "server.dataset_epoch."

	// GaugeWALActiveSegmentPrefix + dataset name is the sequence number of
	// the segment that dataset's appends currently land in;
	// GaugeWALSegmentsPrefix + name the number of live segment files
	// (sealed + active); GaugeWALSnapshotEpochPrefix + name the epoch of
	// the newest committed snapshot (0 before the first compaction).
	// Dynamic names, exported without HELP like the epoch gauges.
	GaugeWALActiveSegmentPrefix = "wal.active_segment."
	GaugeWALSegmentsPrefix      = "wal.segments."
	GaugeWALSnapshotEpochPrefix = "wal.snapshot_epoch."
)

// Canonical histogram names.
const (
	// HistRequestSeconds is the end-to-end /v1/explore latency in seconds,
	// observed once per exploration request (including rejected ones).
	HistRequestSeconds = "server.request_seconds"
	// HistCandidateBatch is the size distribution of candidate batches:
	// Apriori records the candidate count of each level, FP-Growth the
	// item count of each conditional universe.
	HistCandidateBatch = "fpm.candidate_batch"
	// HistItemsetSupport is the support-fraction distribution of the
	// frequent itemsets a mining run emitted.
	HistItemsetSupport = "fpm.itemset_support"
	// HistWALFsyncSeconds is the latency distribution of WAL fsyncs — one
	// observation per group commit, not per acknowledged append, so the
	// count against CtrWALRecords shows the fsync-batching ratio.
	HistWALFsyncSeconds = "wal.fsync_seconds"
)

// Default bucket bounds for the canonical histograms. Call sites pass
// these to Tracer.Histogram so the CLI, server and tests bucket
// identically.
var (
	// LatencyBuckets spans 1ms–65s in log-spaced steps (×2 per bucket).
	LatencyBuckets = ExpBuckets(0.001, 2, 17)
	// SizeBuckets spans 1–2^20 items (×4 per bucket).
	SizeBuckets = ExpBuckets(1, 4, 11)
	// SupportBuckets spans support fractions 0.001–1 (roughly ×2 steps).
	SupportBuckets = []float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1}
)

// MetricHelp maps sanitized Prometheus metric names to their HELP text;
// Trace.Families and the server's SLO families look every family up
// here. Only the stable serving-layer and mining metrics are registered
// — dynamic names (per-worker counters, per-endpoint request counts)
// export without HELP.
var MetricHelp = map[string]string{
	"server_request_seconds":                "End-to-end /v1/explore request latency in seconds.",
	"server_explores":                       "Explorations actually run to completion or error.",
	"server_http_errors":                    "Requests answered with a 4xx/5xx status.",
	"server_rejected_saturated":             "Explorations rejected with 429 at the in-flight limit.",
	"server_explores_cancelled":             "Explorations aborted by timeout or client disconnect.",
	"server_universe_cache_hits":            "Universe-cache lookups that skipped discretization.",
	"server_universe_cache_misses":          "Universe-cache lookups that built a new universe.",
	"server_universe_cache_evictions":       "Universe-cache entries evicted by the LRU capacity bound.",
	"server_universe_cache_stale_evictions": "Universe-cache evictions that picked a stale-epoch entry over the LRU tail.",
	"server_appends":                        "Accepted dataset append batches (each bumps its dataset's epoch).",
	"server_append_rows":                    "Rows appended across accepted batches.",
	"server_drift_remines":                  "Background drift re-mines triggered by epoch bumps.",
	"server_drift_events":                   "Subgroup divergence t-threshold crossings detected between epochs.",
	"server_epochs_retired":                 "Pinned-replay cache entries aged out by the epoch-retention sweep.",
	"wal_records_appended":                  "Records appended to the write-ahead log's active segment.",
	"wal_replayed_records":                  "WAL records applied during startup recovery.",
	"wal_truncated_records":                 "Torn or checksum-failed records recovery truncated the log at.",
	"wal_snapshots_written":                 "Full-table snapshots committed by WAL compaction.",
	"wal_segments_deleted":                  "Sealed WAL segments deleted because a snapshot covers them.",
	"wal_fsync_seconds":                     "WAL fsync latency; one observation per group commit.",
	"server_batch_statistics":               "Statistics computed across /v1/explore/batch requests.",
	"server_panics_recovered":               "Handler panics recovered by the middleware (answered 500, daemon alive).",
	"server_explorations_truncated":         "Explorations answered 200 with a budget-truncated report.",
	"engine_panics_recovered":               "Worker and miner panics recovered into errors.",
	"engine_shards":                         "Row shards of the engine data plane in the last mining run.",
	"server_in_flight":                      "Explorations currently running.",
	"server_in_flight_max":                  "High-water mark of concurrent explorations.",
	"server_datasets":                       "Datasets loaded at startup.",
	"server_cached_universes":               "Universe-cache entries currently built.",
	"fpm_candidate_batch":                   "Candidate-batch sizes: Apriori level widths and FP-Growth conditional universe sizes.",
	"fpm_itemset_support":                   "Support fraction of emitted frequent itemsets.",
	"fpm_candidates":                        "Itemset candidates whose support was evaluated.",
	"fpm_pruned_support":                    "Candidates discarded as infrequent.",
	"fpm_pruned_polarity":                   "Combinations skipped by polarity pruning.",
	"fpm_itemsets_emitted":                  "Frequent itemsets returned by the miner.",
	"fpm_budget_max_candidates":             "Configured candidate budget of the last mining run (0 = unlimited).",
	"fpm_budget_max_itemsets":               "Configured itemset budget of the last mining run (0 = unlimited).",
	"fpm_budget_soft_deadline_ns":           "Configured soft mining deadline in nanoseconds (0 = none).",
	"fpm_budget_max_heap_bytes":             "Configured heap budget of the last mining run (0 = unlimited).",
	"fpm_budget_heap_bytes":                 "Heap high-water mark observed by the mining budget tracker.",
	"engine_pool_hits":                      "Buffer acquisitions served from the run pool's recycled storage.",
	"engine_pool_misses":                    "Buffer acquisitions that allocated fresh storage.",
	"bitvec_items_dense":                    "Universe items kept as dense bit vectors.",
	"bitvec_items_compressed":               "Universe items stored as compressed bitmaps.",
	"bitvec_containers_array":               "Array containers across the universe's compressed bitmaps.",
	"bitvec_containers_bitmap":              "Bitmap containers across the universe's compressed bitmaps.",
	"bitvec_containers_run":                 "Run containers across the universe's compressed bitmaps.",
	"bitvec_universe_bytes":                 "Row-set payload bytes actually held by the universe.",
	"bitvec_universe_dense_bytes":           "Row-set payload bytes an all-dense universe would hold.",

	// Windowed serving-layer families, built by the server's SLO engine
	// for GET /metrics (labeled by endpoint class, and by objective and
	// window for the burn-rate families).
	"server_window_latency_seconds": "Latency quantiles over the trailing long window, by endpoint class.",
	"server_window_requests":        "Requests served over the trailing long window, by endpoint class.",
	"server_window_errors":          "5xx answers over the trailing long window, by endpoint class.",
	"server_window_rejected":        "429 rejections over the trailing long window, by endpoint class.",
	"server_slo_burn_rate":          "Error-budget burn rate per objective and window (1.0 consumes the budget exactly at the allowed rate).",
	"server_slo_budget_remaining":   "Unconsumed error-budget fraction over the long window, per objective.",
}
