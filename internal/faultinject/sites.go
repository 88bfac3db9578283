package faultinject

// Canonical failpoint sites planted across the pipeline. DESIGN.md
// §Failure containment documents what each site covers and what the
// fault-injection suite pins about it.
const (
	// SiteCSVLoad fires at the start of dataset.ReadCSV, before any bytes
	// are parsed — a failing or stalling dataset source.
	SiteCSVLoad = "dataset.read_csv"
	// SiteDiscretizeTree fires once per continuous attribute inside
	// discretize.Tree, before the attribute's hierarchy is grown.
	SiteDiscretizeTree = "discretize.tree"
	// SiteCandidateBatch fires once per candidate batch in both miners:
	// each Apriori level and each FP-Growth conditional universe (the
	// hBatch observation sites).
	SiteCandidateBatch = "fpm.candidate_batch"
	// SiteCacheFill fires inside the server's universe-cache build
	// function, while singleflight waiters block on the entry.
	SiteCacheFill = "server.cache_fill"
	// SiteAppendParse fires in the append handler after the body is read
	// but before the batch is applied — a malformed or truncated batch.
	// Appends are atomic: a fault here must leave the epoch unchanged.
	SiteAppendParse = "server.append_parse"
	// SiteDriftRemine fires inside the drift monitor's background re-mine,
	// exercising the panic isolation around the per-dataset watcher.
	SiteDriftRemine = "server.drift_remine"
	// SiteWALAppendSync fires in the write-ahead log's append path after
	// the record bytes are buffered but before the sync policy is
	// satisfied — an fsync that never completes. Acknowledge-after-durable
	// demands a fault here answers 5xx without acking the batch: replay
	// must be able to reproduce every 200.
	SiteWALAppendSync = "wal.append_sync"
	// SiteWALSegmentRotate fires when the active WAL segment reaches its
	// size bound, before the next segment file is created — rotation
	// failing must fail the triggering append, not corrupt the log.
	SiteWALSegmentRotate = "wal.segment_rotate"
	// SiteWALReplayRecord fires once per record during startup replay,
	// after the checksum verified but before the batch is applied — a
	// poisoned record surfacing mid-recovery.
	SiteWALReplayRecord = "wal.replay_record"
	// SiteSnapshotWrite fires inside the server's WAL compaction while the
	// full-table snapshot is being staged; a fault here must leave the
	// previous snapshot authoritative and every segment in place.
	SiteSnapshotWrite = "server.snapshot_write"
)
