package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	hdiv "repro"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/wal"
)

// durableConfig builds a WAL-enabled server config over the anomaly
// fixture.
func durableConfig(t *testing.T, walDir string) Config {
	t.Helper()
	return Config{
		Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}},
		WALDir:   walDir,
		WALSync:  wal.SyncAlways,
	}
}

// activeSegment returns the path of the dataset's highest-numbered WAL
// segment — the one a crash would tear.
func activeSegment(t *testing.T, walDir, dataset string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(walDir, dataset, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatalf("no WAL segments under %s/%s", walDir, dataset)
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}

// chopTail truncates the file by n bytes, simulating a crash that lost
// the unsynced tail of the log.
func chopTail(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size() - n
	if size < 0 {
		size = 0
	}
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

// TestDurableRestartRoundTrip is the core durability contract over the
// server surface: acknowledged appends survive a restart against the
// same WAL directory — same epoch, byte-identical explore output — and
// pinned replays of recent epochs keep answering because replay
// re-records every retained epoch's mark.
func TestDurableRestartRoundTrip(t *testing.T) {
	walDir := t.TempDir()
	s1 := newTestServer(t, durableConfig(t, walDir))
	for i := 0; i < 2; i++ {
		if rec := postAppend(t, s1, "anomaly", quietBatch(30, 600+30*i)); rec.Code != 200 {
			t.Fatalf("append %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1, Format: "csv"}
	before := postExplore(t, s1, req)
	if before.Code != 200 {
		t.Fatalf("explore before restart: %d %s", before.Code, before.Body.String())
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, durableConfig(t, walDir))
	t.Cleanup(func() { s2.Close() })
	if epoch, rows := datasetEpoch(t, s2, "anomaly"); epoch != 3 || rows != 660 {
		t.Fatalf("recovered state: epoch %d rows %d, want 3/660", epoch, rows)
	}
	after := postExplore(t, s2, req)
	if after.Code != 200 {
		t.Fatalf("explore after restart: %d %s", after.Code, after.Body.String())
	}
	if !bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Errorf("explore diverged across restart:\nbefore:\n%s\nafter:\n%s", before.Body.Bytes(), after.Body.Bytes())
	}

	// Pinned replay survives the restart: epoch 2's universe was never
	// built on s2, but its frozen table was reconstructed during replay.
	pinned := req
	pinned.Epoch = 2
	repin := postExplore(t, s2, pinned)
	if repin.Code != 200 {
		t.Fatalf("pinned epoch 2 after restart: %d %s", repin.Code, repin.Body.String())
	}
	if got := repin.Header().Get("X-Dataset-Epoch"); got != "2" {
		t.Errorf("pinned replay epoch header = %q, want 2", got)
	}

	// And the log keeps accepting appends where it left off.
	if rec := postAppend(t, s2, "anomaly", quietBatch(10, 660)); rec.Code != 200 {
		t.Fatalf("append after restart: %d %s", rec.Code, rec.Body.String())
	}
	if epoch, rows := datasetEpoch(t, s2, "anomaly"); epoch != 4 || rows != 670 {
		t.Errorf("post-recovery append: epoch %d rows %d, want 4/670", epoch, rows)
	}
}

// TestRecoveryTruncatesCorruptTail flips a byte in the log's tail and
// checks startup never refuses: the corrupt record is truncated and
// counted, the prefix before it is served.
func TestRecoveryTruncatesCorruptTail(t *testing.T) {
	walDir := t.TempDir()
	s1 := newTestServer(t, durableConfig(t, walDir))
	for i := 0; i < 3; i++ {
		if rec := postAppend(t, s1, "anomaly", quietBatch(20, 600+20*i)); rec.Code != 200 {
			t.Fatalf("append %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// Chop into the last record: a torn tail, not a clean record boundary.
	chopTail(t, activeSegment(t, walDir, "anomaly"), 7)

	s2 := newTestServer(t, durableConfig(t, walDir))
	t.Cleanup(func() { s2.Close() })
	if epoch, rows := datasetEpoch(t, s2, "anomaly"); epoch != 3 || rows != 640 {
		t.Errorf("recovered prefix: epoch %d rows %d, want 3/640 (last record torn)", epoch, rows)
	}
	if got := s2.tracer.Snapshot().Counter(obs.CtrWALTruncatedRecords); got != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrWALTruncatedRecords, got)
	}
	// The parked write offset accepts new appends cleanly.
	if rec := postAppend(t, s2, "anomaly", quietBatch(5, 640)); rec.Code != 200 {
		t.Fatalf("append after truncation: %d %s", rec.Code, rec.Body.String())
	}
}

// TestRetentionAgainstPinnedReplay pins the -epoch-retain contract with
// durability on: epochs inside the window answer pinned requests even
// when their universe was never built (rebuilt by SnapshotAt), epochs
// aged out answer 410 Gone.
func TestRetentionAgainstPinnedReplay(t *testing.T) {
	cfg := durableConfig(t, t.TempDir())
	cfg.EpochRetain = 2
	s := newTestServer(t, cfg)
	t.Cleanup(func() { s.Close() })
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1, Format: "csv"}
	// Build the epoch-1 universe so the sweep has a cache entry to retire.
	if rec := postExplore(t, s, req); rec.Code != 200 {
		t.Fatalf("warm explore: %d", rec.Code)
	}
	for i := 0; i < 5; i++ { // epoch 1 -> 6
		if rec := postAppend(t, s, "anomaly", quietBatch(10, 600+10*i)); rec.Code != 200 {
			t.Fatalf("append %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}

	// Epoch 5 is inside the retention window (floor = 6-2 = 4) and was
	// never explored — SnapshotAt rebuilds it.
	recent := req
	recent.Epoch = 5
	if rec := postExplore(t, s, recent); rec.Code != 200 {
		t.Errorf("pinned epoch 5 (retained): %d %s, want 200", rec.Code, rec.Body.String())
	}
	// Epoch 3 aged out: 410, agreeing with the log's compaction horizon.
	old := req
	old.Epoch = 3
	if rec := postExplore(t, s, old); rec.Code != http.StatusGone {
		t.Errorf("pinned epoch 3 (retired): %d, want 410", rec.Code)
	}
	if got := s.tracer.Snapshot().Counter(obs.CtrServerEpochsRetired); got < 1 {
		t.Errorf("%s = %d, want >= 1", obs.CtrServerEpochsRetired, got)
	}
}

// TestFaultAppendSyncRefusesAck errors the wal.append_sync failpoint:
// the append answers 500 "append not durable" instead of acking a batch
// whose durability is unknown, and clears back to 200 when the fault
// lifts.
func TestFaultAppendSyncRefusesAck(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := newTestServer(t, durableConfig(t, t.TempDir()))
	t.Cleanup(func() { s.Close() })

	if err := faultinject.Arm(faultinject.SiteWALAppendSync, "error(injected sync fault)@1"); err != nil {
		t.Fatal(err)
	}
	rec := postAppend(t, s, "anomaly", quietBatch(10, 600))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("faulted append: %d %s, want 500", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "append not durable") {
		t.Errorf("500 body = %q, want 'append not durable'", rec.Body.String())
	}
	// The fault fired once; the next append commits (covering the earlier
	// buffered record) and acks.
	if rec := postAppend(t, s, "anomaly", quietBatch(10, 610)); rec.Code != 200 {
		t.Fatalf("append after fault cleared: %d %s", rec.Code, rec.Body.String())
	}
}

// TestFaultSnapshotWriteKeepsOldAuthoritative errors the
// server.snapshot_write failpoint during compaction: the staged file is
// discarded, no snapshot appears, and a retry with the fault cleared
// writes one.
func TestFaultSnapshotWriteKeepsOldAuthoritative(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	walDir := t.TempDir()
	s := newTestServer(t, durableConfig(t, walDir))
	t.Cleanup(func() { s.Close() })
	if rec := postAppend(t, s, "anomaly", quietBatch(10, 600)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}

	snaps := func() []string {
		m, _ := filepath.Glob(filepath.Join(walDir, "anomaly", "snapshot-*.snap"))
		return m
	}
	if err := faultinject.Arm(faultinject.SiteSnapshotWrite, "error(injected snapshot fault)"); err != nil {
		t.Fatal(err)
	}
	s.compact("anomaly")
	if got := snaps(); len(got) != 0 {
		t.Fatalf("faulted compaction left snapshots: %v", got)
	}
	faultinject.Reset()
	s.compact("anomaly")
	if got := snaps(); len(got) != 1 {
		t.Fatalf("compaction after reset wrote %d snapshots, want 1", len(got))
	}
	if got := s.tracer.Snapshot().Counter(obs.CtrWALSnapshotsWritten); got != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrWALSnapshotsWritten, got)
	}
}

// TestSnapshotCompactionRecovery proves recovery through a snapshot: a
// server that compacted restarts from the snapshot plus the WAL suffix,
// byte-identical to the pre-restart state. EpochRetain 1 keeps only the
// current epoch, so the snapshot lands on epoch 2 rather than epoch 1.
func TestSnapshotCompactionRecovery(t *testing.T) {
	walDir := t.TempDir()
	cfg := durableConfig(t, walDir)
	cfg.EpochRetain = 1
	s1 := newTestServer(t, cfg)
	if rec := postAppend(t, s1, "anomaly", quietBatch(25, 600)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	s1.compact("anomaly") // snapshot at epoch 2, covered segments deleted
	if rec := postAppend(t, s1, "anomaly", quietBatch(25, 625)); rec.Code != 200 {
		t.Fatalf("append past snapshot: %d %s", rec.Code, rec.Body.String())
	}
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1, Format: "csv"}
	before := postExplore(t, s1, req)
	if before.Code != 200 {
		t.Fatalf("explore: %d", before.Code)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	t.Cleanup(func() { s2.Close() })
	if epoch, rows := datasetEpoch(t, s2, "anomaly"); epoch != 3 || rows != 650 {
		t.Fatalf("recovered from snapshot: epoch %d rows %d, want 3/650", epoch, rows)
	}
	after := postExplore(t, s2, req)
	if !bytes.Equal(before.Body.Bytes(), after.Body.Bytes()) {
		t.Errorf("snapshot-based recovery diverged:\nbefore:\n%s\nafter:\n%s", before.Body.Bytes(), after.Body.Bytes())
	}
}

// TestCompactionKeepsRetainedEpochs pins the compaction floor: a snapshot
// taken while epochs below the current one are still retained must not
// cost them after a restart. Compaction snapshots the oldest retained
// epoch, so replay rebuilds every epoch inside the window.
func TestCompactionKeepsRetainedEpochs(t *testing.T) {
	walDir := t.TempDir()
	s1 := newTestServer(t, durableConfig(t, walDir))
	for i := 0; i < 3; i++ { // epoch 1 -> 4
		if rec := postAppend(t, s1, "anomaly", quietBatch(10, 600+10*i)); rec.Code != 200 {
			t.Fatalf("append %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	s1.compact("anomaly")
	if rec := postAppend(t, s1, "anomaly", quietBatch(10, 630)); rec.Code != 200 { // epoch 5
		t.Fatalf("append past compaction: %d %s", rec.Code, rec.Body.String())
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, durableConfig(t, walDir))
	t.Cleanup(func() { s2.Close() })
	if epoch, rows := datasetEpoch(t, s2, "anomaly"); epoch != 5 || rows != 640 {
		t.Fatalf("recovered state: epoch %d rows %d, want 5/640", epoch, rows)
	}
	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1, Format: "csv", Epoch: 3}
	if rec := postExplore(t, s2, req); rec.Code != 200 {
		t.Fatalf("pinned epoch 3 after compaction and restart: %d %s, want 200", rec.Code, rec.Body.String())
	}
}

// TestCrashRecoveryProperty is the crash-recovery equivalence property:
// a server killed at an arbitrary point in a seeded append workload —
// including mid-append, via the wal.append_sync failpoint — recovers to
// some acknowledged prefix of the workload, and its ranked CSV and
// deterministic explain output are byte-identical to a from-scratch
// server fed that same prefix over HTTP, across worker settings.
func TestCrashRecoveryProperty(t *testing.T) {
	const k = 6
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			rng := rand.New(rand.NewSource(seed))
			walDir := t.TempDir()
			s1 := newTestServer(t, durableConfig(t, walDir))

			// The seeded workload: every batch's content is a pure function
			// of the seed, so the comparison server can replay any prefix.
			batches := make([]string, k)
			off := 600
			for i := range batches {
				n := 10 + rng.Intn(30)
				batches[i] = quietBatch(n, off)
				off += n
			}
			midAppend := rng.Intn(2) == 0
			crashIdx := rng.Intn(k) // batch the crash interrupts
			acked := 0
			for i, b := range batches {
				if midAppend && i == crashIdx {
					// The sync fault models power loss inside the commit: the
					// record may be in the file but was never fsynced, and the
					// client got no ack.
					if err := faultinject.Arm(faultinject.SiteWALAppendSync, "error(crash)"); err != nil {
						t.Fatal(err)
					}
					if rec := postAppend(t, s1, "anomaly", b); rec.Code != http.StatusInternalServerError {
						t.Fatalf("mid-append crash: %d, want 500", rec.Code)
					}
					faultinject.Reset()
					break
				}
				if rec := postAppend(t, s1, "anomaly", b); rec.Code != 200 {
					t.Fatalf("append %d: %d %s", i, rec.Code, rec.Body.String())
				}
				acked++
				if !midAppend && i == crashIdx {
					break
				}
			}
			// Hard stop: abandon s1 without Close (no final fsync) and tear
			// the unsynced tail off the active segment, as a real crash may.
			if midAppend {
				// Only the unacked record is unsynced; chop into it.
				chopTail(t, activeSegment(t, walDir, "anomaly"), 1+int64(rng.Intn(12)))
			} else if rng.Intn(2) == 0 {
				chopTail(t, activeSegment(t, walDir, "anomaly"), int64(rng.Intn(64)))
			}

			s2 := newTestServer(t, durableConfig(t, walDir))
			t.Cleanup(func() { s2.Close() })
			epoch, _ := datasetEpoch(t, s2, "anomaly")
			replayed := int(epoch - 1)
			if replayed > acked {
				t.Fatalf("recovered %d batches but only %d were acked", replayed, acked)
			}
			if midAppend && replayed != acked {
				t.Fatalf("recovered %d batches, want the full acked prefix %d (only the unacked tail was torn)", replayed, acked)
			}

			// From-scratch reference: same base table, the recovered prefix
			// fed through the HTTP append path.
			ref := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "anomaly", Table: anomalyTable(t)}}})
			for i := 0; i < replayed; i++ {
				if rec := postAppend(t, ref, "anomaly", batches[i]); rec.Code != 200 {
					t.Fatalf("reference append %d: %d %s", i, rec.Code, rec.Body.String())
				}
			}
			for _, workers := range []int{0, 4} {
				req := ExploreRequest{
					Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p",
					S: 0.05, ST: 0.1, Format: "csv", Workers: workers,
				}
				got := postExplore(t, s2, req)
				want := postExplore(t, ref, req)
				if got.Code != 200 || want.Code != 200 {
					t.Fatalf("w%d: recovered %d, reference %d", workers, got.Code, want.Code)
				}
				if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Errorf("w%d: recovered CSV differs from reference:\nrecovered:\n%s\nreference:\n%s",
						workers, got.Body.Bytes(), want.Body.Bytes())
				}
				exReq := req
				exReq.Format = ""
				exReq.Explain = true
				ge := deterministicExplain(t, postExplore(t, s2, exReq))
				fe := deterministicExplain(t, postExplore(t, ref, exReq))
				if !reflect.DeepEqual(ge, fe) {
					gj, _ := json.Marshal(ge)
					fj, _ := json.Marshal(fe)
					t.Errorf("w%d: deterministic explain differs:\nrecovered: %s\nreference: %s",
						workers, gj, fj)
				}
			}
		})
	}
}

// TestDriftRearmsAfterReplay checks the drift monitor satellite: a
// baseline persisted before the crash re-arms the debounce timer at
// startup when WAL replay advances the epoch past it, so the post-crash
// epochs get a background re-mine without waiting for new traffic.
func TestDriftRearmsAfterReplay(t *testing.T) {
	walDir := t.TempDir()
	cfg := durableConfig(t, walDir)
	cfg.DriftDebounce = 50 * time.Millisecond
	s1 := newTestServer(t, cfg)
	// Establish a watch at epoch 1 (noteExplore persists the baseline).
	if rec := postExplore(t, s1, ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1}); rec.Code != 200 {
		t.Fatalf("baseline explore: %d", rec.Code)
	}
	if rec := postAppend(t, s1, "anomaly", quietBatch(20, 600)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	// Wait for the baseline to advance to epoch 2 so drift.json holds it.
	awaitDrift(t, s1, "anomaly", func(r driftReply) bool { return r.BaselineEpoch == 2 })
	// Another append whose re-mine the "crash" preempts: the persisted
	// baseline stays at 2 while the WAL holds epoch 3.
	if rec := postAppend(t, s1, "anomaly", quietBatch(20, 620)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	s1.drift.mu.Lock()
	if tm := s1.drift.watches["anomaly"]; tm != nil && tm.timer != nil {
		tm.timer.Stop() // preempt the pending re-mine: the crash wins
	}
	s1.drift.mu.Unlock()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	t.Cleanup(func() { s2.Close() })
	// restore() saw recovered epoch 3 > persisted baseline 2 and re-armed
	// the debounce; the background re-mine advances the baseline with no
	// new traffic at all.
	got := awaitDrift(t, s2, "anomaly", func(r driftReply) bool { return r.BaselineEpoch == 3 })
	if !got.Watching || got.BaselineEpoch != 3 {
		t.Errorf("drift after replay: watching=%v baseline=%d, want true/3", got.Watching, got.BaselineEpoch)
	}
}

// TestDriftBatchBaselineRearmsAfterReplay is TestDriftRearmsAfterReplay
// with a watch set by a batch whose numeric statistic adds a label
// column, the target. The watch persists the statistic list, so both
// re-mines, before the crash and after the replay, run over the batch's
// universe: no subgroup of the watch's base, mined as a re-mine mines
// it, and no drift event ever has an item on the target.
func TestDriftBatchBaselineRearmsAfterReplay(t *testing.T) {
	cfg := Config{
		Datasets:      []DatasetConfig{{Name: "d", Table: targetTable(t)}},
		WALDir:        t.TempDir(),
		WALSync:       wal.SyncAlways,
		DriftDebounce: 50 * time.Millisecond,
	}
	rows := func(n, offset int) string {
		var out []string
		for i := offset; i < offset+n; i++ {
			y := strconv.FormatBool(i%2 == 0)
			out = append(out, fmt.Sprintf(`[%d,%d,%q,%q]`, i%100, 20+i%37, y, y))
		}
		return `{"columns":["x","income","y","p"],"rows":[` + strings.Join(out, ",") + `]}`
	}
	noTarget := func(s *Server, when string) {
		t.Helper()
		s.drift.mu.Lock()
		w := s.drift.watches["d"]
		base, events := w.params, slices.Clone(w.events)
		s.drift.mu.Unlock()
		baseline, err := s.drift.snapshot(context.Background(), &base)
		if err != nil {
			t.Fatalf("%s: mining the base: %v", when, err)
		}
		if len(baseline) == 0 {
			t.Fatalf("%s: empty baseline", when)
		}
		for label := range baseline {
			if strings.Contains(label, "income") {
				t.Errorf("%s: baseline subgroup %q has an item on the target", when, label)
			}
		}
		for _, ev := range events {
			if strings.Contains(ev.Subgroup, "income") {
				t.Errorf("%s: drift event on %q has an item on the target", when, ev.Subgroup)
			}
		}
	}

	s1 := newTestServer(t, cfg)
	if rec := postBatch(t, s1, BatchExploreRequest{
		ExploreRequest: ExploreRequest{Dataset: "d", Actual: "y", Predicted: "p", Target: "income", S: 0.05, ST: 0.1},
		Stats:          []string{"error", "numeric"},
	}); rec.Code != 200 {
		t.Fatalf("baseline batch: %d %s", rec.Code, rec.Body.String())
	}
	if rec := postAppend(t, s1, "d", rows(40, 600)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	awaitDrift(t, s1, "d", func(r driftReply) bool { return r.BaselineEpoch == 2 })
	noTarget(s1, "re-mine before the crash")
	if rec := postAppend(t, s1, "d", rows(40, 640)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	s1.drift.mu.Lock()
	if tm := s1.drift.watches["d"]; tm != nil && tm.timer != nil {
		tm.timer.Stop() // preempt the pending re-mine: the crash wins
	}
	s1.drift.mu.Unlock()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, cfg)
	t.Cleanup(func() { s2.Close() })
	got := awaitDrift(t, s2, "d", func(r driftReply) bool { return r.BaselineEpoch == 3 })
	if !got.Watching || got.Stat != "error" || got.LastError != "" {
		t.Errorf("drift after replay: watching=%v stat=%q last_error=%q, want true/error/none", got.Watching, got.Stat, got.LastError)
	}
	noTarget(s2, "re-mine after the replay")
}

// TestDurableDriftStateSkipsUnchangedWrite pins when drift.json is
// written: an explore that repeats the watched request at the watched
// base epoch leaves the file alone, while a changed request or a moved
// base rewrites it.
func TestDurableDriftStateSkipsUnchangedWrite(t *testing.T) {
	cfg := durableConfig(t, t.TempDir())
	cfg.DriftDebounce = time.Hour // no re-mine moves the base behind the test's back
	s := newTestServer(t, cfg)
	t.Cleanup(func() { s.Close() })
	path := filepath.Join(cfg.WALDir, "anomaly", "drift.json")
	sentinel := []byte("sentinel")
	explore := func(label string, req ExploreRequest) {
		t.Helper()
		if rec := postExplore(t, s, req); rec.Code != 200 {
			t.Fatalf("%s: %d %s", label, rec.Code, rec.Body.String())
		}
	}
	state := func() driftState {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var st driftState
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("drift.json = %q: %v", raw, err)
		}
		return st
	}
	overwrite := func() {
		t.Helper()
		if err := os.WriteFile(path, sentinel, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	req := ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1}
	explore("first explore", req)
	if st := state(); st.Request.S != 0.05 || st.BaseEpoch != 1 {
		t.Fatalf("first explore persisted %+v", st)
	}
	overwrite()
	explore("identical explore", req)
	if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, sentinel) {
		t.Fatalf("an identical explore rewrote drift.json: %q, %v", raw, err)
	}

	changed := req
	changed.S = 0.1
	explore("changed request", changed)
	if st := state(); st.Request.S != 0.1 || st.BaseEpoch != 1 {
		t.Fatalf("a changed request persisted %+v, want s 0.1 at base epoch 1", st)
	}

	overwrite()
	if rec := postAppend(t, s, "anomaly", quietBatch(20, 600)); rec.Code != 200 {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	explore("explore at the appended epoch", changed)
	if st := state(); st.Request.S != 0.1 || st.BaseEpoch != 2 {
		t.Fatalf("a moved base persisted %+v, want s 0.1 at base epoch 2", st)
	}
}

// TestDriftRearmsPastRetentionAtCurrentEpoch restarts a watch whose base
// epoch the replay leaves outside the retention window: the base can no
// longer be mined, so the watch comes back at the current epoch without
// a re-mine, and the next append re-mines from there. The state file
// also carries the "baseline" field older builds wrote, which loads and
// is ignored.
func TestDriftRearmsPastRetentionAtCurrentEpoch(t *testing.T) {
	cfg := durableConfig(t, t.TempDir())
	cfg.EpochRetain = 2
	cfg.DriftDebounce = time.Hour // the crash preempts every re-mine
	s1 := newTestServer(t, cfg)
	if rec := postExplore(t, s1, ExploreRequest{Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p", S: 0.05, ST: 0.1}); rec.Code != 200 {
		t.Fatalf("baseline explore: %d", rec.Code)
	}
	for i := 0; i < 3; i++ {
		if rec := postAppend(t, s1, "anomaly", quietBatch(20, 600+20*i)); rec.Code != 200 {
			t.Fatalf("append %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	s1.drift.mu.Lock()
	s1.drift.watches["anomaly"].timer.Stop()
	s1.drift.mu.Unlock()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cfg.WALDir, "anomaly", "drift.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]any
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st) != 3 || st["base_epoch"] != 1.0 {
		t.Fatalf("drift.json = %s, want request, stats and base_epoch 1", raw)
	}
	st["baseline"] = map[string]subgroupSnap{"x>80": {Support: 0.19, Divergence: 0.81, T: 50}}
	if raw, err = json.Marshal(st); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.DriftDebounce = time.Millisecond
	s2 := newTestServer(t, cfg)
	t.Cleanup(func() { s2.Close() })
	s2.drift.mu.Lock()
	armed := s2.drift.watches["anomaly"].timer != nil
	s2.drift.mu.Unlock()
	if armed {
		t.Error("restore re-armed a watch whose base epoch is past the retention window")
	}
	got := awaitDrift(t, s2, "anomaly", func(r driftReply) bool { return r.Watching })
	if got.BaselineEpoch != 4 || got.Epoch != 4 {
		t.Errorf("drift after replay: baseline %d at epoch %d, want 4/4", got.BaselineEpoch, got.Epoch)
	}
	if rec := postAppend(t, s2, "anomaly", quietBatch(20, 660)); rec.Code != 200 {
		t.Fatalf("append after restart: %d %s", rec.Code, rec.Body.String())
	}
	got = awaitDrift(t, s2, "anomaly", func(r driftReply) bool { return r.BaselineEpoch == 5 })
	if got.LastError != "" {
		t.Errorf("re-mine after restart: last_error %q", got.LastError)
	}
	if n := s2.tracer.Snapshot().Counter(obs.CtrServerPanics); n != 0 {
		t.Errorf("%d panics after the restart", n)
	}
}

// exactRows is the test-side copy of every row a TestRecoveryExactEpochs
// dataset ever held, from which any epoch's table is rebuilt
// independently of the server.
type exactRows struct {
	x, z    []float64
	c, y, p []string
}

// add generates n rows around the moving centre mu: NaN cells in both
// continuous columns, integer x values (ties across batches), and
// predictions wrong mostly above mu. newLevel, when non-empty, is a
// categorical level some of the rows carry.
func (r *exactRows) add(rng *rand.Rand, n int, mu float64, newLevel string) {
	levels := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		x := math.Round(mu + rng.NormFloat64()*15)
		if rng.Intn(20) == 0 {
			x = math.NaN()
		}
		z := float64(rng.Intn(60)) / 4
		if rng.Intn(25) == 0 {
			z = math.NaN()
		}
		c := levels[rng.Intn(len(levels))]
		if newLevel != "" && rng.Intn(4) == 0 {
			c = newLevel
		}
		y := rng.Intn(2) == 0
		p := y
		if (x > mu && rng.Intn(3) > 0) || rng.Intn(8) == 0 {
			p = !y
		}
		r.x, r.z, r.c = append(r.x, x), append(r.z, z), append(r.c, c)
		r.y, r.p = append(r.y, strconv.FormatBool(y)), append(r.p, strconv.FormatBool(p))
	}
}

// table builds a fresh table of the first n rows.
func (r *exactRows) table(n int) *hdiv.Table {
	return hdiv.NewTableBuilder().
		AddFloat("x", append([]float64(nil), r.x[:n]...)).
		AddFloat("z", append([]float64(nil), r.z[:n]...)).
		AddCategorical("c", r.c[:n]).
		AddCategorical("y", r.y[:n]).
		AddCategorical("p", r.p[:n]).
		MustBuild()
}

// body renders rows [lo, hi) as an append request body.
func (r *exactRows) body(t *testing.T, lo, hi int) string {
	t.Helper()
	num := func(v float64) any {
		if math.IsNaN(v) {
			return nil
		}
		return v
	}
	rows := make([][]any, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, []any{num(r.x[i]), num(r.z[i]), r.c[i], r.y[i], r.p[i]})
	}
	raw, err := json.Marshal(map[string]any{"columns": []string{"x", "z", "c", "y", "p"}, "rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestRecoveryExactEpochs is the exactness property of the epoch build:
// an epoch's replies depend on its rows alone, not on which earlier
// epochs the cache held when it was built. Random appends move the
// distribution (and so the cutpoints), carry NaN cells and now and then
// a new categorical level; the cache holds 1–4 entries; random retained
// epochs are pinned; and the server is killed and restarted on its WAL
// part-way. Every reply — ranked CSV and the deterministic explain
// profile — must equal that of a fresh server loaded with the epoch's
// rows.
func TestRecoveryExactEpochs(t *testing.T) {
	shapes := []ExploreRequest{
		{Stat: "error", Actual: "y", Predicted: "p", ST: 0.1},
		{Stat: "fpr", Actual: "y", Predicted: "p", ST: 0.15},
		{Stat: "error", Actual: "y", Predicted: "p", ST: 0.1, Criterion: "entropy", Mode: "base"},
	}
	const appends = 8
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var rows exactRows
			mu := 50.0
			rows.add(rng, 300, mu, "")
			cfg := Config{
				Datasets: []DatasetConfig{{Name: "d", Table: rows.table(300)}},
				CacheMax: 1 + rng.Intn(4),
				DriftT:   -1,
				WALDir:   t.TempDir(),
				WALSync:  wal.SyncAlways,
			}
			s := newTestServer(t, cfg)
			sizes := []int{300} // sizes[e-1] = rows at epoch e
			restartAt := 1 + rng.Intn(appends-2)
			check := func(epoch uint64, shape ExploreRequest, pinned bool) {
				t.Helper()
				req := shape
				req.Dataset, req.S, req.Format = "d", 0.05, "csv"
				if pinned {
					req.Epoch = epoch
				}
				exReq := req
				exReq.Format, exReq.Explain = "", true
				got := postExplore(t, s, req)
				ge := deterministicExplain(t, postExplore(t, s, exReq))
				// The entry the CSV request built or touched, pinned or not,
				// is never the victim of its own insertion: the explain
				// request hits it, as it does on the fresh server.
				if !ge.Cache.Hit {
					t.Errorf("epoch %d (pinned %v) %+v: explain request missed the entry the CSV request left", epoch, pinned, shape)
				}
				fresh := newTestServer(t, Config{Datasets: []DatasetConfig{{Name: "d", Table: rows.table(sizes[epoch-1])}}, DriftT: -1})
				req.Epoch, exReq.Epoch = 0, 0
				want := postExplore(t, fresh, req)
				fe := deterministicExplain(t, postExplore(t, fresh, exReq))
				if got.Code != 200 || want.Code != 200 {
					t.Fatalf("epoch %d %+v: server %d %s, fresh %d %s", epoch, shape, got.Code, got.Body.String(), want.Code, want.Body.String())
				}
				if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Errorf("epoch %d (pinned %v) %+v: CSV differs from a fresh server on the epoch's rows:\ngot:\n%s\nfresh:\n%s",
						epoch, pinned, shape, got.Body.Bytes(), want.Body.Bytes())
				}
				if !reflect.DeepEqual(ge, fe) {
					gj, _ := json.Marshal(ge)
					fj, _ := json.Marshal(fe)
					t.Errorf("epoch %d (pinned %v) %+v: deterministic explain differs:\ngot:   %s\nfresh: %s", epoch, pinned, shape, gj, fj)
				}
			}
			check(1, shapes[0], false)
			for i := 0; i < appends; i++ {
				if i == restartAt {
					// A kill: the old server is abandoned without Close and a
					// new one recovers from the WAL with an empty cache.
					s = newTestServer(t, cfg)
				}
				mu += rng.Float64()*12 - 4
				level := ""
				if rng.Intn(4) == 0 {
					level = fmt.Sprintf("new%d", i)
				}
				lo := len(rows.x)
				rows.add(rng, 20+rng.Intn(60), mu, level)
				if rec := postAppend(t, s, "d", rows.body(t, lo, len(rows.x))); rec.Code != 200 {
					t.Fatalf("append %d: %d %s", i, rec.Code, rec.Body.String())
				}
				sizes = append(sizes, len(rows.x))
				epoch := uint64(len(sizes))
				check(epoch, shapes[rng.Intn(len(shapes))], false)
				for k := 0; k < 2; k++ {
					back := uint64(rng.Intn(min(len(sizes), dataset.DefaultRetain)))
					check(epoch-back, shapes[rng.Intn(len(shapes))], true)
				}
			}
		})
	}
}
