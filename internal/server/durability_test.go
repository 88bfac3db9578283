package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

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
// server fed that same prefix over HTTP, across worker/shard settings.
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
			for _, grid := range []struct{ workers, shards int }{{0, 0}, {4, 0}, {0, 3}, {4, 3}} {
				req := ExploreRequest{
					Dataset: "anomaly", Stat: "error", Actual: "y", Predicted: "p",
					S: 0.05, ST: 0.1, Format: "csv",
					Workers: grid.workers, Shards: grid.shards,
				}
				got := postExplore(t, s2, req)
				want := postExplore(t, ref, req)
				if got.Code != 200 || want.Code != 200 {
					t.Fatalf("w%d_s%d: recovered %d, reference %d", grid.workers, grid.shards, got.Code, want.Code)
				}
				if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
					t.Errorf("w%d_s%d: recovered CSV differs from reference:\nrecovered:\n%s\nreference:\n%s",
						grid.workers, grid.shards, got.Body.Bytes(), want.Body.Bytes())
				}
				exReq := req
				exReq.Format = ""
				exReq.Explain = true
				ge := deterministicExplain(t, postExplore(t, s2, exReq))
				fe := deterministicExplain(t, postExplore(t, ref, exReq))
				if !reflect.DeepEqual(ge, fe) {
					gj, _ := json.Marshal(ge)
					fj, _ := json.Marshal(fe)
					t.Errorf("w%d_s%d: deterministic explain differs:\nrecovered: %s\nreference: %s",
						grid.workers, grid.shards, gj, fj)
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
