#!/usr/bin/env bash
# Daemon smoke test: start hdivexplorerd with a generated dataset, run one
# exploration under a known correlation ID, then verify the observability
# surface end to end — /metrics histograms (classic and OpenMetrics with
# the runtime families), /v1/progress/{id} (its final candidate count must
# equal the explain profile's mining count), the Chrome-trace export
# (structurally validated by checktrace -chrome), the explain profile at
# /v1/explain/{id}, the request log at /v1/debug/requests (a malformed
# explore must show there as rejected and stay off /v1/progress), the SLO
# surface (/v1/slo and the windowed burn-rate and error-budget families on
# /metrics), the debug listener (pprof + expvar) and the structured request
# log; it checks that re-queries served from a view's kept root FP-tree
# reply byte for byte what a build replies — then walks the live-dataset
# lifecycle: append rows over HTTP,
# watch the epoch gauge advance, wait for the drift monitor's background
# re-mine, and replay an epoch-pinned exploration byte for byte. The
# daemon runs with -wal-dir, so the script ends with the durability
# leg: SIGKILL the process mid-flight, restart it against the same WAL
# directory, and assert the epoch gauge and the pinned replays of epoch 1
# and of epoch 2 (the current epoch before the kill) survive the crash
# byte for byte. Any unexpected status or empty body fails the script.
#
# Usage: scripts/daemon_smoke.sh [workdir]    (default .smoke-daemon)
# The workdir is left in place so CI can upload the trace as an artifact.
set -euo pipefail

DIR=${1:-.smoke-daemon}
PORT=${PORT:-18080}
DEBUG_PORT=${DEBUG_PORT:-18081}
ID=smoke-req-1
BAD_ID=smoke-bad-1

rm -rf "$DIR" && mkdir -p "$DIR"
go run ./cmd/mkdata -dataset compas -n 1000 -out "$DIR"
go build -o "$DIR/hdivexplorerd" ./cmd/hdivexplorerd
go build -o "$DIR/checktrace" ./cmd/checktrace

"$DIR/hdivexplorerd" -addr "localhost:$PORT" -debug-addr "localhost:$DEBUG_PORT" \
    -dataset "compas=$DIR/compas.csv" -slo p99=1s,availability=99.0 \
    -drift-debounce 100ms -wal-dir "$DIR/wal" \
    -log-json 2> "$DIR/daemon.log" &
DPID=$!
trap 'kill "$DPID" 2>/dev/null || true' EXIT

# Gate on readiness, not liveness: /healthz answers 200 the moment the
# listener is up, but /readyz stays 503 until the datasets have loaded.
for _ in $(seq 1 100); do
    if curl -fsS "http://localhost:$PORT/readyz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$DPID" 2>/dev/null; then
        echo "daemon exited before becoming ready:" >&2
        cat "$DIR/daemon.log" >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS "http://localhost:$PORT/readyz" >/dev/null
curl -fsS "http://localhost:$PORT/healthz" >/dev/null

# fetch URL DEST: 200 with a non-empty body or fail.
fetch() {
    curl -fsS "$1" -o "$2"
    if [ ! -s "$2" ]; then
        echo "empty body from $1" >&2
        exit 1
    fi
}

curl -fsS -X POST "http://localhost:$PORT/v1/explore" \
    -H "X-Request-ID: $ID" \
    -d '{"dataset":"compas","stat":"fpr","actual":"label","predicted":"prediction","polarity":true,"top":3}' \
    -o "$DIR/explore.json"
[ -s "$DIR/explore.json" ]

# A budget-capped exploration degrades gracefully: still a 200, with the
# report flagged truncated.
curl -fsS -X POST "http://localhost:$PORT/v1/explore" \
    -d '{"dataset":"compas","stat":"fpr","actual":"label","predicted":"prediction","budget":{"max_itemsets":1}}' \
    -o "$DIR/truncated.json"
grep -q '"truncated": true' "$DIR/truncated.json"

# A malformed exploration is answered 400. The request log records it as
# rejected, but /v1/progress never lists it (checked below).
code=$(curl -sS -X POST "http://localhost:$PORT/v1/explore" \
    -H "X-Request-ID: $BAD_ID" -d '{not json' \
    -o "$DIR/rejected.json" -w '%{http_code}')
if [ "$code" != 400 ]; then
    echo "malformed explore answered $code, want 400" >&2
    exit 1
fi

fetch "http://localhost:$PORT/metrics" "$DIR/metrics.txt"
grep -q 'server_request_seconds_bucket{le="+Inf"}' "$DIR/metrics.txt"
grep -q 'fpm_candidate_batch_count' "$DIR/metrics.txt"
grep -q 'fpm_itemset_support_sum' "$DIR/metrics.txt"
# The curated runtime/metrics families ride along on every scrape.
grep -q '# TYPE go_mem_heap_objects_bytes gauge' "$DIR/metrics.txt"
grep -q '# TYPE go_gc_pauses_seconds histogram' "$DIR/metrics.txt"
# The SLO engine's windowed families carry the explorations just served.
grep -q 'server_window_requests{endpoint="explore"}' "$DIR/metrics.txt"
grep -q 'server_window_latency_seconds{endpoint="explore",quantile="0.99"}' "$DIR/metrics.txt"
grep -q 'server_slo_burn_rate{endpoint="explore",objective="p99",window="long"}' "$DIR/metrics.txt"
grep -q 'server_slo_budget_remaining{endpoint="explore"' "$DIR/metrics.txt"

# GET /v1/slo reports windowed objective status in JSON and text.
fetch "http://localhost:$PORT/v1/slo" "$DIR/slo.json"
grep -q '"endpoint": "explore"' "$DIR/slo.json"
grep -q '"name": "p99"' "$DIR/slo.json"
grep -q '"name": "availability"' "$DIR/slo.json"
grep -q '"burn_long"' "$DIR/slo.json"
grep -q '"budget_remaining"' "$DIR/slo.json"
fetch "http://localhost:$PORT/v1/slo?format=text" "$DIR/slo.txt"
grep -q '^slo: ' "$DIR/slo.txt"

# The OpenMetrics negotiation adds _total counter suffixes, request-ID
# exemplars on the latency buckets, and the # EOF terminator.
curl -fsS -H 'Accept: application/openmetrics-text; version=1.0.0' \
    "http://localhost:$PORT/metrics" -o "$DIR/metrics_om.txt"
grep -q '# EOF' "$DIR/metrics_om.txt"
grep -q 'fpm_candidates_total ' "$DIR/metrics_om.txt"
grep -q 'request_id="' "$DIR/metrics_om.txt"

# Both bodies join the tracer, runtime and SLO families into one
# exposition: no family may be declared twice, and the OpenMetrics body
# ends in exactly one # EOF.
for body in "$DIR/metrics.txt" "$DIR/metrics_om.txt"; do
    dup=$(grep '^# TYPE' "$body" | awk '{print $3}' | sort | uniq -d)
    if [ -n "$dup" ]; then
        echo "families declared twice in $body: $dup" >&2
        exit 1
    fi
done
if [ "$(grep -c '^# EOF$' "$DIR/metrics_om.txt")" != 1 ] || [ "$(tail -n 1 "$DIR/metrics_om.txt")" != '# EOF' ]; then
    echo "OpenMetrics body does not end in exactly one # EOF" >&2
    exit 1
fi

fetch "http://localhost:$PORT/v1/progress/$ID" "$DIR/progress.json"
grep -q '"done": true' "$DIR/progress.json"
fetch "http://localhost:$PORT/v1/progress" "$DIR/progress_list.json"
if grep -q "\"$BAD_ID\"" "$DIR/progress_list.json"; then
    echo "/v1/progress lists the rejected request $BAD_ID" >&2
    exit 1
fi

fetch "http://localhost:$PORT/v1/trace/$ID" "$DIR/chrome_trace.json"
"$DIR/checktrace" -chrome "$DIR/chrome_trace.json"
fetch "http://localhost:$PORT/v1/trace/$ID?format=tree" "$DIR/trace_tree.txt"

# The explain profile: per-stage cost attribution computed from the same
# trace, as JSON (the CI artifact) and as the aligned text table.
fetch "http://localhost:$PORT/v1/explain/$ID" "$DIR/explain_profile.json"
grep -q '"stages"' "$DIR/explain_profile.json"
grep -q '"mining"' "$DIR/explain_profile.json"
grep -q "\"$ID\"" "$DIR/explain_profile.json"
grep -q '"memory"' "$DIR/explain_profile.json"
grep -q '"pool_hits"' "$DIR/explain_profile.json"
grep -q '"items_dense"' "$DIR/explain_profile.json"
grep -q '"universe_bytes"' "$DIR/explain_profile.json"
fetch "http://localhost:$PORT/v1/explain/$ID?format=text" "$DIR/explain_profile.txt"
grep -q 'mining: candidates=' "$DIR/explain_profile.txt"
grep -q 'memory: pool hits=' "$DIR/explain_profile.txt"
# One mining counter set: the final /v1/progress reading and the explain
# profile's mining section report the same candidate count.
prog_cand=$(grep -o '"candidates": *[0-9]*' "$DIR/progress.json" | head -n 1 | sed 's/.*: *//')
mining_cand=$(sed -n '/"mining": *{/,/}/p' "$DIR/explain_profile.json" | grep -o '"candidates": *[0-9]*' | head -n 1 | sed 's/.*: *//')
if [ -z "$prog_cand" ] || [ "$prog_cand" != "$mining_cand" ]; then
    echo "progress candidates '$prog_cand' differ from the explain profile's mining candidates '$mining_cand'" >&2
    exit 1
fi

# The always-on request log has seen every request, including both
# explorations above and the rejected one.
fetch "http://localhost:$PORT/v1/debug/requests" "$DIR/debug_requests.json"
grep -q '"recent"' "$DIR/debug_requests.json"
grep -q '"ring_size"' "$DIR/debug_requests.json"
grep -q "\"$ID\"" "$DIR/debug_requests.json"
grep -q '"status": "rejected"' "$DIR/debug_requests.json"

fetch "http://localhost:$DEBUG_PORT/debug/vars" "$DIR/vars.json"
fetch "http://localhost:$DEBUG_PORT/debug/pprof/cmdline" "$DIR/cmdline.bin"

grep -q "$ID" "$DIR/daemon.log"

# ---- Kept root FP-tree -----------------------------------------------
# A view's universe keeps its root FP-tree from its second mine on and
# mines later requests from it. Ask a fresh view (fnr) at s 0.05, at
# s 0.1, then at s 0.05 twice more: the first two replies are built, the
# last two are served from the tree kept by the third, so each pair must
# match byte for byte.
explore_csv() {
    curl -fsS -X POST "http://localhost:$PORT/v1/explore" \
        -d "{\"dataset\":\"compas\",\"stat\":\"fnr\",\"actual\":\"label\",\"predicted\":\"prediction\",\"s\":$1,\"format\":\"csv\"}" \
        -o "$2"
    [ -s "$2" ]
}
explore_csv 0.05 "$DIR/kept_built.csv"
explore_csv 0.1 "$DIR/kept_high_built.csv"
explore_csv 0.05 "$DIR/kept_rebuilt.csv"
explore_csv 0.05 "$DIR/kept_reused.csv"
explore_csv 0.1 "$DIR/kept_high_reused.csv"
cmp "$DIR/kept_built.csv" "$DIR/kept_reused.csv"
cmp "$DIR/kept_high_built.csv" "$DIR/kept_high_reused.csv"

# ---- Live-dataset lifecycle -------------------------------------------
# Capture an epoch-1 exploration in CSV form: the byte-comparable replay
# target for the epoch pin below. The body matches the pinned request
# exactly so the cache serves the frozen epoch-1 snapshot.
curl -fsS -X POST "http://localhost:$PORT/v1/explore" \
    -D "$DIR/epoch1.headers" \
    -d '{"dataset":"compas","stat":"fpr","actual":"label","predicted":"prediction","top":3,"format":"csv"}' \
    -o "$DIR/epoch1.csv"
grep -qi 'X-Dataset-Epoch: 1' "$DIR/epoch1.headers"

# Append two rows over HTTP; the reply carries the bumped epoch.
curl -fsS -X POST "http://localhost:$PORT/v1/datasets/compas/rows" \
    -d '{"columns":["age","prior","stay","sex","race","charge","label","prediction"],
         "rows":[[25,3,10,"Male","Afr-Am","F","false","true"],
                 [52,0,1,"Female","Caucasian","M","false","false"]]}' \
    -o "$DIR/append.json"
grep -q '"epoch": 2' "$DIR/append.json"
grep -q '"rows": 2' "$DIR/append.json"

# The dataset listing and the per-dataset epoch gauge advance with it.
fetch "http://localhost:$PORT/v1/datasets" "$DIR/datasets.json"
grep -q '"epoch": 2' "$DIR/datasets.json"
fetch "http://localhost:$PORT/metrics" "$DIR/metrics_epoch.txt"
grep -q '^server_dataset_epoch_compas 2' "$DIR/metrics_epoch.txt"

# The debounced drift re-mine runs in the background; wait for the watch
# baseline to reach the new epoch, then keep the report as a CI artifact.
for _ in $(seq 1 100); do
    curl -fsS "http://localhost:$PORT/v1/drift/compas" -o "$DIR/drift.json"
    if grep -q '"baseline_epoch": 2' "$DIR/drift.json"; then break; fi
    sleep 0.1
done
grep -q '"watching": true' "$DIR/drift.json"
grep -q '"baseline_epoch": 2' "$DIR/drift.json"
if grep -q '"last_error"' "$DIR/drift.json"; then
    echo "drift re-mine reported an error; see $DIR/drift.json" >&2
    exit 1
fi

# An exploration pinned to the pre-append epoch replays the frozen
# snapshot byte for byte even though the dataset has since grown.
curl -fsS -X POST "http://localhost:$PORT/v1/explore" \
    -D "$DIR/pinned.headers" \
    -d '{"dataset":"compas","stat":"fpr","actual":"label","predicted":"prediction","top":3,"format":"csv","epoch":1}' \
    -o "$DIR/pinned.csv"
grep -qi 'X-Dataset-Epoch: 1' "$DIR/pinned.headers"
cmp "$DIR/epoch1.csv" "$DIR/pinned.csv"

# The current epoch-2 reply: the restarted daemon rebuilds epoch 2 from
# scratch and must answer it byte for byte.
curl -fsS -X POST "http://localhost:$PORT/v1/explore" \
    -D "$DIR/epoch2.headers" \
    -d '{"dataset":"compas","stat":"fpr","actual":"label","predicted":"prediction","top":3,"format":"csv"}' \
    -o "$DIR/epoch2.csv"
grep -qi 'X-Dataset-Epoch: 2' "$DIR/epoch2.headers"

# ---- Durability: SIGKILL and restart against the same WAL ------------
# The acknowledged appends are on disk; a hard kill (no drain, no final
# fsync beyond the per-ack ones) must lose nothing.
kill -9 "$DPID"
wait "$DPID" 2>/dev/null || true

"$DIR/hdivexplorerd" -addr "localhost:$PORT" -debug-addr "localhost:$DEBUG_PORT" \
    -dataset "compas=$DIR/compas.csv" -slo p99=1s,availability=99.0 \
    -drift-debounce 100ms -wal-dir "$DIR/wal" \
    -log-json 2> "$DIR/daemon_restart.log" &
DPID=$!
for _ in $(seq 1 100); do
    if curl -fsS "http://localhost:$PORT/readyz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$DPID" 2>/dev/null; then
        echo "restarted daemon exited before becoming ready:" >&2
        cat "$DIR/daemon_restart.log" >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS "http://localhost:$PORT/readyz" >/dev/null
grep -q '"msg":"dataset recovered"' "$DIR/daemon_restart.log"

# WAL replay resumed the dataset at its pre-crash epoch...
fetch "http://localhost:$PORT/metrics" "$DIR/metrics_recovered.txt"
grep -q '^server_dataset_epoch_compas 2' "$DIR/metrics_recovered.txt"
fetch "http://localhost:$PORT/v1/datasets" "$DIR/datasets_recovered.json"
grep -q '"epoch": 2' "$DIR/datasets_recovered.json"

# ...the pinned epoch-1 replay still answers byte for byte...
curl -fsS -X POST "http://localhost:$PORT/v1/explore" \
    -D "$DIR/recovered_pin.headers" \
    -d '{"dataset":"compas","stat":"fpr","actual":"label","predicted":"prediction","top":3,"format":"csv","epoch":1}' \
    -o "$DIR/recovered_pin.csv"
grep -qi 'X-Dataset-Epoch: 1' "$DIR/recovered_pin.headers"
cmp "$DIR/epoch1.csv" "$DIR/recovered_pin.csv"

# ...so does epoch 2, the current epoch before the kill...
curl -fsS -X POST "http://localhost:$PORT/v1/explore" \
    -D "$DIR/recovered_pin2.headers" \
    -d '{"dataset":"compas","stat":"fpr","actual":"label","predicted":"prediction","top":3,"format":"csv","epoch":2}' \
    -o "$DIR/recovered_pin2.csv"
grep -qi 'X-Dataset-Epoch: 2' "$DIR/recovered_pin2.headers"
cmp "$DIR/epoch2.csv" "$DIR/recovered_pin2.csv"

# ...and the log keeps rolling: a post-recovery append lands epoch 3.
curl -fsS -X POST "http://localhost:$PORT/v1/datasets/compas/rows" \
    -d '{"columns":["age","prior","stay","sex","race","charge","label","prediction"],
         "rows":[[33,1,5,"Male","Caucasian","F","true","true"]]}' \
    -o "$DIR/append_recovered.json"
grep -q '"epoch": 3' "$DIR/append_recovered.json"

kill "$DPID"
wait "$DPID" 2>/dev/null || true
echo "daemon smoke: ok"
