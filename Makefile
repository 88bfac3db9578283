# Development targets for the H-DivExplorer reproduction.
#
#   make check        vet (+ gofmt) + build + race tests + bench/trace smoke (CI entry)
#   make test         go test ./...
#   make race         go test -race ./...
#   make bench        full benchmark suite (slow; paper artifacts + ablations)
#   make smoke        1-iteration pipeline benches + CLI trace-JSON round trip
#   make smoke-daemon live hdivexplorerd round trip: explore, /metrics,
#                     /v1/progress, Chrome-trace export, debug listener
#   make loadtest     sustained-load smoke: hdivloadgen drives a live
#                     daemon with declared SLOs, writes BENCH_PR8_SLO.json
#                     and diffs its p99 against the committed baseline
#   make test-faults  fault-injection + budget + panic-containment suite
#                     under the race detector
#   make test-crash   durability suite under the race detector: WAL
#                     append/replay/rotation, crash-recovery equivalence
#                     property, pinned-epoch retention, daemon restart,
#                     FuzzWALReplay seed corpus
#   make bench-test   the bench module's own tests (it sits outside the
#                     root module, so `go test ./...` never reaches it)

GO ?= go
# BENCHTIME feeds -benchtime: the default 1s gives stable numbers; CI
# passes 1x for a fast structural run. BENCHOUT is the JSON artifact;
# BENCHBASE is the committed baseline benchdiff compares it against.
BENCHTIME ?= 1s
BENCHOUT ?= BENCH_PR10.json
BENCHBASE ?= BENCH_PR9.json

.PHONY: check vet build test race bench bench-test benchdiff benchgate smoke smoke-daemon loadtest test-faults test-crash fmt

check: vet build race test-faults test-crash bench-test smoke smoke-daemon

# vet covers the bench module too (its own go.mod keeps the root
# ./... from reaching it), and fails when gofmt would rewrite any file.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# test-faults runs the failure-containment suite under the race
# detector: the faultinject package itself, plus every fault-injection,
# budget-truncation, panic-recovery and saturation test in the engine,
# miners and HTTP server (FuzzExploreDecode runs its seed corpus only).
test-faults:
	$(GO) test -race ./internal/faultinject
	$(GO) test -race -run 'Fault|Budget|Panic|Readyz|RetryAfter|SoftDeadline|FuzzExploreDecode|Daemon' \
		./internal/engine ./internal/fpm ./internal/server ./cmd/hdivexplorerd

# test-crash runs the durability suite under the race detector: the wal
# package in full (record codec, group commit, torn-tail truncation,
# segment rotation, snapshot compaction, FuzzWALReplay's seed corpus),
# the dataset snapshot codec and SnapshotAt retention property, the
# server-level crash-recovery equivalence property (seeded
# kill-and-restart across workers × shards), pinned epochs across
# compaction, restart and cache eviction, and the daemon restart round
# trip.
test-crash:
	$(GO) test -race ./internal/wal ./internal/dataset
	$(GO) test -race -run 'Durable|Recovery|Retention|Compaction|PinnedEpoch|DriftRearms|WALSync' \
		./internal/server ./cmd/hdivexplorerd

# bench-test runs the benchmark harness's unit tests in short mode; the
# bench module has its own go.mod, so the root test targets skip it.
bench-test:
	cd bench && $(GO) test -short ./...

# bench runs the full suite and also writes $(BENCHOUT): a JSON record
# per benchmark (name, iterations, ns/op, B/op, allocs/op and custom
# counters) parsed from the live output by cmd/benchjson, which fails
# the pipe when the stream contains FAIL lines or no benchmarks.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./... \
		| $(GO) run ./cmd/benchjson -out $(BENCHOUT)

# benchdiff compares the fresh artifact against the committed baseline
# and warns (never fails) on >2x ns/op regressions in the watched paper
# benchmarks. See scripts/benchdiff for the CI wrapper.
benchdiff:
	./scripts/benchdiff $(BENCHBASE) $(BENCHOUT)

# benchgate is the enforcing variant CI runs after the advisory diff:
# a watched benchmark whose B/op or allocs/op grows more than 25% (or
# whose ns/op doubles) fails the build. README.md §Memory tuning
# explains how to read the output.
benchgate:
	./scripts/benchdiff $(BENCHBASE) $(BENCHOUT) -strict -alloc-threshold 1.25

# smoke runs the pipeline benchmarks once each (reporting the mining
# counters) and exercises the CLI trace path end to end: mkdata generates
# a dataset, hdivexplorer runs with -trace-json, and the snapshot must be
# parseable JSON with a non-empty span list.
smoke:
	$(GO) test -run='^$$' -bench='BenchmarkPipeline' -benchtime=1x .
	rm -rf .smoke && mkdir .smoke
	$(GO) run ./cmd/mkdata -dataset compas -n 1000 -out .smoke
	$(GO) run ./cmd/hdivexplorer -data .smoke/compas.csv \
		-actual label -predicted prediction -stat fpr -polarity \
		-trace-json .smoke/trace.json -top 3 > /dev/null
	$(GO) run ./cmd/checktrace .smoke/trace.json
	rm -rf .smoke

# smoke-daemon starts a real hdivexplorerd, runs one exploration under a
# known request ID and checks the whole observability surface: /metrics
# histograms (classic + OpenMetrics with runtime families and
# exemplars), /v1/progress/{id}, the Chrome-trace export (validated by
# checktrace -chrome), the /v1/explain/{id} cost profile, the
# /v1/debug/requests request log (a malformed explore shows there as
# rejected and stays off /v1/progress), the pprof/expvar debug listener
# and the structured slog output. Artifacts land in .smoke-daemon/ for
# CI upload.
smoke-daemon:
	./scripts/daemon_smoke.sh .smoke-daemon

# loadtest runs the ~15s sustained-load smoke: a live daemon with
# -slo p99=500ms,availability=99.0 takes seeded open-loop traffic from
# cmd/hdivloadgen, the run's per-class latency quantiles land in
# .loadtest/BENCH_PR8_SLO.json (uploaded by CI), the /v1/slo and
# windowed-metrics surfaces are asserted live, and benchdiff warns
# (never fails) when a class's p99 more than doubles against the
# committed BENCH_PR8_SLO.json baseline.
loadtest:
	./scripts/loadtest.sh .loadtest

fmt:
	gofmt -l -w .
