# Development targets for the H-DivExplorer reproduction.
#
#   make check        vet (+ gofmt) + build + race tests + budgets +
#                     experiments-check + fuzz + bench/trace smoke (CI entry)
#   make test         go test ./...
#   make race         go test -race ./...
#   make budgets      allocation and mining-work budgets of the paper
#                     artifacts (skipped by the race run)
#   make cpu-independence
#                     golden, ranking, determinism and forest-reference
#                     tests at -cpu 1,2,4: the default worker count is
#                     every core, so the output must not depend on how
#                     many there are
#   make experiments-check
#                     regenerate every paper artifact and compare it with
#                     experiments_output.txt (durations masked)
#   make bench        full benchmark suite (slow; paper artifacts + ablations)
#   make smoke        1-iteration pipeline benches + CLI trace-JSON round trip
#   make smoke-daemon live hdivexplorerd round trip: explore, /metrics,
#                     /v1/progress, Chrome-trace export, /v1/slo, appends,
#                     drift, kill -9 restart
#   make test-faults  fault-injection + budget + panic-containment suite
#                     under the race detector
#   make test-crash   durability suite under the race detector: WAL
#                     append/replay/rotation, crash-recovery equivalence
#                     property, pinned-epoch retention, daemon restart,
#                     FuzzWALReplay seed corpus
#   make bench-test   the bench module's own tests (it sits outside the
#                     root module, so `go test ./...` never reaches it)
#   make fuzz         FuzzWALReplay and FuzzRank on mutated inputs, 30s each

GO ?= go
# BENCHTIME feeds -benchtime: the default 1s gives stable numbers; CI
# passes 1x for a fast structural run.
BENCHTIME ?= 1s

.PHONY: check vet build test race budgets cpu-independence experiments-check fuzz bench bench-test smoke smoke-daemon test-faults test-crash fmt

check: vet build race budgets cpu-independence experiments-check test-faults test-crash bench-test fuzz smoke smoke-daemon

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

# budgets gates Table III's and Figure 2's B/op and allocs/op at 1.25x of
# the committed constants and the paper's mining counts at their exact
# committed values; both tests skip themselves under -race, so the race
# target never runs them.
budgets:
	$(GO) test -run '^Test(Allocation|MiningWork)Budget$$' -count=1 -v .

# cpu-independence runs the golden ranked CSV, the ranking tests, the
# kept-tree equivalence, the explain determinism tests and the forest's
# reference equivalence at GOMAXPROCS 1, 2 and 4. Workers 0, the default,
# resolves to GOMAXPROCS, so these pin the default output to be the same
# on every core count.
cpu-independence:
	$(GO) test -cpu 1,2,4 -count=1 \
		-run '^(TestGoldenRankedCSV|TestRank.*|TestKeptTreeMatchesBuild|TestExplainDeterministicAcrossWorkers|TestForestMatchesReference)$$' \
		. ./internal/fpm ./internal/core ./internal/model

# experiments-check regenerates every paper artifact and compares it with
# the committed experiments_output.txt, Go durations masked and runs of
# spaces collapsed.
experiments-check:
	bash scripts/experiments_check.sh

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
# kill-and-restart across worker counts), pinned epochs across
# compaction, restart and cache eviction, and the daemon restart round
# trip.
test-crash:
	$(GO) test -race ./internal/wal ./internal/dataset
	$(GO) test -race -run 'Durable|Recovery|Retention|Compaction|PinnedEpoch|DriftRearms|WALSync' \
		./internal/server ./cmd/hdivexplorerd

# fuzz mutates WAL segment bytes for 30s: replay must never panic
# nor apply a record whose checksum fails (test-crash runs only the seed
# corpus). Then it mutates ranking inputs for 30s: fpm.Rank must never
# panic and must give its stable-sort oracle's order at workers 1 and 3.
fuzz:
	$(GO) test ./internal/wal -fuzz FuzzWALReplay -fuzztime 30s
	$(GO) test ./internal/fpm -run '^FuzzRank$$' -fuzz '^FuzzRank$$' -fuzztime 30s

# bench-test runs the benchmark harness's unit tests in short mode; the
# bench module has its own go.mod, so the root test targets skip it.
bench-test:
	cd bench && $(GO) test -short ./...

# bench runs every benchmark with -benchmem and prints the results; it
# writes no artifact. The allocation budget of the tracked paper artifacts
# is gated by TestAllocationBudget in `go test ./...`, and wall-clock
# comparisons go through the bench/ module (bash bench/run.sh), which
# stamps the environment and keeps several samples per metric.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./...

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
# rejected and stays off /v1/progress), the SLO surface (/v1/slo and the
# windowed burn-rate and error-budget families), the pprof/expvar debug
# listener and the structured slog output; then appends rows, waits for
# the drift re-mine, replays a pinned epoch, and restarts the daemon
# after kill -9 against the same WAL. Artifacts land in .smoke-daemon/
# for CI upload.
smoke-daemon:
	./scripts/daemon_smoke.sh .smoke-daemon

fmt:
	gofmt -l -w .
