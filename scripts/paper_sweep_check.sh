#!/usr/bin/env bash
# Same-machine wall-clock check on the paper's Figure 2 sweep: run the
# bench/ paper-sweep workload on a base commit and then on the working
# tree, one after the other on the same machine, print bench's -compare
# table as advisory output, and fail only when an end-to-end metric moves
# by more than a factor of two the wrong way: setup_s, explore_p50_ms or
# peak_rss_mb more than twice the base's, or explore_rate below half of
# it. The bound is wide on purpose: a single pair of runs resolves a
# doubling, not the 25% bounds of a full `bench/run.sh -compare` over many
# runs.
#
# Usage: scripts/paper_sweep_check.sh <base-commit> [workdir]   (default .paper-sweep)
# A base commit that is missing from the clone, or that predates bench/,
# skips the check with a notice. Needs git, jq and awk.
set -euo pipefail

BASE=${1:?usage: scripts/paper_sweep_check.sh <base-commit> [workdir]}
DIR=${2:-.paper-sweep}
SECS=10
MAX_RATIO=2

if ! git cat-file -e "$BASE^{commit}" 2>/dev/null; then
    echo "::notice::paper-sweep check skipped: base commit $BASE is not in this clone"
    exit 0
fi
rm -rf "$DIR" && mkdir -p "$DIR/src"
DIR=$(cd "$DIR" && pwd)
trap 'rm -rf "$DIR/src"' EXIT
git archive "$BASE" | tar -x -C "$DIR/src"
if [ ! -f "$DIR/src/bench/run.sh" ]; then
    echo "::notice::paper-sweep check skipped: base commit $BASE has no bench/run.sh"
    exit 0
fi

(cd "$DIR/src" && bash bench/run.sh --workload paper-sweep --seconds "$SECS" --out "$DIR/base")
bash bench/run.sh --workload paper-sweep --seconds "$SECS" --out "$DIR/change"

# Advisory: -compare exits 1 on any verdict other than "within", BETTER
# included, so its status is not the gate.
bash bench/run.sh -compare "$DIR/base/result.json" -- "$DIR/change/result.json" || true

# value FILE METRIC: the paper-sweep run's value of an end-to-end metric.
value() {
    jq -er --arg m "$2" '.results[] | select(.workload == "paper-sweep") | .metrics[$m].value' "$1"
}
fail=0
# Each metric with the direction it worsens in: "lower" metrics fail above
# MAX_RATIO times the base, "higher" ones below the base over MAX_RATIO.
for gate in setup_s:lower explore_p50_ms:lower peak_rss_mb:lower explore_rate:higher; do
    m=${gate%%:*} better=${gate#*:}
    base=$(value "$DIR/base/result.json" "$m")
    change=$(value "$DIR/change/result.json" "$m")
    if awk -v b="$base" -v c="$change" -v r="$MAX_RATIO" -v better="$better" \
        'BEGIN { exit !(better == "lower" ? c > r * b : c * r < b) }'; then
        echo "::error::paper-sweep $m: base $base, change $change, worse than ${MAX_RATIO}x the base"
        fail=1
    else
        echo "paper-sweep $m: base $base, change $change, within ${MAX_RATIO}x"
    fi
done
exit "$fail"
