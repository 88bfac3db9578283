#!/usr/bin/env bash
# Checks that the paper's artifacts still render the committed
# experiments_output.txt: regenerate every artifact at the committed
# config (go run ./cmd/experiments -run all, about a minute on two
# cores), mask Go duration tokens (each section header's wall-clock and
# the time columns of fig2, fig4 and perf) in both texts, collapse runs
# of spaces (the columns are aligned around the durations, so a timing
# change also moves whitespace) and cmp the results. Any other
# difference fails the check, a hand-edited number included.
#
# Usage: scripts/experiments_check.sh [committed-file]   (default experiments_output.txt)
# Run from the repo root. Needs go, perl and cmp.
set -euo pipefail

WANT=${1:-experiments_output.txt}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# mask FILE: FILE with every Go duration token (e.g. 7ms, 1.22s, 850µs,
# 1m5.3s) standing alone between whitespace or parentheses replaced by
# <t>, and runs of spaces collapsed to one.
mask() {
    perl -pe '
        s/(?<![^\s(])(?:\d+(?:\.\d+)?(?:h|ms|m|s|µs|us|ns))+(?![^\s)])/<t>/g;
        s/ +/ /g;
    ' "$1"
}

go run ./cmd/experiments -run all >"$TMP/got.txt"
mask "$WANT" >"$TMP/want.masked"
mask "$TMP/got.txt" >"$TMP/got.masked"
if ! cmp -s "$TMP/want.masked" "$TMP/got.masked"; then
    echo "experiments output differs from $WANT (durations masked, spaces collapsed):"
    diff "$TMP/want.masked" "$TMP/got.masked" || true
    exit 1
fi
echo "experiments output matches $WANT (durations masked, spaces collapsed)"
