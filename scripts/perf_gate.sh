#!/usr/bin/env bash
# Wall-clock gate: does HEAD simulate slower than <base-rev>?
#
#   bash scripts/perf_gate.sh <base-rev>
#
# Builds `perfbench` at <base-rev> (in a temporary `git worktree` with its
# own target dir) and at HEAD, then, for every workload in BENCHMARK.json,
# runs PAIRS alternating base/head pairs of `--seconds RUN_SECONDS` on this
# host: odd pairs run base first, even pairs head first, so a drift in the
# host's speed hits both sides alike. Each run's `req_per_s` is read from
# its final JSON line. A workload fails only when both hold:
#   - the head is slower in at least LOSSES of the PAIRS pairs, and
#   - the head median is below the base median by more than the base
#     runs' interquartile range (quartiles by Python's default
#     `statistics.quantiles` method, as in perfbench).
# A baseline measured in the same job on the same host is what lets the
# rule tell a regression from runner noise (Kalibera & Jones, "Rigorous
# Benchmarking in Reasonable Time", ISMM 2013). Exit 1 if any workload
# fails. Self-checks and deterministic counters are scripts/perf_counts.sh's
# job, not this script's.
set -euo pipefail

PAIRS=10
LOSSES=9
RUN_SECONDS=1

if [ $# -ne 1 ]; then
    echo "usage: bash scripts/perf_gate.sh <base-rev>" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
root=$(pwd)
base_rev=$(git rev-parse --verify "$1^{commit}")

work=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$work/base" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add -q --detach "$work/base" "$base_rev"

echo "building perfbench at base $base_rev and at HEAD $(git rev-parse HEAD)"
cargo build -q --release --offline --manifest-path "$work/base/perfbench/Cargo.toml" \
    --target-dir "$work/target"
cargo build -q --release --offline --manifest-path perfbench/Cargo.toml \
    --target-dir perfbench/target
base_bin=$work/target/release/perfbench
head_bin=$root/perfbench/target/release/perfbench

# Prints the req_per_s of one `--seconds RUN_SECONDS` run of <bin> <workload>.
req_per_s() {
    local last
    last=$("$1" --workload "$2" --seconds "$RUN_SECONDS" | tail -n 1)
    sed -n 's/.*"req_per_s": {"value": \([^,}]*\).*/\1/p' <<<"$last" | grep . \
        || { echo "$2: no req_per_s in the last line of $1: $last" >&2; return 1; }
}

failed=""
for w in $(sed -n 's/^ *{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json); do
    if ! grep -q "{\"name\": \"$w\", \"why\"" "$work/base/BENCHMARK.json"; then
        echo "$w: not a workload at base, skipped"
        continue
    fi
    base_runs=()
    head_runs=()
    for ((p = 1; p <= PAIRS; p++)); do
        if ((p % 2)); then
            b=$(req_per_s "$base_bin" "$w")
            h=$(req_per_s "$head_bin" "$w")
            order="base first"
        else
            h=$(req_per_s "$head_bin" "$w")
            b=$(req_per_s "$base_bin" "$w")
            order="head first"
        fi
        base_runs+=("$b")
        head_runs+=("$h")
        printf '%s pair %2d (%s): base %.1f head %.1f req/wall-s\n' "$w" "$p" "$order" "$b" "$h"
    done
    if ! awk -v w="$w" -v base="${base_runs[*]}" -v head="${head_runs[*]}" -v losses="$LOSSES" '
        function sort(a, n,   i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        # The i-th quartile of sorted a[1..n], exclusive method.
        function quartile(a, n, i,   j, d) {
            j = int(i * (n + 1) / 4)
            j = j < 1 ? 1 : (j > n - 1 ? n - 1 : j)
            d = i * (n + 1) - 4 * j
            return (a[j] * (4 - d) + a[j + 1] * d) / 4
        }
        BEGIN {
            n = split(base, b, " "); split(head, h, " ")
            lost = 0
            for (i = 1; i <= n; i++) if (h[i] + 0 < b[i] + 0) lost++
            sort(b, n); sort(h, n)
            mb = quartile(b, n, 2); mh = quartile(h, n, 2); iqr = quartile(b, n, 3) - quartile(b, n, 1)
            slower = lost >= losses && mb - mh > iqr
            printf "%s: head slower in %d/%d pairs; median base %.1f head %.1f (%+.1f%%); base IQR %.1f: %s\n",
                w, lost, n, mb, mh, 100 * (mh - mb) / mb, iqr, slower ? "FAIL" : "pass"
            exit slower
        }'; then
        failed="$failed $w"
    fi
done

if [ -n "$failed" ]; then
    echo "wall-clock regression vs $base_rev on:$failed" >&2
    exit 1
fi
echo "no wall-clock regression vs $base_rev"
