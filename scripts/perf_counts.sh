#!/usr/bin/env bash
# Counter gate for the serving engine: runs one traced `perfbench` unit
# stream (`--seconds 1 --trace 1`) of pod_steady, pod_overload and
# cluster_bursty at their default seeds and compares the deterministic
# per-unit counters below, for equality, against the committed
# scripts/perf_counts.expected. The counters are simulated, not timed:
# the same code and seed give the same values at any run length, so any
# difference is a behaviour change, never host noise.
#
#   bash scripts/perf_counts.sh            # check (exit 1 on any mismatch)
#   bash scripts/perf_counts.sh --write    # regenerate the expected file
#
# Each line of the expected file is `<workload> <counter> <value>`.
set -euo pipefail

cd "$(dirname "$0")/.."

WORKLOADS="pod_steady pod_overload cluster_bursty"
COUNTERS="pod.events pod.dispatches pod.retime_passes pod.retime_jobs_touched \
pod.plan_cache_hits pod.plan_cache_misses pod.plan_grids_scored pod.preemptions \
pod.inflight_joins cluster.routed cluster.rerouted scheduler.shed metrics.completed \
metrics.slo_met metrics.p99_total_cycles metrics.bandwidth_stall_cycles"
EXPECTED=scripts/perf_counts.expected

actual=$(mktemp)
trap 'rm -f "$actual"' EXIT
for w in $WORKLOADS; do
    # The human-readable lines above the JSON are `<metric> <value> <unit>`.
    cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seconds 1 --trace 1 2>/dev/null \
        | awk -v w="$w" -v want="$COUNTERS" '
            BEGIN { n = split(want, c, /[ \t\n]+/); for (i = 1; i <= n; i++) keep[c[i]] = 1 }
            ($1 in keep) && NF == 3 { v = $2; sub(/\.0+$/, "", v); print w, $1, v }
        ' >>"$actual"
done

if [ "${1:-}" = "--write" ]; then
    cp "$actual" "$EXPECTED"
    echo "wrote $EXPECTED ($(wc -l <"$EXPECTED") counters)"
    exit 0
fi

if diff -u "$EXPECTED" "$actual"; then
    echo "perf counters match $EXPECTED ($(wc -l <"$EXPECTED") counters)"
else
    echo "perf counters differ from $EXPECTED (- expected, + actual)" >&2
    exit 1
fi
