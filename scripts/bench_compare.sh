#!/usr/bin/env bash
# Compares the latest BENCH_*.json at the repo root against the committed
# baselines in scripts/bench_baselines/, failing on a >10% regression.
#
# Key conventions (see crates/bench/benches/*.rs):
#   *_secs / *allocs_per_event
#   / *allocs_per_line          lower is better  -> fail if > 1.10x baseline
#   *_per_sec / *_speedup       higher is better -> fail if < 0.90x baseline
#   anything else (counters, core counts)        -> informational, skipped
#
# Timings on a loaded machine are noisy; the 10% band is deliberately
# generous. Re-run scripts/bench.sh once before trusting a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINES=scripts/bench_baselines
TOLERANCE=${BENCH_TOLERANCE:-0.10}
status=0
compared=0

# Emits "key value" lines from a flat one-key-per-line JSON object.
flat_json() {
    sed -n 's/^[[:space:]]*"\([a-z_0-9]*\)":[[:space:]]*\(-\{0,1\}[0-9.]*\),\{0,1\}[[:space:]]*$/\1 \2/p' "$1"
}

for current in BENCH_*.json; do
    [ -e "$current" ] || continue
    baseline="$BASELINES/$current"
    if [ ! -f "$baseline" ]; then
        echo "bench_compare: no baseline for $current (add one under $BASELINES/)" >&2
        status=1
        continue
    fi
    echo "== $current vs $baseline (tolerance ${TOLERANCE}) =="
    while read -r key base_value; do
        value=$(flat_json "$current" | awk -v k="$key" '$1 == k { print $2 }')
        if [ -z "$value" ]; then
            echo "  MISSING  $key (in baseline, absent from $current)"
            status=1
            continue
        fi
        case "$key" in
        *_secs | *allocs_per_event | *allocs_per_line) direction=lower ;;
        *_per_sec | *_speedup) direction=higher ;;
        *)
            compared=$((compared + 1))
            continue
            ;;
        esac
        verdict=$(awk -v v="$value" -v b="$base_value" -v t="$TOLERANCE" -v d="$direction" '
            BEGIN {
                if (b == 0) { print "ok"; exit }
                ratio = v / b
                if (d == "lower" && ratio > 1 + t) { printf "REGRESS %.2fx slower", ratio; exit }
                if (d == "higher" && ratio < 1 - t) { printf "REGRESS %.2fx of baseline", ratio; exit }
                print "ok"
            }')
        if [ "$verdict" != ok ]; then
            echo "  FAIL     $key: $value vs baseline $base_value ($verdict)"
            status=1
        else
            echo "  ok       $key: $value (baseline $base_value)"
        fi
        compared=$((compared + 1))
    done < <(flat_json "$baseline")
done

if [ "$compared" -eq 0 ]; then
    echo "bench_compare: no benchmark keys compared — are BENCH_*.json present?" >&2
    exit 1
fi
if [ "$status" -ne 0 ]; then
    echo "bench_compare: FAILED (>10% regression or missing data; see above)" >&2
else
    echo "bench_compare: all tracked metrics within ${TOLERANCE} of baseline"
fi
exit "$status"
