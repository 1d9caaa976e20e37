#!/usr/bin/env bash
# Performance snapshot: the criterion micro benches plus the macro benches
# that write BENCH_*.json at the repo root — sweep_perf (market-build time,
# cells/sec serial vs parallel, monitor-tick rate, market-cache hit
# counters) and fleet_scale (workloads/sec and events/sec at 1k/5k/10k/25k,
# per-phase breakdown, replay rate). Finishes by diffing the fresh
# numbers against the committed baselines. Run from anywhere; operates on
# the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> micro: cargo bench --bench micro"
cargo bench -p spotverse-bench --bench micro

echo "==> sweep: cargo bench --bench sweep_perf"
cargo bench -p spotverse-bench --bench sweep_perf

echo "==> fleet: cargo bench --bench fleet_scale"
cargo bench -p spotverse-bench --bench fleet_scale

echo "==> BENCH_sweep.json"
cat BENCH_sweep.json

echo "==> BENCH_fleet.json"
cat BENCH_fleet.json

echo "==> baseline comparison"
scripts/bench_compare.sh
