#!/usr/bin/env bash
# Run the paper's headline benchmarks at small scale and write their
# machine-readable metrics snapshots to the repo root as BENCH_<name>.json
# (schema: tools/metrics_schema.json, checked by check_metrics_schema.py).
#
# Usage: tools/run_benches.sh [build_dir]   (default: build)
#
# The committed BENCH_*.json files carry work counters, timing gauges and,
# in BENCH_data_models.json, the exact Figure 4.1(a) storage bytes per
# dataset and data model (bench.storage_bytes.*).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found — build first:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 2
fi

run() {
  local name="$1"
  shift
  echo "=== $name ===" >&2
  "$BUILD_DIR/bench/$name" --scale=small "$@" \
    --metrics-json "BENCH_${name#bench_}.json"
}

run bench_checkout_cost_model
run bench_data_models
run bench_partitioning_tradeoff --quick
run bench_session
run bench_net_session

for f in BENCH_checkout_cost_model.json BENCH_data_models.json \
         BENCH_partitioning_tradeoff.json BENCH_session.json \
         BENCH_net_session.json; do
  python3 tools/check_metrics_schema.py "$f"
done
