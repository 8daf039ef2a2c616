#!/usr/bin/env bash
# Runs the benchmark suite that tracks the engine's performance trajectory
# (bench_match: pattern matching incl. morsel-parallel scaling;
# bench_parallel_queries: inter-query scheduler scaling; bench_recovery:
# checkpoint write cost vs. state size and recovery latency vs. replay
# length; bench_emit_latency: the latency-stamping overhead guard;
# bench_delta: delta-matching ablation — steady-state evaluation latency
# vs. window size with churn held fixed; bench_overload: bounded-queue
# admission cost per overflow policy (reject, shed_oldest);
# bench_sharded: the sharded tier — four copies of one query over the
# default broadcast route, through 1/2/4-shard fleets vs. the bare engine;
# bench_result_reuse: unchanged-window reuse on and off over a bursty
# stream, for a delta-served query and an aggregate; bench_use_cases:
# Table 1's three use-case queries, Listing 5 both verbatim and bounded)
# plus
# the steady-state latency harness, and writes one BENCH_<name>.json per
# binary for archiving as a CI artifact and diffing against the committed
# baselines in bench/baselines/ (tools/compare_benches.py).
#
#   tools/run_benches.sh [build-dir] [output-dir]
#
# Defaults: build-dir = build, output-dir = bench-results. Extra repetition
# or filter knobs can be passed via BENCH_ARGS (forwarded verbatim to the
# google-benchmark binaries) and LATENCY_ARGS (to the latency harness).
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-results}"
BENCHES=(bench_match bench_parallel_queries bench_recovery bench_emit_latency
         bench_delta
         bench_overload bench_sharded bench_result_reuse bench_use_cases)

mkdir -p "${OUT_DIR}"
for bench in "${BENCHES[@]}"; do
  bin="${BUILD_DIR}/bench/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not built (cmake --build ${BUILD_DIR} --target ${bench})" >&2
    exit 1
  fi
  echo "== ${bench} =="
  "${bin}" \
    --benchmark_format=json \
    --benchmark_out="${OUT_DIR}/BENCH_${bench#bench_}.json" \
    --benchmark_out_format=json \
    ${BENCH_ARGS:-}
done

# The end-to-end latency harness (not a google-benchmark binary): a short
# sustained run writing the flat BENCH_latency.json summary.
HARNESS="${BUILD_DIR}/tools/latency_harness"
if [[ ! -x "${HARNESS}" ]]; then
  echo "error: ${HARNESS} not built (cmake --build ${BUILD_DIR} --target latency_harness)" >&2
  exit 1
fi
echo "== latency_harness =="
"${HARNESS}" --rate=2000 --duration-sec=5 --queries=4 \
  --out="${OUT_DIR}/BENCH_latency.json" ${LATENCY_ARGS:-}

echo "wrote $(ls "${OUT_DIR}"/BENCH_*.json | wc -l) result files to ${OUT_DIR}/"
