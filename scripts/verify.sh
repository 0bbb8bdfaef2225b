#!/usr/bin/env bash
# Tier-1 verify: configure, build, and run the test suite.
# Usage: scripts/verify.sh [build-dir]
# Extra cmake options (e.g. -DFEDRA_SANITIZE=ON) pass through via
# FEDRA_CMAKE_ARGS.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# Determinism lint first: no build needed, fails fast. The self-test proves
# the lint's own rules still fire before the rules are trusted on src/.
python3 scripts/lint_determinism.py --self-test
python3 scripts/lint_determinism.py src
echo "lint: determinism lint clean on src/"

# The end-to-end benchmark's statistics (quartiles, bounds, the pair-win
# rule compare.py applies) on synthetic inputs; pure Python, no build.
python3 bench/e2e/test_e2e_stats.py

# shellcheck disable=SC2086  # word-splitting of the extra args is the point
cmake -B "$BUILD_DIR" -S . ${FEDRA_CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Trainer-level smoke runs: drive the examples end-to-end after the unit
# suite so whole-trainer regressions surface even when every unit test
# passes. All finish in seconds. deep_tree_fda additionally CHECKs the
# hierarchical scheduler's uplink savings against flat FDA; churn_fda
# CHECKs FDA's accuracy and bounded uplink overhead under worker churn and
# message loss against a fault-oblivious FedAvg strawman; fleet_fda
# (shrunk via FEDRA_FLEET_SMOKE) CHECKs the paged-store fleet: a sampled
# 10^4-client population learning under churn in O(cohort + touched drift)
# memory with FDA out-communicating every-round FedAvg; compressed_fleet_fda
# CHECKs the WireCodec pipeline on that same fleet — top-k + 8-bit sync
# payloads with error feedback paged through the client store must cut
# uplink sync bytes >= 4x at the same accuracy target. async_edge is the
# one example on DistributedTrainer::RunAsync (event-driven FDA over edge
# stragglers).
"$BUILD_DIR/quickstart" > /dev/null
"$BUILD_DIR/hierarchical_fda" > /dev/null
"$BUILD_DIR/deep_tree_fda" > /dev/null
"$BUILD_DIR/churn_fda" > /dev/null
"$BUILD_DIR/async_edge" > /dev/null
FEDRA_FLEET_SMOKE=1 "$BUILD_DIR/fleet_fda" > /dev/null
FEDRA_FLEET_SMOKE=1 "$BUILD_DIR/compressed_fleet_fda" > /dev/null
echo "smoke: quickstart + hierarchical_fda + deep_tree_fda + churn_fda" \
     "+ async_edge + fleet_fda + compressed_fleet_fda OK"

# bench_compression_compat runs FDA end to end with the q8, q4 and top-k
# codec presets against the paper's §2 claim that compression composes with
# FDA. It exits 0 even when a check fails, so gate on its verdict line.
compat_out="$("$BUILD_DIR/bench_compression_compat")"
if ! grep -qx "compression_compat PASS" <<< "$compat_out"; then
  echo "$compat_out"
  echo "smoke: bench_compression_compat did not print" \
       "'compression_compat PASS'" >&2
  exit 1
fi
echo "smoke: bench_compression_compat PASS"

# bench_async_stragglers runs BSP FDA against async FDA (RunAsync) with and
# without stragglers and checks the paper's §3.3 claims. Like
# bench_compression_compat it exits 0 when a claim fails, so gate on its
# verdict line.
async_out="$("$BUILD_DIR/bench_async_stragglers")"
if ! grep -qx "async_stragglers PASS" <<< "$async_out"; then
  echo "$async_out"
  echo "smoke: bench_async_stragglers did not print" \
       "'async_stragglers PASS'" >&2
  exit 1
fi
echo "smoke: bench_async_stragglers PASS"
