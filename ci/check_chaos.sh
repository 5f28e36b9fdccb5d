#!/usr/bin/env bash
# Chaos check: run tools/chaos_driver under AddressSanitizer — seeded
# fault schedules (disk faults, I/O dispatch failures + latency, host
# kills mid-sharing, spill failures, tight deadlines) over the full SSB
# query set. The driver exits nonzero if any query hangs, crashes,
# surfaces a non-injected error, or returns OK with rows that differ
# from the unfaulted reference; ASan turns any heap misuse on the error
# paths into a hard failure.
#
# Two runs: the fixed seed 42 (the schedule CI always replays) plus one
# random seed, logged so a failure can be reproduced with
#   ./build-asan/chaos_driver <seed>
#
# Usage: ci/check_chaos.sh [build_dir]   (default: build-asan)
# An existing build_dir must already be an ASan tree (SHARING_ASAN=ON):
# the script refuses to reconfigure a release tree behind its owner's back.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

CACHE="$BUILD_DIR/CMakeCache.txt"
if [[ -f "$CACHE" ]] && ! grep -qiE '^SHARING_ASAN:BOOL=(ON|TRUE|YES|Y|1)$' "$CACHE"; then
  echo "check_chaos: $BUILD_DIR is not an ASan build (SHARING_ASAN is off" \
       "in $CACHE); pass an ASan build directory or a new one" >&2
  exit 2
fi

cmake -B "$BUILD_DIR" -S . -DSHARING_ASAN=ON >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target chaos_driver

RANDOM_SEED="$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')"

for seed in 42 "$RANDOM_SEED"; do
  echo "check_chaos: seed=$seed"
  "./$BUILD_DIR/chaos_driver" "$seed"
done

echo "check_chaos: OK (seeds: 42, $RANDOM_SEED)"
