#!/usr/bin/env bash
# Tier-1 gate: configure + build + ctest in one command.
#
#   ./ci.sh             # normal mode (warnings allowed) + fig9/12/13/15/16/17 smokes
#   STRICT=1 ./ci.sh    # -Werror: any warning fails the build
#   TSAN=1 ./ci.sh      # ThreadSanitizer build; runs the threaded wasp/net tests
#   ASAN=1 ./ci.sh      # Address+UBSanitizer build; runs the snapshot/memory tests
#   SOAK=1 ./ci.sh      # default lane + the full fig17 chaos/soak run (longer)
#   BUILD_DIR=out ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

WERROR=OFF
if [[ "${STRICT:-0}" == "1" ]]; then
  WERROR=ON
fi

# Counts the gtest cases a binary would run (indented lines of --gtest_list_tests
# are cases; unindented ones are suites), so the per-lane summary makes a shrunk
# lane visible in the log.
count_gtests() {
  "$1" --gtest_list_tests 2>/dev/null | grep -c '^  ' || true
}

if [[ "${TSAN:-0}" == "1" ]]; then
  # ThreadSanitizer gate for the concurrent invocation engine (lock-free
  # shell fast path: lane caches + tagged Treiber stacks, cleaner crew,
  # executor, governance layer).  test_wasp_concurrency carries the PR 7
  # stress suite — the mixed-op conservation stress and the Treiber-stack
  # ABA/conservation regressions run under TSan here.  Separate build dir:
  # TSan objects don't mix.
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  TSAN_TESTS=(test_wasp test_wasp_concurrency test_snapshot_engine test_governance
              test_net test_http_server_concurrency test_fault_injection test_recovery
              test_listener)
  cmake -B "$BUILD_DIR" -S . -DVIRTINES_WERROR="$WERROR" \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${TSAN_TESTS[@]}"
  total=0
  for t in "${TSAN_TESTS[@]}"; do
    (cd "$BUILD_DIR" && "./$t")
    total=$((total + $(count_gtests "$BUILD_DIR/$t")))
  done
  echo "[ci] tsan lane: ${#TSAN_TESTS[@]} binaries, ${total} gtest cases"
  exit 0
fi

if [[ "${ASAN:-0}" == "1" ]]; then
  # Address+UBSan gate for the memory-heavy paths: COW extent buffers and
  # chains, write-privatization bitmaps, snapshot capture/restore, pool
  # residency accounting, and the interpreter's fast paths (a fixed-width
  # fetch window and direct data accesses copied out of guest memory), which
  # the vcc, boot, runtime and HTTP-handler suites drive hardest.  Separate
  # build dir: sanitizer objects don't mix.
  BUILD_DIR="${BUILD_DIR:-build-asan}"
  ASAN_TESTS=(test_snapshot_engine test_wasp test_wasp_concurrency test_governance
              test_cpu test_isa test_fault_injection test_recovery test_listener
              test_vcc_deep test_boot_smoke test_vrt test_net
              test_http_server_concurrency)
  cmake -B "$BUILD_DIR" -S . -DVIRTINES_WERROR="$WERROR" \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${ASAN_TESTS[@]}"
  total=0
  for t in "${ASAN_TESTS[@]}"; do
    (cd "$BUILD_DIR" && "./$t")
    total=$((total + $(count_gtests "$BUILD_DIR/$t")))
  done
  echo "[ci] asan lane: ${#ASAN_TESTS[@]} binaries, ${total} gtest cases"
  exit 0
fi

BUILD_DIR="${BUILD_DIR:-build}"
cmake -B "$BUILD_DIR" -S . -DVIRTINES_WERROR="$WERROR"
cmake --build "$BUILD_DIR" -j"$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$(nproc)")
# Multicore throughput + lock-free acquire smoke, swept to 16 lanes: fails
# (non-zero) if pooled-async scaling drops below the 4x-at-8-threads floor,
# if fewer than 95% of steady-state acquires are served lock-free (lane
# cache + Treiber free-list), or if acquire p99 at 16 lanes grows past
# max(2x the 1-lane p99, the scheduler-noise floor) — the lock-free fast
# path cannot silently regress back onto the shard mutex.
(cd "$BUILD_DIR" && ./fig9_multicore_scaling --quick)
# Delta-restore + COW-density smoke: fails (non-zero) if affine warm snapshot
# restore cost ever scales with image size again (16 MB vs 64 KB image at a
# fixed working set must stay under 1.5x), or if 64 parked COW shells of one
# 16 MB generation ever cost 2x the 1-shell resident baseline (shared extents
# must keep fleet residency O(image + working sets)).
(cd "$BUILD_DIR" && ./fig12_image_size --quick)
# Concurrent-serving smoke: a small 2-lane run of the executor-backed HTTP
# server in all three modes, then a real-socket sweep through the epoll
# listener; fails (non-zero) on any wrong response, admission-counter
# mismatch, or if HTTP keep-alive stops paying (snapshot-mode socket RPS at
# 8 requests/connection must beat connection-per-request).
(cd "$BUILD_DIR" && ./fig13_http_server --quick)
# Serverless replay smoke: fig15 on a shortened bursty pattern over the same
# 8 lanes; fails (non-zero) unless the replay serves every arrival and its
# cold starts fall in 1..lanes (only the invocations in flight before the
# first snapshot is published can boot cold).
(cd "$BUILD_DIR" && ./fig15_serverless --quick)
# Governance smoke: the fig16 gates on a shortened trace — per-key quota
# bounds the interactive key's p99 queue wait within 2x of isolation at
# <10% aggregate RPS cost, COW extents keep 64 keys warm (>10x the
# full-copy capacity) under the same budget with zero evictions through a
# recapture/retire loop, and three-tier key_quota_overrides order admission
# monotonically (premium > standard > free) under one identical flood.
(cd "$BUILD_DIR" && ./fig16_multitenant --quick)
# Chaos smoke: fig17's containment/storm/soak/recovery gates on shortened
# runs — every injected FaultKind classifies and quarantines (no faulted
# shell is ever re-acquired affine, the quarantine ledger balances), a fault
# storm on one key keeps the co-tenant's p99 within 2x of fault-free, a
# paced soak leaves zero gauge drift and zero resident bytes after
# retirement, and the phase-4 recovery run gates the circuit breaker's
# goodput at >= 1.5x the breaker-off run under the same 33% storm (with
# retry-exactly-once accounting conserved at every observation).
(cd "$BUILD_DIR" && ./fig17_chaos --quick)
# SOAK=1: the full chaos + wall-clock soak run (minutes, not seconds) —
# same gates, more rounds, real pacing — plus a wall-clock-paced keep-alive
# soak of the socket front end in every serve mode.
if [[ "${SOAK:-0}" == "1" ]]; then
  (cd "$BUILD_DIR" && ./fig17_chaos --soak)
  (cd "$BUILD_DIR" && ./fig13_http_server --soak)
fi
# Per-lane coverage summary: the ctest suite count plus per-binary gtest
# case totals, so a lane silently losing tests shows up in the log.
suites=$(cd "$BUILD_DIR" && ctest -N | tail -n1 | tr -dc '0-9')
cases=0
for t in "$BUILD_DIR"/test_*; do
  [[ -x "$t" ]] || continue
  cases=$((cases + $(count_gtests "$t")))
done
echo "[ci] default lane: ${suites} ctest suites, ${cases} gtest cases, 6 bench smokes"
