#!/usr/bin/env bash
# One-command verification gate (referenced from README "Development"):
#
#   scripts/check.sh            tier-1 build + full ctest sweep
#                               + asan build of the policy tier (write
#                                 cache, policies and their repeat-store
#                                 lane, admission/wear suites,
#                                 `ctest -L policy`)
#                               + asan pass of the recovery tier (undo-log
#                                 units, image-corruption fuzzer + salvage
#                                 units, `ctest -L recovery`)
#                               + asan pass of the crash tier (every
#                                 `crash` target: MDB crash suite, crash
#                                 matrix, write-back route, the crash-state
#                                 and image-corruption fuzzers;
#                                 `ctest -L crash`, case count checked
#                                 against tier-1)
#                               + scalar build (NVC_NO_SIMD=ON) of the
#                                 policy tier and the paper goldens: the
#                                 write cache's search and shift and the
#                                 analysis kernels must match their AVX2
#                                 paths bit for bit (`ctest -L policy`,
#                                 `ctest -R paper_golden`)
#                               + tsan pass of the concurrency suites (the
#                                 `tsan` label: flush-behind ring with N
#                                 producers and helping drains, the flush
#                                 elision table's producers against one
#                                 retiring executor, the fuzz differential
#                                 with real threads and a real worker;
#                                 `ctest --preset tsan`)
#                               + the bench regression gate when a fresh
#                                 BENCH_micro.json exists at the repo root
#   scripts/check.sh --e2e      the above + the end-to-end benchmark built
#                                 into .bench_build/e2e (as bench/e2e/run.py
#                                 does) and its quick ctest: every workload
#                                 at --quick size and every planted bug
#
# Rule the tier-1 sweep enforces (`knob_table`): the libraries read no
# environment. Under src/, outside the test helpers in src/testing/, the
# only "NVC_*" literal is NVC_PMEM_DIR; every other setting is a config
# field that bench/harness.cpp or a test sets.
#
# Flags / env:
#   --no-asan        skip the asan tiers (e.g. hosts without the rt)
#   --no-scalar      skip the scalar-kernel tier
#   --no-tsan        skip the tsan concurrency tier
#   --no-bench       skip the compare.py gate
#   --e2e            also build and test bench/e2e (opt-in; under a minute
#                    once built)
#   CTEST_PARALLEL   ctest -j value (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${CTEST_PARALLEL:-$(nproc)}"
run_asan=1
run_scalar=1
run_tsan=1
run_bench=1
run_e2e=0
for arg in "$@"; do
  case "$arg" in
    --no-asan) run_asan=0 ;;
    --no-scalar) run_scalar=0 ;;
    --no-tsan) run_tsan=0 ;;
    --no-bench) run_bench=0 ;;
    --e2e) run_e2e=1 ;;
    *) echo "usage: scripts/check.sh [--no-asan] [--no-scalar] [--no-tsan]" \
            "[--no-bench] [--e2e]" >&2
       exit 2 ;;
  esac
done

echo "== tier-1: default build + full test sweep =="
cmake --preset default >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build -j "$jobs" --output-on-failure

if [ "$run_asan" = 1 ]; then
  echo "== asan: policy tier (write cache, policies, admission + wear) =="
  cmake --preset asan >/dev/null
  cmake --build build-asan -j "$(nproc)" \
      --target test_write_cache test_policy test_admission test_fuzz_crash
  ctest --test-dir build-asan -L policy -j "$jobs" --output-on-failure

  # The hardened-recovery tier (DESIGN.md §14) walks deliberately hostile
  # bytes — exactly where an out-of-bounds read would hide — so the
  # image-corruption fuzzer and the salvage units get a dedicated asan pass.
  echo "== asan: recovery tier (undo log, salvage units, image fuzzer) =="
  cmake --build build-asan -j "$(nproc)" \
      --target test_undo_log test_recovery_units test_recovery_fuzz
  ctest --test-dir build-asan -L recovery -j "$jobs" --output-on-failure

  # The crash suites drive the production Runtime over the shadow
  # power-failure model, so an out-of-bounds access anywhere in the
  # FASE/pstore shell, the write-back route or recovery shows up here.
  # gtest discovery lists only the cases of binaries that were built, so
  # every target carrying a `crash` label is built, and the tier fails if
  # it lists fewer cases than the full build.
  echo "== asan: crash tier (crash suites, fuzzers) =="
  cmake --build build-asan -j "$(nproc)" --target test_mdb_crash \
      test_crash_matrix test_write_back_route test_fuzz_crash \
      test_recovery_fuzz
  crash_cases() {
    ctest --test-dir "$1" -N -L crash | sed -n 's/^Total Tests: //p'
  }
  full_cases=$(crash_cases build)
  asan_cases=$(crash_cases build-asan)
  if [ "$asan_cases" != "$full_cases" ]; then
    echo "asan crash tier lists $asan_cases crash cases," \
         "the full build $full_cases: build the missing targets" >&2
    exit 1
  fi
  ctest --test-dir build-asan -L crash -j "$jobs" --output-on-failure
fi

# Every AVX2 path (the write cache's four-wide search and shift, the
# analysis kernels of common/simd.hpp) promises a bit-identical scalar
# fallback, which only an NVC_NO_SIMD build compiles. The goldens replay
# whole workloads through both the cache and the analysis pipeline.
if [ "$run_scalar" = 1 ]; then
  echo "== scalar: policy tier + paper goldens (NVC_NO_SIMD=ON) =="
  cmake --preset scalar >/dev/null
  cmake --build build-scalar -j "$(nproc)" \
      --target test_write_cache test_policy test_admission test_fuzz_crash \
      $(python3 scripts/golden.py --targets)
  ctest --test-dir build-scalar -L policy -j "$jobs" --output-on-failure
  ctest --test-dir build-scalar -R paper_golden --output-on-failure
fi

# The lock-free handoffs (SPSC rings, the flush ring's consumer lock shared
# by the worker's sweeps and helping drains) are only checked for data
# races under ThreadSanitizer. The whole tree is built so that every suite
# carrying the label runs.
if [ "$run_tsan" = 1 ]; then
  echo "== tsan: concurrency suites (ctest --preset tsan) =="
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j "$(nproc)"
  ctest --preset tsan -j "$jobs"
fi

if [ "$run_bench" = 1 ]; then
  if [ -f BENCH_micro.json ]; then
    echo "== bench: regression gate (bench/compare.py) =="
    python3 bench/compare.py
  else
    echo "== bench: no BENCH_micro.json at repo root; run" \
         "./build/bench/micro_gbench first (skipping gate) =="
  fi
fi

if [ "$run_e2e" = 1 ]; then
  # Same build directory and generator choice as bench/e2e/run.py, so the
  # two share one build; nothing under bench/e2e is written.
  echo "== e2e: benchmark build + quick ctest (bench/e2e) =="
  e2e_build=.bench_build/e2e
  if [ ! -f "$e2e_build/build.ninja" ] && [ ! -f "$e2e_build/Makefile" ]; then
    generator=()
    if command -v ninja >/dev/null; then generator=(-G Ninja); fi
    cmake -S bench/e2e -B "$e2e_build" "${generator[@]}" >/dev/null
  fi
  cmake --build "$e2e_build" -j "$(nproc)"
  ctest --test-dir "$e2e_build" --output-on-failure
fi

echo "check.sh: all selected gates passed"
