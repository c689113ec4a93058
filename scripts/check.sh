#!/usr/bin/env bash
# The whole static + dynamic analysis gate in one command:
#
#   1. bhpo_lint        repo invariants (determinism primitives, unordered
#                       iteration in score paths, [[nodiscard]] Status,
#                       raw new/delete/std::thread) over src/ bench/ tests/
#   2. tier-1           Release build + full ctest
#   3. clang-tidy       bugprone-*/concurrency-*/performance-* profile
#                       (skipped with a note when clang-tidy is not installed)
#   4. ASan+UBSan       cache + thread-pool + gather/tree-golden suites, the
#                       matmul kernels at every tile width (the 4-lane
#                       tile's unaligned edge loads, the 8-lane tile's
#                       masked ones), the tanh bodies, the MLP goldens, every
#                       optimizer (suites + goldens), the CSV/LibSVM loader
#                       suite, fold construction and grouping (GenFolds,
#                       BuildGrouping, the k-fold builders) and the
#                       FaultSmoke runs
#   5. TSan             ThreadPool / fold-parallel CV / EvalCache suites and
#                       the contended stress test under -fsanitize=thread
#   6. faults           (--faults) the fault-tolerance suites plus the
#                       FaultSmoke strategies re-run under a 30% mixed-fault
#                       BHPO_FAULT storm — every bandit must finish and
#                       report honest fault counters
#
# or, with --bench, only the noise-aware perf gate:
#
#   bench               scripts/bench_gate.py over the newest BENCH_e2e.json
#                       entry (runs no benchmark): fails when some workload's
#                       end-to-end median is worse than the parent's by more
#                       than its BENCHMARK.json bound and the two
#                       interquartile ranges do not overlap
#
# Usage: scripts/check.sh [--fast] [--skip-asan] [--skip-tsan] [--faults]
#        scripts/check.sh --bench
#   --fast       lint + tier-1 only (skips every sanitizer rebuild and tidy)
#   --skip-asan  skip the ASan pass
#   --skip-tsan  skip the TSan pass
#   --faults     also run the dedicated fault-injection pass. Only the
#                fault-designed suites run under BHPO_FAULT: injecting into
#                the whole tier-1 run would (by design) break its bit-exact
#                determinism assertions.
#   --bench      only run the perf gate above and exit (builds nothing)
set -euo pipefail
cd "$(dirname "$0")/.."

run_asan=1
run_tsan=1
run_tidy=1
run_faults=0
run_bench=0
for arg in "$@"; do
  case "$arg" in
    --fast) run_asan=0; run_tsan=0; run_tidy=0 ;;
    --skip-asan) run_asan=0 ;;
    --skip-tsan) run_tsan=0 ;;
    --faults) run_faults=1 ;;
    --bench) run_bench=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

if [[ "$run_bench" == 1 ]]; then
  echo "== bench: noise-aware gate over the newest BENCH_e2e.json entry =="
  exec python3 scripts/bench_gate.py BENCH_e2e.json
fi

jobs="$(nproc 2>/dev/null || echo 4)"

echo "== lint: bhpo_lint over src/ bench/ tests/ =="
cmake --preset default >/dev/null
cmake --build build -j"$jobs" --target bhpo_lint
./build/tools/bhpo_lint src/ bench/ tests/

echo "== tier-1: build + ctest (Release) =="
cmake --build build -j"$jobs"
ctest --test-dir build --output-on-failure

if [[ "$run_tidy" == 1 ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy: bugprone/concurrency/performance profile =="
    cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    # Lint the library sources; headers ride along via HeaderFilterRegex.
    find src tools -name '*.cc' -print0 |
      xargs -0 clang-tidy -p build --quiet
  else
    echo "== clang-tidy not found; skipping (install it or use the tidy preset) =="
  fi
fi

if [[ "$run_asan" == 1 ]]; then
  echo "== ASan+UBSan: cache + thread-pool + gather/tree + matmul + optimizer + loader + fold suites =="
  cmake --preset asan >/dev/null
  cmake --build build-asan -j"$jobs" \
    --target bhpo_hpo_test bhpo_common_test bhpo_data_test bhpo_ml_test \
             bhpo_cv_test bhpo_stress_test bhpo_fault_test

  ./build-asan/tests/bhpo_hpo_test \
    --gtest_filter='EvalCache*:CachingStrategy*:FoldCache*:CacheTransparency*'
  # Every optimizer records through the run ledger, which owns the history
  # and the configurations in it: run them all, goldens included.
  ./build-asan/tests/bhpo_hpo_test \
    --gtest_filter='Sha*:Hyperband*:Bohb*:Dehb*:Asha*:Pasha*:Smac*:Tpe*:OptimizerGolden*:RunLedger*:AllOptimizers/*'
  ./build-asan/tests/bhpo_fault_test --gtest_filter='FaultSmoke*'
  ./build-asan/tests/bhpo_common_test --gtest_filter='*ThreadPool*'
  # Gather kernel (against the scalar reference and the naive loop, on
  # edge widths and misaligned rows) + column-blocked trees under ASan.
  ./build-asan/tests/bhpo_common_test \
    --gtest_filter='Gather*:ColBlockMatrix*:MatrixSelectRowsGather*'
  ./build-asan/tests/bhpo_data_test --gtest_filter='GatherBitExact*'
  # Matmul kernels at every tile width the CPU has, on the 1..123-column
  # edge widths: an unaligned vector load past the end of a row shows up
  # here, and the sentinel test catches a masked 8-lane store past the last
  # row. The leading * also matches the TileWidths/ parameterized suite.
  ./build-asan/tests/bhpo_common_test --gtest_filter='*MatrixKernels*:Matrix*'
  ./build-asan/tests/bhpo_ml_test \
    --gtest_filter='TreeLayoutBitExact*:AllCells/MlpGolden*'
  # The tanh bodies on the recorded bits, the libm sweep and n = 0..17
  # between sentinels: a masked 8-lane load or store past the end of the
  # view shows up here.
  ./build-asan/tests/bhpo_ml_test --gtest_filter='TanhBodies/*:TanhDispatch*'
  # The CSV and LibSVM loaders parse untrusted bytes: every reject path
  # runs under the sanitizers too.
  ./build-asan/tests/bhpo_data_test --gtest_filter='IoTest*'
  # Fold construction indexes per-fold quotas and per-group pools by
  # caller-supplied counts: an out-of-bounds slot shows up here.
  ./build-asan/tests/bhpo_cv_test \
    --gtest_filter='GenFolds*:BuildGrouping*:*FoldBuilder*'
  ./build-asan/tests/bhpo_stress_test
else
  echo "== ASan pass skipped =="
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "== TSan: thread-pool + fold-parallel CV + eval-cache + stress =="
  cmake --preset tsan >/dev/null
  cmake --build build-tsan -j"$jobs" \
    --target bhpo_common_test bhpo_cv_test bhpo_hpo_test bhpo_stress_test
  ctest --test-dir build-tsan --output-on-failure \
    -R 'bhpo_tsan_(thread_pool|cv_parallel|eval_cache|stress)'
else
  echo "== TSan pass skipped =="
fi

if [[ "$run_faults" == 1 ]]; then
  echo "== faults: registry/guard/smoke suites + 30% mixed-fault storm =="
  cmake --build build -j"$jobs" \
    --target bhpo_fault_test bhpo_hpo_test bhpo_integration_test
  # Clean run first: the same binaries assert all-zero fault counters when
  # BHPO_FAULT is unset.
  ./build/tests/bhpo_fault_test
  ./build/tests/bhpo_hpo_test --gtest_filter='Checkpoint*:EvalCacheFailure*'
  ./build/tests/bhpo_integration_test --gtest_filter='CheckpointResume*'
  # The storm: every strategy completes under a 30% mixed-fault profile on
  # the global injector and reports non-zero fault counters.
  BHPO_FAULT='rate=0.3,seed=7' \
    ./build/tests/bhpo_fault_test --gtest_filter='FaultSmoke*'
else
  echo "== fault-injection pass skipped (enable with --faults) =="
fi

echo "All checks passed."
