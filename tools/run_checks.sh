#!/usr/bin/env bash
# The full local gate: configure, build, and test every preset we ship —
#   default  (RelWithDebInfo, the tier-1 suite + alloc/fault labels)
#   asan     (AddressSanitizer build of the same suite)
#   tsan     (ThreadSanitizer; runs the concurrency-sensitive, fault and
#            elastic labels)
#   bench-smoke (Release build; one tiny config of each BENCH_*-writing
#                bench, JSON written under build-release/results; then a
#                2-second perfbench run of every BENCHMARK.json workload,
#                built under build-release/perfbench)
# Usage: tools/run_checks.sh [preset ...]   (no args = default+asan+tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan tsan)
fi

jobs=$(nproc 2>/dev/null || echo 4)
for preset in "${presets[@]}"; do
  if [ "$preset" = bench-smoke ]; then
    # Smoke the perf artifact pipeline: Release build, then one tiny
    # configuration of every bench that writes a results/BENCH_*.json.
    # Run from the build dir so smoke JSON never clobbers committed results.
    echo "==== [bench-smoke] configure"
    cmake --preset release
    echo "==== [bench-smoke] build"
    cmake --build build-release -j "$jobs" --target \
      bench_overlap bench_dag_overlap bench_micro_collectives \
      bench_micro_compressors bench_micro_compute bench_micro_memory \
      bench_multinode bench_elastic bench_table7_adaptive
    echo "==== [bench-smoke] run"
    (cd build-release && ./bench/bench_overlap --smoke)
    (cd build-release && ./bench/bench_dag_overlap --smoke)
    (cd build-release && ./bench/bench_multinode --smoke)
    (cd build-release && ./bench/bench_elastic --smoke)
    (cd build-release && ./bench/bench_table7_adaptive --smoke)
    (cd build-release && ./bench/bench_micro_collectives --smoke)
    (cd build-release && ./bench/bench_micro_compressors --smoke)
    (cd build-release && ./bench/bench_micro_compute --smoke)
    (cd build-release && ./bench/bench_micro_memory --smoke)
    # The benchmark's own correctness gates (bit-identical ranks, finite
    # and falling losses, the sync workloads' error band): one short run of
    # every workload BENCHMARK.json names. run.py exits nonzero when a
    # check fails, and set -e fails the preset with it.
    echo "==== [bench-smoke] perfbench"
    workloads=$(python3 -c 'import json
spec = json.load(open("BENCHMARK.json"))
print(" ".join(w["name"] for w in spec["workloads"]))')
    for workload in $workloads; do
      CARGO_TARGET_DIR="$PWD/build-release/perfbench" \
        python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2
    done
    continue
  fi
  echo "==== [$preset] configure"
  cmake --preset "$preset"
  case "$preset" in
    default) builddir=build ;;
    *) builddir="build-$preset" ;;
  esac
  echo "==== [$preset] build"
  cmake --build "$builddir" -j "$jobs"
  echo "==== [$preset] test"
  if [ "$preset" = tsan ]; then
    # Sanitizer-interposed allocators and slow full runs aren't the point
    # here: run the concurrency-sensitive subset (includes the
    # memory-subsystem suite — the arena is shared rank/comm-thread state)
    # plus the whole fault and elastic suites, which exercise the one
    # recovery ladder every world runs.
    ctest --test-dir "$builddir" -L "tsan|fault|elastic" --output-on-failure \
      -j "$jobs"
  elif [ "$preset" = asan ]; then
    # Full suite once, plus the memory-subsystem label by itself: arena
    # carving, buffer growth, and the copy kernels are exactly where
    # out-of-bounds writes would hide, so they get a dedicated pass.
    ctest --test-dir "$builddir" --output-on-failure -j "$jobs"
    ctest --test-dir "$builddir" -L memory --output-on-failure -j "$jobs"
  else
    # Twice: once with the SIMD kernels forced scalar and once with runtime
    # dispatch. The kernel layer's contract is that the two runs are
    # bit-identical (tests/util/simd_test.cpp checks per-kernel; this
    # checks the whole suite end to end at both levels). A third pass with
    # NUMA placement disabled proves thread pinning and arena homing never
    # change results (CGX_NUMA=off must reproduce auto bit-for-bit).
    CGX_SIMD=off ctest --test-dir "$builddir" --output-on-failure -j "$jobs"
    CGX_SIMD=auto ctest --test-dir "$builddir" --output-on-failure -j "$jobs"
    CGX_NUMA=off ctest --test-dir "$builddir" --output-on-failure -j "$jobs"
    # The simulated-fabric suite once more by label: virtual-time results
    # must be bit-identical whatever the SIMD/NUMA settings above did.
    ctest --test-dir "$builddir" -L multinode --output-on-failure -j "$jobs"
    # And the elastic-membership suite by label: crash sweeps, the seeded
    # soak, epoch fencing, and rejoin are the robustness tier-1 gate.
    ctest --test-dir "$builddir" -L elastic --output-on-failure -j "$jobs"
    # The DAG-executor suite by label: scheduler unit tests, Graph
    # bit-identity across pool sizes, and the ordered multi-lane streaming
    # composition (its tsan soaks additionally ride the tsan preset).
    ctest --test-dir "$builddir" -L dag --output-on-failure -j "$jobs"
    # The adaptive-policy suite by label: DP solver determinism, hot-swap
    # bit-identity among unchanged layers, and the DGC-vs-plain-topk
    # convergence smoke (also rides the tsan preset).
    ctest --test-dir "$builddir" -L adaptive --output-on-failure -j "$jobs"
  fi
done
echo "==== all presets passed"
