#!/usr/bin/env bash
# Tier-1 verification: configure + build + ctest, mirroring the ROADMAP
# verify line. Extra arguments are forwarded to CMake, e.g.
#
#   tools/check.sh                           # plain build + tests
#   tools/check.sh -DLEGODB_SANITIZE=address # ASan build + tests
#   tools/check.sh --tsan                    # TSan pass over the parallel
#                                            # candidate-evaluation path
#   tools/check.sh --release-checks          # Release (NDEBUG) build of the
#                                            # invariant/malformed-input suites
#   tools/check.sh --bench-json              # small-scale bench run merged
#                                            # into build/BENCH_results.json
#   tools/check.sh --vectorized              # ASan/UBSan build of the
#                                            # columnar executor + expr VM:
#                                            # reference-equality gates, then
#                                            # a bench baseline via
#                                            # bench_report
#   tools/check.sh --serving                 # ASan/UBSan build of the
#                                            # serving layer: serving_test +
#                                            # the concurrent serving bench's
#                                            # bit-identity gate, report
#                                            # merged + compared against the
#                                            # committed BENCH_results.json
#   tools/check.sh --chaos                   # TSan build of the online-
#                                            # reconfiguration path: the
#                                            # migration chaos harness
#                                            # (serving threads vs. looping
#                                            # migrations with failpoints)
#                                            # plus serving_test and the
#                                            # registry/drain storage suites
#   tools/check.sh --disk                    # ASan/UBSan build of the paged
#                                            # storage backend: pager/buffer-
#                                            # pool suites, disk-vs-memory
#                                            # bit-identity gates, serving on
#                                            # disk, then a disk calibration
#                                            # smoke that must observe real
#                                            # buffer-pool IO (--require-io)
#
# --tsan builds into build-tsan with -DLEGODB_SANITIZE=thread and runs the
# tests exercising the parallel search (search_test, plus the transform and
# pipeline suites that feed it, and robustness_test for budget cancellation
# and failpoints under threads) and the concurrent query serving path
# (engine_equivalence_test races executors over one Database's index
# registry; serving_test races 8 clients through the sharded plan cache)
# with halt_on_error=1, so any reported data race fails the script.
#
# --release-checks builds into build-release with -DCMAKE_BUILD_TYPE=Release
# and runs the suites covering invariant checks and malformed inputs. This
# proves LEGODB_CHECK still aborts (death tests) and the malformed-input
# paths return clean Statuses with asserts compiled out.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--tsan" ]]; then
  shift
  cmake -B build-tsan -S . -DLEGODB_SANITIZE=thread "$@"
  cmake --build build-tsan -j"$(nproc)" --target \
    search_test transforms_test pipeline_test robustness_test \
    engine_equivalence_test serving_test
  export TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}"
  ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
    -R 'search_test|transforms_test|pipeline_test|robustness_test|engine_equivalence_test|serving_test'
  exit 0
fi

# --chaos: the online-reconfiguration path under ThreadSanitizer. Builds
# the migration chaos harness (8 serving threads racing a migration loop
# with failpoints armed at every migrate.* site), serving_test (which
# carries the stale-plan-cache, cancellation, and deadline-mid-execution
# regressions), and storage_test (DbRegistry publish/drain and NextId
# concurrency) into build-tsan, then runs them with halt_on_error=1 so any
# data race — or any non-bit-identical response under migration fire —
# fails the script.
if [[ "${1:-}" == "--chaos" ]]; then
  shift
  cmake -B build-tsan -S . -DLEGODB_SANITIZE=thread "$@"
  cmake --build build-tsan -j"$(nproc)" --target \
    migration_chaos_test serving_test storage_test
  export TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}"
  ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
    -R 'migration_chaos_test|serving_test|storage_test'
  exit 0
fi

if [[ "${1:-}" == "--release-checks" ]]; then
  shift
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release "$@"
  cmake --build build-release -j"$(nproc)" --target \
    robustness_test search_test common_test relational_test \
    storage_test mapping_test
  ctest --test-dir build-release --output-on-failure -j"$(nproc)" \
    -R 'robustness_test|search_test|common_test|relational_test|storage_test|mapping_test'
  exit 0
fi

# --vectorized: the columnar-execution equality gates under
# address+undefined sanitizers. Builds the vectorized executor, expression
# VM, and their suites into build-vec, runs the reference-vs-vectorized
# bit-identity tests (engine_equivalence_test across batch sizes and under
# concurrency, engine_test for operator semantics, expr_vm_test for the
# bytecode) plus micro_engine's always-on equality gate, and captures the
# run's bench baseline into build-vec/BENCH_results.json via bench_report.
# Any sanitizer report or result mismatch fails the script.
if [[ "${1:-}" == "--vectorized" ]]; then
  shift
  cmake -B build-vec -S . -DLEGODB_SANITIZE=address,undefined "$@"
  cmake --build build-vec -j"$(nproc)" --target \
    engine_equivalence_test engine_test expr_vm_test micro_engine bench_report
  ctest --test-dir build-vec --output-on-failure -j"$(nproc)" \
    -R 'engine_equivalence_test|engine_test|expr_vm_test'
  # micro_engine verifies reference-vs-vectorized equality on startup and
  # exits nonzero on any mismatch; one quick benchmark keeps the obs report
  # non-empty for the baseline merge.
  ./build-vec/bench/micro_engine --benchmark_filter=BM_Fig10Batched/1024 \
    --benchmark_min_time=0.05 --obs-out=build-vec/BENCH_micro_engine.json \
    > /dev/null
  ./build-vec/tools/bench_report merge build-vec/BENCH_results.json \
    build-vec/BENCH_micro_engine.json
  echo "vectorized equality gates passed; baseline in build-vec/BENCH_results.json"
  exit 0
fi

# --serving: the concurrent serving layer under address+undefined
# sanitizers. Builds the serving tests and bench into build-serving, runs
# serving_test (canonicalization, plan cache, admission control, 8-thread
# bit-identity), then the serving bench at smoke scale — its startup gate
# re-proves cached results bit-identical to the uncached front end before
# any timing. The bench's obs report (cache hit/miss counters, latency
# histograms, per-thread-count gauges) is merged into
# build-serving/BENCH_results.json and compared against the committed
# baseline so serving-path regressions show up as a table, not silently.
if [[ "${1:-}" == "--serving" ]]; then
  shift
  cmake -B build-serving -S . -DLEGODB_SANITIZE=address,undefined "$@"
  cmake --build build-serving -j"$(nproc)" --target \
    serving_test serving bench_report
  ctest --test-dir build-serving --output-on-failure -j"$(nproc)" \
    -R 'serving_test'
  ./build-serving/bench/serving --threads=1,4,8 --requests=100 \
    build-serving/BENCH_serving.json
  ./build-serving/tools/bench_report merge build-serving/BENCH_results.json \
    build-serving/BENCH_serving.json
  ./build-serving/tools/bench_report compare BENCH_results.json \
    build-serving/BENCH_results.json
  echo "serving checks passed; report in build-serving/BENCH_results.json"
  exit 0
fi

# --disk: the disk-backed storage path under address+undefined sanitizers.
# Builds the pager/buffer-pool suite, the storage suite, the disk-vs-memory
# bit-identity gates in engine_equivalence_test (including forced hash-join
# spills and 8-thread concurrent serving on a paged database), and
# serving_test into build-disk; then runs the calibration bench on the disk
# backend with a deliberately small pool so estimates are checked against
# *real* buffer-pool faults — --require-io makes the run fail if no page
# traffic was measured (i.e. if the backend silently fell back to memory).
if [[ "${1:-}" == "--disk" ]]; then
  shift
  cmake -B build-disk -S . -DLEGODB_SANITIZE=address,undefined "$@"
  cmake --build build-disk -j"$(nproc)" --target \
    pager_test storage_test engine_equivalence_test serving_test calibration
  ctest --test-dir build-disk --output-on-failure -j"$(nproc)" \
    -R 'pager_test|storage_test|engine_equivalence_test|serving_test'
  ./build-disk/bench/calibration --reps=2 --backend=disk --pool-pages=8 \
    --page-size=1024 --require-io build-disk/BENCH_calibration_disk.json \
    > /dev/null
  echo "disk backend checks passed; calibration in build-disk/BENCH_calibration_disk.json"
  exit 0
fi

# --bench-json: the bench-trajectory pipeline at smoke scale. Runs
# micro_engine (executor-equality gate + one quick benchmark) and
# calibration with their obs reports enabled, merges them with bench_report
# into build/BENCH_results.json, and double-checks the merged file parses
# as an obs report (merge already validates; the compare call proves the
# file is consumable downstream). Any invalid JSON fails the script.
if [[ "${1:-}" == "--bench-json" ]]; then
  shift
  cmake -B build -S . "$@"
  cmake --build build -j"$(nproc)" --target micro_engine calibration bench_report
  ./build/bench/micro_engine --benchmark_filter=BM_XmlParse \
    --benchmark_min_time=0.05 --obs-out=build/BENCH_micro_engine.json \
    > /dev/null
  ./build/bench/calibration --reps=2 build/BENCH_calibration.json > /dev/null
  ./build/tools/bench_report merge build/BENCH_results.json \
    build/BENCH_micro_engine.json build/BENCH_calibration.json
  ./build/tools/bench_report compare build/BENCH_results.json \
    build/BENCH_results.json > /dev/null
  echo "bench trajectory written to build/BENCH_results.json"
  exit 0
fi

cmake -B build -S . "$@"
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"
