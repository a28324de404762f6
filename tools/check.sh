#!/usr/bin/env bash
# Tier-1 verification: configure + build + ctest, mirroring the ROADMAP
# verify line. Extra arguments are forwarded to CMake, e.g.
#
#   tools/check.sh                           # plain build + tests
#   tools/check.sh -DLEGODB_SANITIZE=address # ASan build + tests
#   tools/check.sh --asan                    # ASan/UBSan build of the
#                                            # executor, serving and storage
#                                            # suites, then three bench
#                                            # smoke gates
#   tools/check.sh --tsan                    # TSan pass over the parallel
#                                            # search, concurrent serving and
#                                            # online-reconfiguration paths
#   tools/check.sh --release-checks          # Release (NDEBUG) build of the
#                                            # invariant/malformed-input suites
#
# --asan builds into build-asan with -DLEGODB_SANITIZE=address,undefined and
# runs the suites whose bugs would be memory bugs: the vectorized executor
# and expression VM (engine_equivalence_test proves reference-vs-vectorized
# bit-identity across batch sizes, under concurrency, and disk-vs-memory
# including forced hash-join spills; engine_test, expr_vm_test), the
# serving layer (serving_test: canonicalization, plan cache, admission
# control, 8-thread bit-identity), and the paged storage backend
# (pager_test, storage_test). Then three smoke gates: micro_engine's
# always-on executor-equality check, the serving bench's startup check that
# cached results are bit-identical to the uncached front end, and a disk
# calibration run with a deliberately small pool whose --require-io fails
# the script if no real buffer-pool IO was measured. Any sanitizer report or
# result mismatch fails the script.
#
# --tsan builds into build-tsan with -DLEGODB_SANITIZE=thread and runs the
# tests exercising the parallel search (search_test, plus the transform and
# pipeline suites that feed it, and robustness_test for budget cancellation
# and failpoints under threads), the concurrent query serving path
# (engine_equivalence_test races executors over one Database's index
# registry; serving_test races 8 clients through the sharded plan cache and
# carries the stale-plan, cancellation and deadline regressions), and online
# reconfiguration (migration_chaos_test races 8 serving threads against a
# migration loop with failpoints at every migrate.* site; storage_test
# covers DbRegistry publish/drain and NextId concurrency) with
# halt_on_error=1, so any reported data race — or any non-bit-identical
# response under migration fire — fails the script.
#
# --release-checks builds into build-release with -DCMAKE_BUILD_TYPE=Release
# and runs the suites covering invariant checks and malformed inputs. This
# proves LEGODB_CHECK still aborts (death tests) and the malformed-input
# paths return clean Statuses with asserts compiled out.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--asan" ]]; then
  shift
  cmake -B build-asan -S . -DLEGODB_SANITIZE=address,undefined "$@"
  cmake --build build-asan -j"$(nproc)" --target \
    engine_equivalence_test engine_test expr_vm_test serving_test \
    pager_test storage_test micro_engine serving calibration
  ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
    -R 'engine_equivalence_test|engine_test|expr_vm_test|serving_test|pager_test|storage_test'
  ./build-asan/bench/micro_engine --benchmark_filter=BM_Fig10Batched/1024 \
    --benchmark_min_time=0.05 > /dev/null
  ./build-asan/bench/serving --threads=1,4,8 --requests=100 > /dev/null
  ./build-asan/bench/calibration --reps=2 --backend=disk --pool-pages=8 \
    --page-size=1024 --require-io > /dev/null
  echo "asan checks passed"
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  shift
  cmake -B build-tsan -S . -DLEGODB_SANITIZE=thread "$@"
  cmake --build build-tsan -j"$(nproc)" --target \
    search_test transforms_test pipeline_test robustness_test \
    engine_equivalence_test serving_test migration_chaos_test storage_test
  export TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}"
  ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
    -R 'search_test|transforms_test|pipeline_test|robustness_test|engine_equivalence_test|serving_test|migration_chaos_test|storage_test'
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

cmake -B build -S . "$@"
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"
