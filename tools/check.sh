#!/usr/bin/env bash
# Tier-1 verification: configure + build + ctest, mirroring the ROADMAP
# verify line. Extra arguments are forwarded to CMake, e.g.
#
#   tools/check.sh                           # plain build + tests
#   tools/check.sh -DLEGODB_SANITIZE=address # ASan build + tests
#   tools/check.sh --asan                    # ASan/UBSan build of the
#                                            # catalog, optimizer, executor,
#                                            # malformed-input, end-to-end,
#                                            # serving, storage,
#                                            # shred/reconstruct, schema,
#                                            # p-schema, transform, mapping,
#                                            # translation, update-costing,
#                                            # search and XML-substrate
#                                            # suites, then two
#                                            # bench smoke gates
#   tools/check.sh --tsan                    # TSan pass over the parallel
#                                            # search, concurrent serving,
#                                            # online-reconfiguration and
#                                            # paged-decode paths
#   tools/check.sh --release-checks          # Release (NDEBUG) build of the
#                                            # invariant/malformed-input suites,
#                                            # the schema and p-schema suites,
#                                            # the engine and end-to-end suites
#                                            # and the mapping, optimizer,
#                                            # translation and update-costing
#                                            # goldens
#
# --asan builds into build-asan with -DLEGODB_SANITIZE=address,undefined and
# runs the suites whose bugs would be memory bugs: the catalog and the
# suites that build catalogs and queries by hand (relational_test,
# compare_ops_test: queries, foreign keys and databases name tables by
# catalog index, so a stale index reads out of bounds), the join-order
# optimizer (optimizer_test, costmodel_test: its DP memo is a flat array
# indexed by relation-subset mask, so an indexing slip reads out of
# bounds), the vectorized executor and expression VM
# (engine_equivalence_test proves reference-vs-vectorized bit-identity
# across batch sizes, under concurrency, and disk-vs-memory including
# forced hash-join spills; engine_test, expr_vm_test), the serving layer (serving_test: canonicalization, plan cache, admission
# control, 8-thread bit-identity), and the paged storage backend
# (pager_test, storage_test), plus the two suites that shred and
# reconstruct through the per-type programs, which hold pointers into the
# mapping's schema and the database's columns and indexes:
# fuzz_roundtrip_test (generated documents, every foreign-key hash index
# probed through its span API) and equivalence_test (its
# CrossConfigRoundTrip covers every IMDB configuration). It runs the suites
# over the schema's type table, which keeps each type's references as
# indexes and renumbers them when a type is undefined or collected:
# xschema_test, pschema_test (its TypeTable test checks every search
# start and single-move neighbour against name resolution) and
# transforms_test. It also runs the candidate-costing suites
# whose layers index flat vectors by id or hold node pointers into the
# mapping's schema: the mapper's instance-count fixpoint and entry lists
# (mapping_test), query translation's interned variables, route deltas and
# body positions (translate_test), update costing, which resolves its paths
# through the same body positions (update_test), and the search's
# cost-cache keys and dependency memo, whose read sets index each
# configuration's mapped types (search_test). Queries, plans, foreign keys
# and stored tables name columns by position, so a missed range check is an
# out-of-bounds read: it runs robustness_test, whose malformed-input cases
# hand the optimizer and both executors positions outside their tables
# and plan nodes naming relations outside their block, and
# pipeline_test and auction_test, which run translated queries end to end
# against the DOM evaluator. The XML substrate hands out views into each
# document's arena, so a read after the arena is freed is a use after free:
# it runs xml_test (moved and reset documents, the parser's error paths),
# xquery_test (the DOM evaluator walks those views) and imdb_test (the
# generator builds a whole document through the arena). Then two smoke
# gates: micro_engine's always-on
# executor-equality check, and a disk calibration run with a deliberately
# small pool whose --require-io fails the script if no real buffer-pool IO
# was measured. Any sanitizer report or result mismatch fails the script.
# (The cached-vs-uncached bit-identity the serving bench used to check at
# startup is serving_test's HitSkipsFrontEndAndMatchesUncached and
# ConcurrentServingIsBitIdentical, 8 clients, in the suite run above.)
#
# --tsan builds into build-tsan with -DLEGODB_SANITIZE=thread and runs the
# tests exercising the parallel search (search_test, whose dependency-memo
# differential costs candidates at two workers through one shared memo,
# plus the transform and
# pipeline suites that feed it, and robustness_test for budget cancellation
# and failpoints under threads), the concurrent query serving path
# (engine_equivalence_test races executors over one Database's index
# registry; serving_test races 8 clients through the sharded plan cache and
# carries the stale-plan, cancellation and deadline regressions), and online
# reconfiguration (migration_chaos_test races 8 serving threads against a
# migration loop with failpoints at every migrate.* site; storage_test
# covers DbRegistry publish/drain and NextId concurrency), and the paged
# table's decode-once columns (pager_test races eight first requests for
# different columns and indexes of one freshly loaded table) with
# halt_on_error=1, so any reported data race — or any non-bit-identical
# response under migration fire — fails the script.
#
# --release-checks builds into build-release with -DCMAKE_BUILD_TYPE=Release
# and runs the suites covering invariant checks and malformed inputs. This
# proves LEGODB_CHECK still aborts (death tests) and the malformed-input
# paths return clean Statuses with asserts compiled out. It runs
# xschema_test and pschema_test there too: Normalize's CheckPhysical guard
# is a LEGODB_DCHECK that NDEBUG compiles out, so the type-table digest,
# the stored body fingerprints and Normalize's sharing of untouched bodies
# must hold without it. It also runs the
# suites that pin candidate costing bit for bit: mapping_test (the
# MappingGolden catalog digest), optimizer_test (the golden plan digests and
# the join enumeration's reference comparison), translate_test (the
# TranslateGolden SQL digest) and update_test (update costs), so they hold
# under the optimization level perfbench builds with, not only under the
# default RelWithDebInfo build. It runs engine_test and pipeline_test there
# as well, so that opt::CheckPlan's verdicts and the outer-join orientation
# and self-join regressions hold at that optimization level.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--asan" ]]; then
  shift
  cmake -B build-asan -S . -DLEGODB_SANITIZE=address,undefined "$@"
  cmake --build build-asan -j"$(nproc)" --target \
    optimizer_test costmodel_test engine_equivalence_test engine_test \
    expr_vm_test serving_test pager_test storage_test fuzz_roundtrip_test \
    equivalence_test xschema_test pschema_test transforms_test mapping_test \
    translate_test update_test search_test relational_test compare_ops_test \
    robustness_test pipeline_test auction_test xml_test xquery_test imdb_test \
    micro_engine calibration
  ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
    -R '^(relational_test|compare_ops_test|optimizer_test|costmodel_test|engine_equivalence_test|engine_test|expr_vm_test|serving_test|pager_test|storage_test|fuzz_roundtrip_test|equivalence_test|xschema_test|pschema_test|transforms_test|mapping_test|translate_test|update_test|search_test|robustness_test|pipeline_test|auction_test|xml_test|xquery_test|imdb_test)$'
  ./build-asan/bench/micro_engine --benchmark_filter=BM_Fig10Batched/1024 \
    --benchmark_min_time=0.05 > /dev/null
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
    engine_equivalence_test serving_test migration_chaos_test storage_test \
    pager_test
  export TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}"
  ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
    -R '^(search_test|transforms_test|pipeline_test|robustness_test|engine_equivalence_test|serving_test|migration_chaos_test|storage_test|pager_test)$'
  exit 0
fi

if [[ "${1:-}" == "--release-checks" ]]; then
  shift
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release "$@"
  cmake --build build-release -j"$(nproc)" --target \
    robustness_test search_test common_test relational_test \
    storage_test mapping_test optimizer_test translate_test update_test \
    xschema_test pschema_test engine_test pipeline_test
  ctest --test-dir build-release --output-on-failure -j"$(nproc)" \
    -R '^(robustness_test|search_test|common_test|relational_test|storage_test|mapping_test|optimizer_test|translate_test|update_test|xschema_test|pschema_test|engine_test|pipeline_test)$'
  exit 0
fi

cmake -B build -S . "$@"
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"
