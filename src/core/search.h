#ifndef LEGODB_CORE_SEARCH_H_
#define LEGODB_CORE_SEARCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/cost.h"
#include "core/transforms.h"
#include "core/workload.h"
#include "optimizer/plan.h"
#include "relational/catalog.h"

namespace legodb::core {

// Options for the greedy configuration search (Algorithm 4.1).
struct SearchOptions {
  // Initial configuration derived from the (annotated) input schema.
  enum class Start {
    kAllInlined,   // greedy-si start: everything inlined except collections
    kAllOutlined,  // greedy-so start: everything outlined except base types
    kAsIs,         // normalize the input schema and start from it
  };
  Start start = Start::kAllInlined;

  // Move set offered to the search. The paper's prototype searches over
  // inline/outline; the structural rewritings can be switched on too.
  TransformOptions transforms;

  // Stop when the best candidate improves cost by less than this fraction
  // (0 reproduces the paper's strict Algorithm 4.1 termination).
  double min_relative_improvement = 0;

  // --- Budgets. Algorithm 4.1 stops only when no neighbor improves; a
  // deadline-bound caller instead bounds the work and accepts the
  // best-so-far configuration. Exceeding any budget terminates the search
  // gracefully: the result is always a valid, fully costed configuration,
  // with SearchResult::degraded set and degraded_reason describing which
  // budget ran out. 0 means unlimited (except max_iterations).
  //
  // Candidate/iteration budgets are enforced at deterministic points, so
  // results are bit-for-bit reproducible at any thread count; the
  // wall-clock budget cancels in-flight workers cooperatively and is NOT
  // reproducible (which candidates finished depends on timing).

  // Iteration budget: stop after this many greedy steps.
  int max_iterations = 64;

  // Wall-clock budget for the whole search, milliseconds.
  int64_t budget_ms = 0;

  // Candidate budget: total candidate configurations costed across the
  // run (the initial configuration is not counted).
  int64_t max_candidates = 0;

  // Failpoint spec armed for the duration of this search and disarmed on
  // exit (see common/failpoint.h for the grammar). An invalid spec fails
  // the search with InvalidArgument.
  std::string failpoints;

  // Beam width: 1 reproduces the paper's greedy search; k > 1 keeps the k
  // best configurations per iteration and expands all of them — the
  // "dynamic programming search strategies" extension the paper's
  // Section 7 proposes. The result is the best configuration ever seen.
  int beam_width = 1;

  // Reuse query cost estimates across candidate configurations when the
  // translated SQL and the statistics of the tables it touches are
  // unchanged (most single transformations leave most workload queries
  // untouched). Implements the Section-7 idea of letting the optimizer
  // "reuse partial results from one evaluation to the next". The cache is
  // keyed per query on a collision-safe 64-bit fingerprint of the
  // translated SQL plus the touched tables' statistics, and a dependency
  // memo in front of it skips translating and keying a query whose read
  // types a move left alone (see CachedCoster). Turning it off translates
  // and plans every query of every candidate.
  bool cache_query_costs = true;

  // Worker threads for candidate evaluation: each iteration's neighbors
  // are applied and costed on a small pool. 0 means one worker per
  // hardware thread; 1 reproduces the serial search bit-for-bit. Results
  // (best schema, cost, iteration log) are identical for every thread
  // count: candidates are generated, deduped, and selected in a
  // deterministic order, with parallelism confined to the per-candidate
  // apply/map/translate/plan work.
  int threads = 0;
};

// Counters exposed for tests/benchmarks of the candidate-evaluation
// pipeline. Invariant (when every candidate costs cleanly):
//   cost_evaluations + cache_hits == schemas_costed * |workload queries|
// — every (configuration, query) pair is either planned or served from the
// fingerprint cache, exactly once, at any thread count.
struct SearchStats {
  int64_t cost_evaluations = 0;  // optimizer invocations (query granularity)
  int64_t cache_hits = 0;        // fingerprint-cache hits (query granularity)
  int64_t schemas_costed = 0;    // configurations fully costed (incl. initial)
  int64_t descriptors_enumerated = 0;  // transform descriptors generated
  int64_t dedup_hits = 0;  // candidates skipped by schema-fingerprint dedupe
  // Neighbor evaluations that failed (transform apply, translate or
  // optimizer error — forced by failpoints in tests) and were skipped
  // instead of failing the search. Skipped candidates relax the totals
  // invariant above to ">=": a candidate may fail after some of its
  // queries were already planned or served from the cache.
  int64_t candidates_failed = 0;
  int threads_used = 0;    // resolved worker count
};

struct SearchResult {
  xs::Schema best_schema;
  double best_cost = 0;
  SearchStats stats;

  // Degradation contract: when the search could not run Algorithm 4.1 to
  // convergence with every candidate evaluated — a budget ran out, or
  // candidate evaluations failed and were skipped — `degraded` is true and
  // `degraded_reason` says why. best_schema is still always a valid
  // p-schema (mappable via map::MapSchema) and best_cost its true cost:
  // degradation only means a cheaper configuration might exist.
  bool degraded = false;
  std::string degraded_reason;

  struct IterationLog {
    int iteration = 0;       // 0 is the initial configuration
    double cost = 0;         // cost after this iteration
    std::string applied;     // transformation taken ("" for iteration 0)
    int candidates = 0;      // number of candidates evaluated
    int descriptors = 0;     // transform descriptors enumerated
    int failed = 0;          // candidate evaluations skipped on error
    double elapsed_ms = 0;   // wall time spent on this iteration
    double work_ms = 0;      // summed per-candidate evaluation time; the
                             // ratio work_ms / elapsed_ms is the candidate
                             // concurrency achieved on this iteration (it
                             // overstates wall-clock speedup when workers
                             // outnumber available cores)
  };
  std::vector<IterationLog> trace;
};

// Greedy search for an efficient configuration (Algorithm 4.1): derive the
// initial physical schema, then repeatedly move to the cheapest
// single-transformation neighbour until no move improves the cost.
StatusOr<SearchResult> GreedySearch(const xs::Schema& annotated_schema,
                                    const Workload& workload,
                                    const opt::CostParams& params,
                                    const SearchOptions& options);

// The two search variants of Section 5.2.
SearchOptions GreedySiOptions();  // start all-inlined, apply outlining
SearchOptions GreedySoOptions();  // start all-outlined, apply inlining

// Cost-cache keys for the translated queries of one configuration. A key
// hashes the query's structure — publish flag, block count, and per block
// the relations, outputs, join edges and filters, columns by position:
// every field QueryBlock::ToSql renders — and folds in, per relation, a
// fingerprint of its table by name, not index (row count, each column's
// name, type, width, null fraction, distincts and range in position order,
// and its FKs' positions and parents' names), so keys match across
// candidates. Fingerprints fill one slot per table index on first
// use: a keyer hashes a table once however many queries touch it. In the
// search, a query is keyed only when the dependency memo (CachedCoster)
// misses, so these hashes are paid for the tables of queries a move may
// have changed.
// Not thread-safe.
class CostCacheKeyer {
 public:
  explicit CostCacheKeyer(const rel::Catalog& catalog)
      : catalog_(catalog), table_hashes_(catalog.size()) {}

  // Aborts when `query` names a table outside the catalog.
  uint64_t Key(const opt::RelQuery& query);

 private:
  uint64_t TableHash(int index);

  const rel::Catalog& catalog_;
  std::vector<std::optional<uint64_t>> table_hashes_;  // by table index
};

// Costs a workload against candidate configurations for the search,
// reusing a query's estimate across configurations in two steps:
//  - the cost cache: per query, the cost planned for each cost-cache key
//    (CostCacheKeyer) of its translation;
//  - in front of it, the dependency memo. Each translation records the
//    mapped types it read (xlat::TypeReads), kept by type name: its read
//    set. A configuration's dependency key for a read set folds, after the
//    root's name, for each type the translation used, the body fingerprint
//    the schema stored, the name, the instance count and the parent links
//    (each parent's name and instance count), and for each type it only
//    entered, the name and the entries (element names, hops, union
//    alternatives). Those determine the translation and the statistics of
//    every table it touches, so a key met before stands for the same
//    cost-cache key and cost, and the query is neither translated nor
//    keyed. It counts as the cache hit it would have been: each memo entry
//    is written together with the cost-cache entry it came from.
// A candidate is keyed under the read sets of configurations it likely
// shares them with (Cost's `hints`): its parent's, since a move rarely
// changes which types a query reads, then those of the same move one
// iteration earlier, which read the types a move removes. The initial
// configuration, and every query whose keys all miss, is translated.
//
// Thread-safe: Cost() may run concurrently for different configurations.
// The per-query caches and memos sit behind one mutex (lookups are cheap;
// translation and planning run outside the lock), and the counters are
// atomic. Two workers missing the same key concurrently may both plan it
// (both count as evaluations), so per (configuration, query) exactly one
// of {cache_hit, cost_evaluation} is recorded and the totals invariant of
// SearchStats holds at any thread count.
class CachedCoster {
 public:
  // The types one translation read, by name hash, each list sorted: those
  // it used, and those it only entered.
  struct ReadSet {
    std::vector<uint64_t> used;
    std::vector<uint64_t> entered;
  };

  // What Cost() did for one workload query.
  struct QueryCost {
    double cost = 0;
    uint64_t key = 0;        // the cost-cache key (0 when caching is off)
    bool memo_hit = false;   // served by the dependency memo, untranslated
    std::shared_ptr<const ReadSet> reads;  // set when caching is on
  };

  CachedCoster(const Workload& workload, const opt::CostParams& params,
               bool enabled);

  // The weighted cost of `pschema`: queries, then updates. `hints` are
  // what Cost() reported for other configurations, tried in order for
  // each query's read set; `queries`, when given, receives one entry per
  // workload query.
  StatusOr<double> Cost(
      const xs::Schema& pschema,
      std::span<const std::vector<QueryCost>* const> hints = {},
      std::vector<QueryCost>* queries = nullptr);

  void FillStats(SearchStats* stats) const;

 private:
  struct MemoEntry {
    uint64_t key;
    double cost;
    std::shared_ptr<const ReadSet> reads;
  };
  struct QueryCache {
    std::unordered_map<uint64_t, double> costs;       // by cost-cache key
    std::unordered_map<uint64_t, MemoEntry> memo;     // by dependency key
  };

  const Workload& workload_;
  const opt::CostParams& params_;
  bool enabled_;
  std::mutex mu_;
  std::vector<QueryCache> caches_;  // by workload query
  std::atomic<int64_t> cost_evaluations_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> schemas_costed_{0};
};

// The key of one query, from a fresh keyer (for callers keying one query).
uint64_t CostCacheFingerprint(const opt::RelQuery& query,
                              const rel::Catalog& catalog);

}  // namespace legodb::core

#endif  // LEGODB_CORE_SEARCH_H_
