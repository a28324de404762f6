#ifndef LEGODB_SERVING_SERVER_H_
#define LEGODB_SERVING_SERVER_H_

// Concurrent query front end over one versioned store::DbRegistry.
//
// A QueryServer turns raw XQuery text into results through a cached
// prepared-plan pipeline:
//
//   canonicalize (lexical)  ->  plan-cache lookup by fingerprint
//     hit:  bind the request's parameters into the cached plan's compiled
//           templates and execute — no parse, no translate, no optimize
//     miss: parse -> translate -> optimize -> compile templates
//           (engine::PreparedPrograms), publish to the cache, execute
//
// Concurrency model: each request pins one DbVersion (registry->Current())
// for its whole lifetime, so it always sees one consistent
// (mapping, database, generation) snapshot even while a Migrator swaps the
// configuration underneath. Serve() is safe from any number of threads —
// the cache is internally sharded/locked, prepared plans are immutable
// shared_ptrs tagged with the generation they were compiled against (a
// stale entry degrades to a miss + recompile, never a wrong-catalog
// execution), and each request runs its own Executor.
//
// Admission control follows the SearchOptions budget pattern: a bounded
// in-flight request count (exceeding it is a graceful Status::Unavailable,
// the caller's cue to retry — see serving/retry.h — or shed load) and a
// per-request wall-clock budget enforced twice: before execution
// (rejecting a request that burned its budget in the front end) and
// *during* execution, as an absolute deadline the engine polls once per
// exchanged vector (ExecOptions::deadline_ns). Requests may also carry a
// common::CancelToken, polled at the same granularity. The cache path
// carries a failpoint site (`serving.cache_lookup`) so robustness tests
// can force the degraded path.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/cancel.h"
#include "common/check.h"
#include "common/status.h"
#include "engine/executor.h"
#include "mapping/mapping.h"
#include "serving/canonicalize.h"
#include "serving/plan_cache.h"
#include "storage/database.h"
#include "storage/db_registry.h"
#include "xquery/result.h"

namespace legodb::serving {

// Bounded in-flight request counter (the "max concurrent sessions" half of
// admission control). Lock-free; usable on its own in tests.
class AdmissionController {
 public:
  // 0 = unbounded (requests are still counted).
  explicit AdmissionController(size_t max_inflight) : max_(max_inflight) {}

  // True and counted when below the bound; false (not counted) otherwise.
  bool TryAdmit() {
    size_t cur = inflight_.load(std::memory_order_relaxed);
    while (true) {
      if (max_ != 0 && cur >= max_) return false;
      if (inflight_.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_acq_rel)) {
        return true;
      }
    }
  }

  void Release() {
    size_t prev = inflight_.fetch_sub(1, std::memory_order_acq_rel);
    // An unpaired Release would wrap the unsigned counter to ~2^64, which
    // TryAdmit reads as "below any bound" — admission control silently off.
    LEGODB_DCHECK(prev > 0, "AdmissionController::Release without admit");
    (void)prev;
  }

  size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  size_t max_inflight() const { return max_; }

 private:
  size_t max_;
  std::atomic<size_t> inflight_{0};
};

struct ServerOptions {
  // Plan-cache geometry: mutex-striped shards, LRU capacity per shard.
  size_t cache_shards = 8;
  size_t cache_capacity_per_shard = 64;
  // Admission: max concurrently served requests (0 = unbounded) and the
  // default per-request wall-clock budget in ms (0 = no deadline).
  size_t max_inflight = 0;
  double request_budget_ms = 0;
  // Engine knobs for every served execution.
  engine::ExecOptions exec;
};

struct RequestOptions {
  // The caller's symbolic parameter bindings (c1, c2, ...). Names starting
  // with "__p" are reserved for canonicalized literals.
  std::map<std::string, Value> params;
  // Per-request budget override: < 0 uses the server default, 0 disables
  // the deadline, > 0 is a budget in ms.
  double budget_ms = -1;
  // Cooperative cancellation: checked before execution and once per
  // exchanged vector during it (Status::Cancelled). Not owned; must
  // outlive the request.
  const common::CancelToken* cancel = nullptr;
};

struct Response {
  xq::ResultSet result;
  bool cache_hit = false;
  // Database generation this request executed against (the version pinned
  // at admission; see storage/db_registry.h).
  uint64_t generation = 0;
  // Front-end time: canonicalize + cache lookup, plus
  // parse/translate/optimize/template-compile on a miss. The plan cache's
  // whole point is driving this to ~0 on hits.
  double front_end_ms = 0;
  double exec_ms = 0;
};

class QueryServer {
 public:
  // `registry` must hold a loaded (ideally prewarmed) initial version and
  // outlive the server. A Migrator may publish new versions concurrently
  // with serving.
  explicit QueryServer(store::DbRegistry* registry, ServerOptions options = {});

  // Convenience for the common fixed-configuration case: wraps `db` and
  // `mapping` (non-owning; both must outlive the server) in an internal
  // single-version registry.
  QueryServer(store::Database* db, const map::Mapping* mapping,
              ServerOptions options = {});

  // Builds every hash index and decodes every paged table of the *current*
  // version up front so first requests don't pay (or contend on) lazy
  // builds.
  Status Prewarm();

  // Serves one query. Thread-safe. Unavailable when over the in-flight
  // bound; DeadlineExceeded when the wall-clock budget runs out (before or
  // during execution); Cancelled when the request's token fires.
  StatusOr<Response> Serve(const std::string& query_text,
                           const RequestOptions& request = {});

  PlanCache::Stats CacheStats() const { return cache_.GetStats(); }
  size_t inflight() const { return admission_.inflight(); }
  // Direct admission-controller access so tests can occupy in-flight slots
  // and exercise the Unavailable/retry path deterministically.
  AdmissionController& admission_for_test() { return admission_; }
  const ServerOptions& options() const { return options_; }
  store::DbRegistry* registry() const { return registry_; }

 private:
  StatusOr<std::shared_ptr<const PreparedPlan>> PrepareMiss(
      const CanonicalQuery& canonical, const store::DbVersion& version);

  std::unique_ptr<store::DbRegistry> owned_registry_;  // compat ctor only
  store::DbRegistry* registry_;
  ServerOptions options_;
  PlanCache cache_;
  AdmissionController admission_;
};

}  // namespace legodb::serving

#endif  // LEGODB_SERVING_SERVER_H_
