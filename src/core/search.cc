#include "core/search.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/hash.h"
#include "core/parallel.h"
#include "obs/obs.h"
#include "optimizer/optimizer.h"
#include "translate/translate.h"
#include "xschema/fingerprint.h"

namespace legodb::core {

SearchOptions GreedySiOptions() {
  SearchOptions o;
  o.start = SearchOptions::Start::kAllInlined;
  o.transforms.inline_types = false;
  o.transforms.outline_elements = true;
  return o;
}

SearchOptions GreedySoOptions() {
  SearchOptions o;
  o.start = SearchOptions::Start::kAllOutlined;
  o.transforms.inline_types = true;
  o.transforms.outline_elements = false;
  return o;
}

namespace {

// FNV-1a over a stream of fields, each string prefixed by its length.
class FieldHasher {
 public:
  void Int(int64_t v) { h_ = common::HashBytes(&v, sizeof(v), h_); }
  void Str(const std::string& s) { h_ = common::HashString(s, h_); }
  void Fold(uint64_t v) { h_ = common::HashCombine(h_, v); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

uint64_t TableStatsHash(const rel::Catalog& catalog, const rel::Table& t) {
  uint64_t h = common::HashString(t.name);
  h = common::HashDouble(t.row_count, h);
  h = common::HashInt(static_cast<int64_t>(t.columns.size()), h);
  for (const auto& col : t.columns) {
    h = common::HashCombine(h, common::HashString(col.name));
    h = common::HashInt(static_cast<int64_t>(col.type.kind), h);
    h = common::HashDouble(col.type.width, h);
    h = common::HashInt(col.nullable ? 1 : 0, h);
    h = common::HashDouble(col.null_fraction, h);
    h = common::HashDouble(col.distincts, h);
    h = common::HashInt(col.min, h);
    h = common::HashInt(col.max, h);
  }
  for (const auto& fk : t.foreign_keys) {
    h = common::HashInt(fk.column, h);
    h = common::HashCombine(
        h, common::HashString(catalog.table(fk.parent).name));
  }
  return h;
}

}  // namespace

uint64_t CostCacheKeyer::TableHash(int index) {
  const rel::Table& table = catalog_.table(index);
  std::optional<uint64_t>& h = table_hashes_[index];
  if (!h) h = TableStatsHash(catalog_, table);
  return *h;
}

uint64_t CostCacheKeyer::Key(const opt::RelQuery& query) {
  FieldHasher h;
  h.Int(query.publish ? 1 : 0);
  h.Int(static_cast<int64_t>(query.blocks.size()));
  for (const opt::QueryBlock& block : query.blocks) {
    h.Int(static_cast<int64_t>(block.rels.size()));
    for (const opt::BaseRel& rel : block.rels) {
      h.Str(rel.alias);
      h.Fold(TableHash(rel.table));
    }
    h.Int(static_cast<int64_t>(block.output.size()));
    for (const opt::ColumnRef& out : block.output) {
      h.Int(out.rel);
      h.Int(out.column);
    }
    h.Int(static_cast<int64_t>(block.joins.size()));
    for (const opt::JoinEdge& j : block.joins) {
      h.Int(j.left_rel);
      h.Int(j.left_column);
      h.Int(j.right_rel);
      h.Int(j.right_column);
      h.Int(j.left_outer ? 1 : 0);
    }
    h.Int(static_cast<int64_t>(block.filters.size()));
    for (const opt::FilterPred& f : block.filters) {
      h.Int(f.rel);
      h.Int(f.column);
      h.Int(f.not_null ? 1 : 0);
      if (f.not_null) continue;  // op and value are ignored
      h.Int(static_cast<int64_t>(f.op));
      h.Int(static_cast<int64_t>(f.value.kind));
      switch (f.value.kind) {
        case xq::Constant::Kind::kSymbol:
          h.Str(f.value.symbol);
          break;
        case xq::Constant::Kind::kInt:
          h.Int(f.value.int_value);
          break;
        case xq::Constant::Kind::kString:
          h.Str(f.value.string_value);
          break;
      }
    }
  }
  return common::Mix64(h.value());
}

uint64_t CostCacheFingerprint(const opt::RelQuery& query,
                              const rel::Catalog& catalog) {
  return CostCacheKeyer(catalog).Key(query);
}

namespace {

// One configuration's view for dependency keys: each mapped type's name
// hash, its dependency hash when used (stored body fingerprint, name,
// instance count, parent links) and when only entered (name and entries,
// hashed on first use), and the types by name hash.
class DependencyKeys {
 public:
  explicit DependencyKeys(const map::Mapping& mapping) : mapping_(mapping) {
    const std::vector<map::TypeMapping>& types = mapping.types();
    names_.reserve(types.size());
    by_name_.reserve(types.size());
    for (size_t i = 0; i < types.size(); ++i) {
      names_.push_back(common::HashString(types[i].type_name));
      by_name_.emplace_back(names_.back(), static_cast<int>(i));
    }
    std::sort(by_name_.begin(), by_name_.end());
    used_.reserve(types.size());
    for (size_t i = 0; i < types.size(); ++i) {
      const map::TypeMapping& tm = types[i];
      uint64_t h = common::HashCombine(names_[i], tm.body_fingerprint);
      h = common::HashDouble(tm.instance_count, h);
      h = common::HashInt(static_cast<int64_t>(tm.parents.size()), h);
      for (int parent : tm.parents) {
        h = common::HashCombine(h, names_[parent]);
        h = common::HashDouble(types[parent].instance_count, h);
      }
      used_.push_back(h);
    }
    entered_.assign(types.size(), 0);
  }

  // The read set of one translation.
  std::shared_ptr<const CachedCoster::ReadSet> Names(
      const xlat::TypeReads& reads) const {
    auto names = [&](const std::vector<int>& types) {
      std::vector<uint64_t> out;
      out.reserve(types.size());
      for (int t : types) out.push_back(names_[t]);
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    };
    auto set = std::make_shared<CachedCoster::ReadSet>();
    set->used = names(reads.used);
    set->entered = names(reads.entered);
    std::erase_if(set->entered, [&](uint64_t name) {
      return std::binary_search(set->used.begin(), set->used.end(), name);
    });
    return set;
  }

  // The dependency key of `reads` in this configuration, or nullopt when a
  // type it names is not mapped here.
  std::optional<uint64_t> Key(const CachedCoster::ReadSet& reads) {
    uint64_t h = names_[mapping_.root()];
    for (uint64_t name : reads.used) {
      const int t = Find(name);
      if (t < 0) return std::nullopt;
      h = common::HashCombine(h, used_[t]);
    }
    h = common::HashInt(static_cast<int64_t>(reads.used.size()), h);
    for (uint64_t name : reads.entered) {
      const int t = Find(name);
      if (t < 0) return std::nullopt;
      h = common::HashCombine(h, Entered(t));
    }
    return common::Mix64(h);
  }

 private:
  int Find(uint64_t name) const {
    auto it = std::lower_bound(by_name_.begin(), by_name_.end(),
                               std::make_pair(name, 0));
    return it != by_name_.end() && it->first == name ? it->second : -1;
  }

  // What a path step reads of type `t` when it only enters it.
  uint64_t Entered(int t) {
    uint64_t& h = entered_[t];
    if (h != 0) return h;
    const map::TypeMapping& tm = mapping_.type(t);
    h = common::HashInt(tm.virtual_union ? 1 : 0, names_[t]);
    for (int alt : tm.union_alternatives) {
      h = common::HashCombine(h, names_[alt]);
    }
    for (const map::TypeMapping::Entry& entry : tm.entries) {
      if (!entry.node) {
        h = common::HashCombine(h, names_[entry.hop]);
        continue;
      }
      h = common::HashInt(static_cast<int64_t>(entry.node->name.kind), h);
      h = common::HashCombine(h, common::HashString(entry.node->name.name));
    }
    h |= 1;  // never 0, the mark of a hash not yet taken
    return h;
  }

  const map::Mapping& mapping_;
  std::vector<uint64_t> names_;    // by mapped type index
  std::vector<uint64_t> used_;     // by mapped type index
  std::vector<uint64_t> entered_;  // by mapped type index, 0 until hashed
  std::vector<std::pair<uint64_t, int>> by_name_;
};

}  // namespace

CachedCoster::CachedCoster(const Workload& workload,
                           const opt::CostParams& params, bool enabled)
    : workload_(workload),
      params_(params),
      enabled_(enabled),
      caches_(workload.queries.size()) {}

StatusOr<double> CachedCoster::Cost(
    const xs::Schema& pschema,
    std::span<const std::vector<QueryCost>* const> hints,
    std::vector<QueryCost>* queries) {
  LEGODB_FAILPOINT("search.cost_schema");
  schemas_costed_.fetch_add(1, std::memory_order_relaxed);
  obs::Count("search.schemas_costed");
  LEGODB_ASSIGN_OR_RETURN(map::Mapping mapping, map::MapSchema(pschema));
  opt::Optimizer optimizer(mapping.catalog(), params_);
  CostCacheKeyer keyer(mapping.catalog());
  std::optional<DependencyKeys> deps;
  if (enabled_) deps.emplace(mapping);
  std::vector<QueryCost> costs(workload_.queries.size());
  double total = 0;
  for (size_t i = 0; i < workload_.queries.size(); ++i) {
    const WorkloadQuery& wq = workload_.queries[i];
    QueryCost& qc = costs[i];
    for (size_t h = 0; enabled_ && !qc.memo_hit && h < hints.size(); ++h) {
      // Keyed under a hint's read set: a hit needs no translation.
      const std::shared_ptr<const ReadSet>& hint = (*hints[h])[i].reads;
      if (!hint || (h > 0 && hint == (*hints[h - 1])[i].reads)) continue;
      std::optional<uint64_t> dep = deps->Key(*hint);
      if (!dep) continue;
      std::lock_guard<std::mutex> lock(mu_);
      auto it = caches_[i].memo.find(*dep);
      if (it != caches_[i].memo.end()) {
        qc = QueryCost{it->second.cost, it->second.key, true,
                       it->second.reads};
      }
    }
    if (qc.memo_hit) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      obs::Count("search.cache_hits");
      obs::Count("search.memo_hits");
      total += wq.weight * qc.cost;
      continue;
    }
    xlat::TypeReads reads;
    LEGODB_ASSIGN_OR_RETURN(
        opt::RelQuery rq,
        xlat::TranslateQuery(wq.query, mapping, enabled_ ? &reads : nullptr));
    std::optional<double> cached;
    if (enabled_) {
      qc.key = keyer.Key(rq);
      qc.reads = deps->Names(reads);
      std::lock_guard<std::mutex> lock(mu_);
      auto it = caches_[i].costs.find(qc.key);
      if (it != caches_[i].costs.end()) cached = it->second;
    }
    if (cached) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      obs::Count("search.cache_hits");
      qc.cost = *cached;
    } else {
      LEGODB_ASSIGN_OR_RETURN(opt::PlannedQuery planned,
                              optimizer.PlanQuery(rq));
      cost_evaluations_.fetch_add(1, std::memory_order_relaxed);
      obs::Count("search.cost_evaluations");
      qc.cost = planned.total_cost;
    }
    if (enabled_) {
      // The memo entry and the cost-cache entry it stands for land
      // together, so a later memo hit is a hit the cache would have given.
      const uint64_t dep = *deps->Key(*qc.reads);
      std::lock_guard<std::mutex> lock(mu_);
      const double cost =
          caches_[i].costs.emplace(qc.key, qc.cost).first->second;
      caches_[i].memo.emplace(dep, MemoEntry{qc.key, cost, qc.reads});
    }
    total += wq.weight * qc.cost;
  }
  for (const auto& op : workload_.updates) {
    LEGODB_ASSIGN_OR_RETURN(double cost, CostUpdate(mapping, op, params_));
    total += op.weight * cost;
  }
  if (queries) *queries = std::move(costs);
  return total;
}

void CachedCoster::FillStats(SearchStats* stats) const {
  stats->cost_evaluations = cost_evaluations_.load();
  stats->cache_hits = cache_hits_.load();
  stats->schemas_costed = schemas_costed_.load();
}

namespace {

struct BeamEntry {
  xs::Schema schema;
  double cost = 0;
  std::vector<CachedCoster::QueryCost> queries;  // what costing it found
};

// One candidate move of an iteration: a descriptor against a beam entry,
// materialized into a schema (phase A) and costed (phase B) on demand.
struct CandidateItem {
  size_t entry = 0;  // index into the beam
  TransformDescriptor desc;
  std::optional<xs::Schema> schema;  // set when the descriptor applied OK
  uint64_t fingerprint = 0;
  bool unique = false;  // survived fingerprint dedupe
  std::optional<double> cost;  // set when costing succeeded
  std::vector<CachedCoster::QueryCost> queries;  // what costing it found
  // What costing the same move found one iteration earlier, if it ran.
  const std::vector<CachedCoster::QueryCost>* previous = nullptr;
  // Evaluation-guard bookkeeping: a phase that ran but produced no result
  // is a skipped candidate (counted, never fatal); a phase that never ran
  // (wall-clock cancellation) is neither.
  bool apply_attempted = false;
  bool cost_attempted = false;
  std::string error;  // first error seen for this candidate
};

}  // namespace

StatusOr<SearchResult> GreedySearch(const xs::Schema& annotated_schema,
                                    const Workload& workload,
                                    const opt::CostParams& params,
                                    const SearchOptions& options) {
  fp::EnableFromEnvOnce();
  fp::ScopedFailpoints scoped_failpoints(options.failpoints);
  LEGODB_RETURN_IF_ERROR(scoped_failpoints.status());
  obs::Span search_span("search");
  int64_t phase_start = obs::NowNanos();
  const int64_t deadline_ns =
      options.budget_ms > 0 ? phase_start + options.budget_ms * 1000000 : 0;
  auto past_deadline = [deadline_ns]() {
    return deadline_ns != 0 && obs::NowNanos() >= deadline_ns;
  };
  xs::Schema initial;
  switch (options.start) {
    case SearchOptions::Start::kAllInlined:
      initial = ps::AllInlined(annotated_schema);
      break;
    case SearchOptions::Start::kAllOutlined:
      initial = ps::AllOutlined(annotated_schema);
      break;
    case SearchOptions::Start::kAsIs:
      initial = ps::Normalize(annotated_schema);
      break;
  }

  SearchResult result;
  const int threads = ResolveThreads(options.threads);
  result.stats.threads_used = threads;
  CachedCoster coster(workload, params, options.cache_query_costs);
  double initial_cost;
  std::vector<CachedCoster::QueryCost> initial_queries;
  {
    obs::Span initial_span("search.initial_cost");
    LEGODB_ASSIGN_OR_RETURN(initial_cost,
                            coster.Cost(initial, {}, &initial_queries));
  }

  int beam_width = std::max(1, options.beam_width);
  std::vector<BeamEntry> beam = {
      BeamEntry{initial, initial_cost, std::move(initial_queries)}};
  xs::Schema best_schema = std::move(initial);
  double best_cost = initial_cost;
  // Fingerprints of configurations already evaluated anywhere in the run.
  std::set<uint64_t> seen = {xs::FingerprintSchema(best_schema)};

  result.trace.push_back(SearchResult::IterationLog{
      0, best_cost, "", 0, 0, 0,
      static_cast<double>(obs::NowNanos() - phase_start) / 1e6, 0});

  // "" while the search is on the clean Algorithm-4.1 path; set to the
  // degradation reason when a budget runs out. Convergence ("no neighbor
  // improves") is the only non-degraded way out of the loop.
  std::string stop_reason;
  std::string first_error;  // first skipped candidate's error, for diagnosis
  bool converged = false;
  int64_t candidates_budgeted = 0;  // against options.max_candidates

  // What costing found for each move of the last iteration, by signature.
  std::unordered_map<std::string, std::vector<CachedCoster::QueryCost>>
      previous;

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    if (past_deadline()) {
      stop_reason = "wall-clock budget (" +
                    std::to_string(options.budget_ms) + "ms) exhausted";
      break;
    }
    obs::Span iter_span("search.iteration");
    int64_t iter_start = obs::NowNanos();
    obs::Count("search.iterations");

    // Enumerate transform descriptors against every beam entry — cheap:
    // no candidate schema is materialized here.
    std::vector<CandidateItem> items;
    for (size_t e = 0; e < beam.size(); ++e) {
      for (auto& desc :
           EnumerateTransformations(beam[e].schema, options.transforms)) {
        CandidateItem item;
        item.entry = e;
        item.desc = std::move(desc);
        items.push_back(std::move(item));
      }
    }
    result.stats.descriptors_enumerated +=
        static_cast<int64_t>(items.size());
    obs::Count("search.descriptors_enumerated",
               static_cast<int64_t>(items.size()));

    // Phase A (parallel): apply each descriptor and fingerprint the
    // resulting schema. The evaluation guard turns a transform failure on
    // one neighbor into a skipped candidate; the wall-clock deadline
    // cancels workers cooperatively (unclaimed candidates never run).
    std::atomic<int64_t> work_ns{0};
    CancelToken cancel;
    ParallelFor(
        items.size(), threads,
        [&](size_t k) {
          if (past_deadline()) {
            cancel.Cancel();
            return;
          }
          int64_t t0 = obs::NowNanos();
          CandidateItem& item = items[k];
          item.apply_attempted = true;
          auto next = ApplyTransformation(beam[item.entry].schema, item.desc);
          if (next.ok()) {
            item.fingerprint = xs::FingerprintSchema(next.value());
            item.schema = std::move(next).value();
          } else {
            item.error = next.status().ToString();
          }
          work_ns.fetch_add(obs::NowNanos() - t0, std::memory_order_relaxed);
        },
        &cancel);

    // Dedupe sequentially in descriptor order, so the surviving candidate
    // for any fingerprint is the same at every thread count.
    for (auto& item : items) {
      if (!item.schema) continue;
      if (seen.insert(item.fingerprint).second) {
        item.unique = true;
      } else {
        ++result.stats.dedup_hits;
        obs::Count("search.dedup_hits");
      }
    }

    // Phase B (parallel): cost the surviving candidates, truncated to the
    // remaining candidate budget. Truncation happens on the
    // deterministically ordered todo list, so a candidate budget yields
    // bit-for-bit identical results at every thread count.
    std::vector<size_t> todo;
    for (size_t k = 0; k < items.size(); ++k) {
      if (items[k].unique) todo.push_back(k);
    }
    bool candidate_budget_hit = false;
    if (options.max_candidates > 0) {
      int64_t remaining = options.max_candidates - candidates_budgeted;
      if (remaining < static_cast<int64_t>(todo.size())) {
        candidate_budget_hit = true;
        todo.resize(remaining > 0 ? static_cast<size_t>(remaining) : 0);
      }
    }
    candidates_budgeted += static_cast<int64_t>(todo.size());
    for (size_t k : todo) {
      auto it = previous.find(items[k].desc.Signature());
      if (it != previous.end()) items[k].previous = &it->second;
    }
    ParallelFor(
        todo.size(), threads,
        [&](size_t j) {
          if (past_deadline()) {
            cancel.Cancel();
            return;
          }
          int64_t t0 = obs::NowNanos();
          CandidateItem& item = items[todo[j]];
          item.cost_attempted = true;
          const std::vector<CachedCoster::QueryCost>* hints[] = {
              &beam[item.entry].queries, item.previous};
          auto cost = coster.Cost(*item.schema,
                                  std::span(hints, item.previous ? 2 : 1),
                                  &item.queries);
          if (cost.ok()) {
            item.cost = *cost;
          } else if (item.error.empty()) {
            item.error = cost.status().ToString();
          }
          work_ns.fetch_add(obs::NowNanos() - t0, std::memory_order_relaxed);
        },
        &cancel);

    std::unordered_map<std::string, std::vector<CachedCoster::QueryCost>>
        costed;
    for (const CandidateItem& item : items) {
      if (item.cost) costed.emplace(item.desc.Signature(), item.queries);
    }
    previous = std::move(costed);

    // Select sequentially in descriptor order: identical results and tie
    // breaks regardless of thread count. An attempted candidate without a
    // result was skipped on error; count it (an unattempted one was merely
    // cancelled and counts toward nothing).
    std::vector<BeamEntry> expanded;
    const CandidateItem* best_item = nullptr;
    double iter_best = std::numeric_limits<double>::infinity();
    int evaluated = 0;
    int failed = 0;
    for (auto& item : items) {
      if ((item.apply_attempted && !item.schema) ||
          (item.cost_attempted && !item.cost)) {
        ++failed;
        if (first_error.empty() && !item.error.empty()) {
          first_error = item.error;
        }
        continue;
      }
      if (!item.cost) continue;
      ++evaluated;
      if (*item.cost < iter_best) {
        iter_best = *item.cost;
        best_item = &item;
      }
      expanded.push_back(BeamEntry{std::move(*item.schema), *item.cost,
                                   std::move(item.queries)});
    }
    result.stats.candidates_failed += failed;
    obs::Count("search.candidates_evaluated", evaluated);
    if (failed > 0) obs::Count("search.candidates_failed", failed);
    double iter_work_ms = static_cast<double>(work_ns.load()) / 1e6;
    double iter_elapsed_ms =
        static_cast<double>(obs::NowNanos() - iter_start) / 1e6;
    if (iter_elapsed_ms > 0) {
      obs::Observe("search.parallel_speedup",
                   iter_work_ms / iter_elapsed_ms);
    }
    double threshold = best_cost * (1.0 - options.min_relative_improvement);
    bool improved = evaluated > 0 && iter_best < threshold;
    if (improved) {
      std::string best_move =
          best_item->desc.Describe(beam[best_item->entry].schema);
      std::sort(expanded.begin(), expanded.end(),
                [](const BeamEntry& a, const BeamEntry& b) {
                  return a.cost < b.cost;
                });
      if (static_cast<int>(expanded.size()) > beam_width) {
        expanded.resize(static_cast<size_t>(beam_width));
      }
      beam = std::move(expanded);
      best_cost = beam[0].cost;
      best_schema = beam[0].schema;
      result.trace.push_back(SearchResult::IterationLog{
          iter, best_cost, best_move, evaluated,
          static_cast<int>(items.size()), failed,
          static_cast<double>(obs::NowNanos() - iter_start) / 1e6,
          iter_work_ms});
    }

    // Budget checks, after the iteration's (possibly partial) results are
    // folded in: a degraded stop still keeps the best-so-far improvement.
    if (cancel.cancelled() || past_deadline()) {
      stop_reason = "wall-clock budget (" +
                    std::to_string(options.budget_ms) + "ms) exhausted";
      break;
    }
    if (!improved && !candidate_budget_hit) {
      converged = true;  // every neighbor evaluated, none improves
      break;
    }
    if (candidate_budget_hit ||
        (options.max_candidates > 0 &&
         candidates_budgeted >= options.max_candidates)) {
      stop_reason = "candidate budget (" +
                    std::to_string(options.max_candidates) + ") exhausted";
      break;
    }
  }

  if (!converged && stop_reason.empty()) {
    // The loop ran out of iterations while still improving.
    stop_reason = "iteration budget (" +
                  std::to_string(options.max_iterations) + ") exhausted";
  }
  if (result.stats.candidates_failed > 0) {
    std::string skipped =
        std::to_string(result.stats.candidates_failed) +
        " candidate evaluation(s) skipped on error";
    if (!first_error.empty()) skipped += " (first: " + first_error + ")";
    stop_reason = stop_reason.empty() ? skipped : stop_reason + "; " + skipped;
  }
  if (!stop_reason.empty()) {
    result.degraded = true;
    result.degraded_reason = std::move(stop_reason);
    obs::Count("search.degraded");
  }

  coster.FillStats(&result.stats);
  result.best_schema = std::move(best_schema);
  result.best_cost = best_cost;
  return result;
}

}  // namespace legodb::core
