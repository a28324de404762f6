// design-search: the paper's own end-to-end job. Each pass runs the four
// Figure-10 greedy searches (greedy-si and greedy-so on the lookup and
// publish workloads) over the Appendix-A statistics with the default move
// set and two candidate-evaluation workers. The statistics are fixed by the
// paper; the seed only orders the four searches within each pass.
//
// Correctness: every search's final cost and table count must equal one
// fixed expectation, at one worker (once per run) and at two (every pass).
//
// The traced run replays the path each search took from outside
// GreedySearch: for every configuration on the iteration log it times
// EnumerateTransformations, and for every candidate ApplyTransformation,
// FingerprintSchema, MapSchema, TranslateQuery and Optimizer::PlanQuery.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "bench.h"
#include "common/rng.h"
#include "core/cost.h"
#include "core/search.h"
#include "core/transforms.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "translate/translate.h"
#include "xschema/annotate.h"
#include "xschema/fingerprint.h"

namespace legobench {
namespace {

using namespace legodb;

struct SearchCase {
  const char* name;
  bool greedy_si;
  bool lookup;  // else publish
  // The fixed expectation: final cost and number of tables.
  double cost;
  size_t tables;
};

constexpr SearchCase kCases[] = {
    {"greedy-si/lookup", true, true, 788339.36168355285, 23},
    {"greedy-so/lookup", false, true, 788308.61500419502, 30},
    {"greedy-si/publish", true, false, 1363510.2080000001, 14},
    {"greedy-so/publish", false, false, 1365011.7239999999, 15},
};
constexpr int kWorkers = 2;

struct Inputs {
  xs::Schema annotated;
  core::Workload lookup;
  core::Workload publish;
  std::vector<double> start_costs;  // per case, of its first configuration
  const core::Workload& For(const SearchCase& c) const {
    return c.lookup ? lookup : publish;
  }
};

xs::Schema StartConfig(const Inputs& in, const SearchCase& c) {
  return c.greedy_si ? ps::AllInlined(in.annotated)
                     : ps::AllOutlined(in.annotated);
}

// Parses the schema, statistics and workloads, and costs each search's
// starting configuration: what a designer has before the first move.
Inputs Setup() {
  Inputs in;
  xs::Schema raw = Unwrap(imdb::Schema(), "IMDB schema");
  xs::StatsSet stats = Unwrap(imdb::Stats(), "IMDB statistics");
  in.annotated = xs::AnnotateSchema(raw, stats);
  in.lookup = Unwrap(imdb::MakeWorkload("lookup"), "lookup workload");
  in.publish = Unwrap(imdb::MakeWorkload("publish"), "publish workload");
  for (const SearchCase& c : kCases) {
    in.start_costs.push_back(
        Unwrap(core::CostSchema(StartConfig(in, c), in.For(c),
                                opt::CostParams()),
               "cost starting configuration")
            .total);
  }
  return in;
}

core::SearchOptions OptionsFor(const SearchCase& c, int threads) {
  core::SearchOptions o = c.greedy_si ? core::GreedySiOptions()
                                      : core::GreedySoOptions();
  o.threads = threads;
  return o;
}

size_t TableCount(const xs::Schema& schema) {
  auto mapping = map::MapSchema(schema);
  return mapping.ok() ? mapping->catalog().size() : 0;
}

bool SameCost(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

// True when the search succeeded and matches the case's expectation.
bool Matches(const StatusOr<core::SearchResult>& r, const SearchCase& c) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", c.name,
                 r.status().ToString().c_str());
    return false;
  }
  size_t tables = TableCount(r->best_schema);
  if (SameCost(r->best_cost, c.cost) && tables == c.tables) return true;
  std::fprintf(stderr, "%s: cost %.17g tables %zu, expected %.17g / %zu\n",
               c.name, r->best_cost, tables, c.cost, c.tables);
  return false;
}

struct PassResult {
  double wall_ms = 0;
  std::vector<core::SearchResult> results;  // in kCases order
};

// One pass of the four searches in `order`; each search is checked after
// its clock stops.
PassResult RunPass(const Inputs& in, const std::vector<size_t>& order,
                   int threads, RunResult* result) {
  PassResult pass;
  pass.results.resize(std::size(kCases));
  for (size_t i : order) {
    const SearchCase& c = kCases[i];
    int64_t t0 = NowNanos();
    auto r = core::GreedySearch(in.annotated, in.For(c),
                                opt::CostParams(), OptionsFor(c, threads));
    pass.wall_ms += MillisBetween(t0, NowNanos());
    // The search's first log entry must cost what set-up computed.
    result->Attempt(Matches(r, c) && !r->trace.empty() &&
                    SameCost(r->trace.front().cost, in.start_costs[i]));
    if (r.ok()) pass.results[i] = std::move(r).value();
  }
  return pass;
}

std::vector<size_t> SeededOrder(Rng* rng) {
  std::vector<size_t> order = {0, 1, 2, 3};
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng->Uniform(i + 1)]);
  }
  return order;
}

// Re-runs one search's algorithm from outside GreedySearch, one worker,
// with spans around every layer call, and checks that it takes the path
// the search logged. The search's per-query cost cache is mirrored (plan
// only what it plans), so costs and tie-breaks match it bit for bit.
bool Replay(const Inputs& in, const SearchCase& c,
            const core::SearchResult& searched, Tracer* tracer,
            int64_t* unlogged_moves) {
  const core::Workload& workload = in.For(c);
  const core::TransformOptions moves = OptionsFor(c, 1).transforms;
  opt::CostParams params;
  std::vector<std::map<uint64_t, double>> cost_cache(workload.queries.size());

  // Maps, translates and plans one configuration; nullopt on error.
  auto cost_of = [&](const xs::Schema& schema) -> std::optional<double> {
    Scoped cost_span(tracer, "core.cost_schema");
    auto mapping = [&] {
      Scoped s(tracer, "mapping.map");
      return map::MapSchema(schema);
    }();
    if (!mapping.ok()) return std::nullopt;
    opt::Optimizer optimizer(mapping->catalog(), params);
    double cost = 0;
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      const core::WorkloadQuery& wq = workload.queries[q];
      auto rq = [&] {
        Scoped s(tracer, "translate");
        return xlat::TranslateQuery(wq.query, *mapping);
      }();
      if (!rq.ok()) return std::nullopt;
      uint64_t key = [&] {
        Scoped s(tracer, "core.cost_cache");
        return core::CostCacheFingerprint(*rq, mapping->catalog());
      }();
      auto hit = cost_cache[q].find(key);
      if (hit == cost_cache[q].end()) {
        Scoped s(tracer, "optimizer.plan");
        auto planned = optimizer.PlanQuery(*rq);
        if (!planned.ok()) return std::nullopt;
        hit = cost_cache[q].emplace(key, planned->total_cost).first;
      }
      cost += wq.weight * hit->second;
    }
    return cost;
  };

  xs::Schema config = StartConfig(in, c);
  std::optional<double> initial;
  {
    Scoped root(tracer, "phase.candidate");
    initial = cost_of(config);
  }
  if (!initial || searched.trace.empty() ||
      *initial != searched.trace.front().cost) {
    std::fprintf(stderr, "%s: replay's initial cost differs\n", c.name);
    return false;
  }
  std::set<uint64_t> seen = {xs::FingerprintSchema(config)};
  // Iteration i expands the configuration reached after log entry i - 1;
  // the last one finds no improving move.
  for (size_t iter = 1; iter <= searched.trace.size(); ++iter) {
    std::vector<core::TransformDescriptor> descs;
    {
      Scoped root(tracer, "phase.enumerate");
      Scoped s(tracer, "core.enumerate");
      descs = core::EnumerateTransformations(config, moves);
    }
    struct Costed {
      std::string move;
      double cost;
      xs::Schema schema;
    };
    std::vector<Costed> costed;  // in descriptor order
    for (const core::TransformDescriptor& desc : descs) {
      Scoped root(tracer, "phase.candidate");
      auto next = [&] {
        Scoped s(tracer, "core.apply");
        return core::ApplyTransformation(config, desc);
      }();
      if (!next.ok()) continue;
      bool fresh = [&] {
        Scoped s(tracer, "core.fingerprint");
        return seen.insert(xs::FingerprintSchema(*next)).second;
      }();
      if (!fresh) continue;
      if (std::optional<double> cost = cost_of(*next)) {
        costed.push_back({desc.Describe(config), *cost, std::move(*next)});
      }
    }
    if (iter == searched.trace.size()) break;  // the converging iteration
    if (costed.empty()) return false;
    // The search logs the first cheapest candidate in descriptor order, but
    // continues from the front of its candidates sorted by cost with
    // std::sort, which need not keep that one first when costs tie. Both
    // are replayed; a tie taken differently from the log is counted.
    auto logged_pick = costed.begin();
    for (auto k = costed.begin(); k != costed.end(); ++k) {
      if (k->cost < logged_pick->cost) logged_pick = k;
    }
    const auto& logged = searched.trace[iter];
    if (logged_pick->move != logged.applied ||
        logged_pick->cost != logged.cost) {
      std::fprintf(stderr, "%s: replay left the search's path at iteration "
                   "%zu (move %s)\n", c.name, iter, logged.applied.c_str());
      return false;
    }
    std::string logged_move = logged_pick->move;
    std::sort(costed.begin(), costed.end(),
              [](const Costed& a, const Costed& b) { return a.cost < b.cost; });
    if (costed.front().move != logged_move) ++*unlogged_moves;
    config = std::move(costed.front().schema);
  }
  return true;
}

void Untraced(const RunOptions& options, RunResult* result) {
  std::vector<double> setup_s;
  Inputs in;
  for (int i = 0; i < 7; ++i) {
    int64_t t0 = NowNanos();
    in = Setup();
    setup_s.push_back(MillisBetween(t0, NowNanos()) / 1e3);
  }
  result->Set("setup_s", Median(setup_s), "s");

  Rng rng(options.seed);
  // One-worker pass: the correctness gate at one worker, and the warm-up.
  RunPass(in, SeededOrder(&rng), 1, result);

  std::vector<double> pass_ms;
  double cpu0 = CpuSeconds();
  int64_t start = NowNanos();
  const auto budget_ns = static_cast<int64_t>(options.seconds * 1e9);
  while (NowNanos() - start < budget_ns || pass_ms.empty()) {
    PassResult pass = RunPass(in, SeededOrder(&rng), kWorkers, result);
    pass_ms.push_back(pass.wall_ms);
  }
  double loop_s = MillisBetween(start, NowNanos()) / 1e3;
  double cpu_s = CpuSeconds() - cpu0;
  auto passes = static_cast<double>(pass_ms.size());

  result->Set("ops_per_s", passes / loop_s, "1/s");
  result->Set("p50_ms", Median(pass_ms), "ms");
  result->Set("cpu_ms_per_op", cpu_s * 1e3 / passes, "ms");
  result->Set("rss_mb", PeakRssMb(), "MB");

  std::vector<double> pass_s;
  for (double ms : pass_ms) pass_s.push_back(ms / 1e3);
  Summary s = Summarize(pass_s);
  result->Detail("search_s", s.p50, "s");
  result->Detail("search_s.samples", static_cast<double>(s.count), "count");
}

void Traced(const RunOptions& options, RunResult* result) {
  Inputs in = Setup();
  Rng rng(options.seed);
  std::vector<size_t> order = SeededOrder(&rng);

  // Untraced and span-wrapped passes, alternated: the tracing overhead.
  // GreedySearch runs unmodified in both; only the outer spans differ.
  PassResult plain = RunPass(in, order, kWorkers, result);
  Tracer outer;
  double traced_ms = 0;
  {
    Scoped root(&outer, "phase.pass");
    for (size_t i : order) {
      const SearchCase& c = kCases[i];
      Scoped s(&outer, "core.search");
      int64_t t0 = NowNanos();
      auto r = core::GreedySearch(in.annotated, in.For(c), opt::CostParams(),
                                  OptionsFor(c, kWorkers));
      traced_ms += MillisBetween(t0, NowNanos());
      result->Attempt(Matches(r, c));
    }
  }
  result->Set("trace.overhead_frac", traced_ms / plain.wall_ms - 1, "ratio");

  double iterations = 0, candidates = 0, dedup = 0, evaluations = 0,
         hits = 0, work_ms = 0, elapsed_ms = 0;
  for (const core::SearchResult& r : plain.results) {
    iterations += static_cast<double>(r.trace.size());
    candidates += static_cast<double>(r.stats.schemas_costed - 1);
    dedup += static_cast<double>(r.stats.dedup_hits);
    evaluations += static_cast<double>(r.stats.cost_evaluations);
    hits += static_cast<double>(r.stats.cache_hits);
    for (const auto& log : r.trace) {
      work_ms += log.work_ms;
      elapsed_ms += log.elapsed_ms;
    }
  }
  result->Set("search.iterations", iterations, "count");
  result->Set("search.candidates", candidates, "count");
  result->Set("search.dedup_hits", dedup, "count");
  result->Set("search.optimizer_calls", evaluations, "count");
  result->Set("search.cost_cache_hits", hits, "count");
  result->Set("search.cost_cache_hit_ratio", hits / (hits + evaluations),
              "ratio");
  result->Set("search.concurrency",
              elapsed_ms > 0 ? work_ms / elapsed_ms : 0, "ratio");

  Tracer tracer;
  int64_t unlogged_moves = 0;
  for (size_t i : order) {
    result->Attempt(
        Replay(in, kCases[i], plain.results[i], &tracer, &unlogged_moves));
  }
  // Iterations whose logged move is not the configuration the search went
  // on from (a cost tie reordered by the search's sort).
  result->Detail("search.unlogged_moves", static_cast<double>(unlogged_moves),
                 "count");
  LayerTotals layers = AggregateLayers(tracer.spans());
  auto median_of = [&](const char* name) {
    return Median(layers.self_ms[name]);
  };
  std::vector<double> cost_ms;
  for (const SpanRecord& s : tracer.spans()) {
    if (s.name == "core.cost_schema") {
      cost_ms.push_back(MillisBetween(s.start_ns, s.end_ns));
    }
  }
  result->Set("core.enumerate_ms", median_of("core.enumerate"), "ms");
  result->Set("core.apply_ms", median_of("core.apply"), "ms");
  result->Set("core.cost_schema_ms", Median(cost_ms), "ms");
  result->Set("mapping.map_ms", median_of("mapping.map"), "ms");
  result->Set("translate.ms", median_of("translate"), "ms");
  result->Set("optimizer.plan_ms", median_of("optimizer.plan"), "ms");
  result->Set("trace.coverage", layers.Coverage(), "ratio");
  result->Set("trace.unreconciled", static_cast<double>(layers.unreconciled),
              "count");
  result->Attempt(layers.Reconciled());
  // The replay mirrors the search's cost cache, so it plans exactly as
  // often as the searches did.
  result->Attempt(static_cast<double>(layers.self_ms["optimizer.plan"].size()) ==
                  evaluations);
}

}  // namespace

RunResult RunDesignSearch(const RunOptions& options) {
  legodb::obs::Registry registry;
  legodb::obs::ScopedRegistry scoped(&registry);
  RunResult result;
  result.Config("searches", "greedy-si,greedy-so x lookup,publish");
  result.Config("statistics", "appendix-a");
  result.Config("workers", std::to_string(kWorkers));
  if (options.trace) {
    Traced(options, &result);
  } else {
    Untraced(options, &result);
  }
  return result;
}

}  // namespace legobench
