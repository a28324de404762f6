// Tests for the greedy search (Algorithm 4.1), the cost function, workload
// utilities, the candidate-evaluation pipeline (descriptors, fingerprint
// cache, parallel costing), and the MappingEngine facade.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <set>
#include <string>

#include "auction/auction.h"
#include "core/cost.h"
#include "core/legodb.h"
#include "core/parallel.h"
#include "core/search.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "schema_fuzzer.h"
#include "translate/translate.h"
#include "xml/dom.h"
#include "xquery/parser.h"
#include "xschema/annotate.h"
#include "xschema/fingerprint.h"
#include "xschema/schema_parser.h"
#include "xschema/stats_collector.h"

namespace legodb::core {
namespace {

xs::Schema AnnotatedImdb() {
  auto schema = imdb::Schema();
  EXPECT_TRUE(schema.ok());
  auto stats = imdb::Stats();
  EXPECT_TRUE(stats.ok());
  return xs::AnnotateSchema(schema.value(), stats.value());
}

Workload Lookup() {
  auto w = imdb::MakeWorkload("lookup");
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

// ---- Workload ----

TEST(WorkloadTest, AddRejectsBadQueries) {
  Workload w;
  EXPECT_FALSE(w.Add("bad", "FOR FOR FOR", 1).ok());
  EXPECT_TRUE(w.Add("ok", imdb::QueryText("Q1"), 0.5).ok());
  EXPECT_DOUBLE_EQ(w.TotalWeight(), 0.5);
}

TEST(WorkloadTest, MixNormalizesAndInterpolates) {
  Workload a, b;
  ASSERT_TRUE(a.Add("A", imdb::QueryText("Q1"), 2).ok());
  ASSERT_TRUE(b.Add("B", imdb::QueryText("Q16"), 4).ok());
  Workload mix = Workload::Mix(a, b, 0.25);
  ASSERT_EQ(mix.queries.size(), 2u);
  EXPECT_DOUBLE_EQ(mix.queries[0].weight, 0.25);
  EXPECT_DOUBLE_EQ(mix.queries[1].weight, 0.75);
  EXPECT_NEAR(mix.TotalWeight(), 1.0, 1e-12);
}

TEST(WorkloadTest, PathStepNamesCoverAllClauses) {
  Workload w;
  ASSERT_TRUE(w.Add("Q7", imdb::QueryText("Q7"), 1).ok());
  auto steps = w.PathStepNames();
  auto has = [&](const char* s) {
    return std::find(steps.begin(), steps.end(), s) != steps.end();
  };
  EXPECT_TRUE(has("episodes"));
  EXPECT_TRUE(has("guest_director"));  // from the nested WHERE
  EXPECT_TRUE(has("title"));
}

// ---- CostSchema ----

TEST(CostSchemaTest, WeightsScaleTotal) {
  xs::Schema config = ps::AllInlined(AnnotatedImdb());
  opt::CostParams params;
  Workload w1, w2;
  ASSERT_TRUE(w1.Add("Q1", imdb::QueryText("Q1"), 1).ok());
  ASSERT_TRUE(w2.Add("Q1", imdb::QueryText("Q1"), 3).ok());
  auto c1 = CostSchema(config, w1, params);
  auto c2 = CostSchema(config, w2, params);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_NEAR(c2->total, 3 * c1->total, 1e-6);
  EXPECT_EQ(c1->per_query.size(), 1u);
}

TEST(CostSchemaTest, PublishCostsMoreThanLookup) {
  xs::Schema config = ps::AllInlined(AnnotatedImdb());
  opt::CostParams params;
  Workload lookup, publish;
  ASSERT_TRUE(lookup.Add("Q2", imdb::QueryText("Q2"), 1).ok());
  ASSERT_TRUE(publish.Add("Q16", imdb::QueryText("Q16"), 1).ok());
  auto cl = CostSchema(config, lookup, params);
  auto cp = CostSchema(config, publish, params);
  ASSERT_TRUE(cl.ok());
  ASSERT_TRUE(cp.ok());
  EXPECT_GT(cp->total, cl->total);
}

// ---- Greedy search ----

TEST(GreedySearchTest, TraceIsMonotonicallyImproving) {
  opt::CostParams params;
  auto result =
      GreedySearch(AnnotatedImdb(), Lookup(), params, GreedySoOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result->trace.size(), 2u);
  for (size_t i = 1; i < result->trace.size(); ++i) {
    EXPECT_LT(result->trace[i].cost, result->trace[i - 1].cost);
    EXPECT_FALSE(result->trace[i].applied.empty());
    EXPECT_GT(result->trace[i].candidates, 0);
  }
  EXPECT_DOUBLE_EQ(result->best_cost, result->trace.back().cost);
}

TEST(GreedySearchTest, BestSchemaIsPhysical) {
  opt::CostParams params;
  auto result =
      GreedySearch(AnnotatedImdb(), Lookup(), params, GreedySiOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ps::CheckPhysical(result->best_schema).ok());
}

TEST(GreedySearchTest, SiAndSoConvergeToSimilarCosts) {
  // The paper observes both variants converge to similar costs (Fig. 10).
  opt::CostParams params;
  auto so = GreedySearch(AnnotatedImdb(), Lookup(), params, GreedySoOptions());
  auto si = GreedySearch(AnnotatedImdb(), Lookup(), params, GreedySiOptions());
  ASSERT_TRUE(so.ok());
  ASSERT_TRUE(si.ok());
  double ratio = so->best_cost / si->best_cost;
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(GreedySearchTest, ImprovementThresholdStopsEarly) {
  opt::CostParams params;
  SearchOptions strict = GreedySoOptions();
  auto full = GreedySearch(AnnotatedImdb(), Lookup(), params, strict);
  SearchOptions lax = GreedySoOptions();
  lax.min_relative_improvement = 0.25;  // stop below 25% improvement
  auto early = GreedySearch(AnnotatedImdb(), Lookup(), params, lax);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(early.ok());
  EXPECT_LE(early->trace.size(), full->trace.size());
  EXPECT_GE(early->best_cost, full->best_cost);
}

TEST(GreedySearchTest, MaxIterationsRespected) {
  opt::CostParams params;
  SearchOptions options = GreedySoOptions();
  options.max_iterations = 1;
  auto result = GreedySearch(AnnotatedImdb(), Lookup(), params, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->trace.size(), 2u);
}

TEST(GreedySearchTest, SearchedBeatsAllInlinedOnLookups) {
  // The headline Section-5.3 claim: cost-based search beats the
  // inline-everything heuristic for lookup workloads.
  opt::CostParams params;
  xs::Schema annotated = AnnotatedImdb();
  auto searched = GreedySearch(annotated, Lookup(), params, GreedySoOptions());
  ASSERT_TRUE(searched.ok());
  auto inlined = CostSchema(ps::AllInlined(annotated), Lookup(), params);
  ASSERT_TRUE(inlined.ok());
  EXPECT_LT(searched->best_cost, inlined->total);
}

TEST(GreedySearchTest, CostCacheReducesOptimizerCalls) {
  opt::CostParams params;
  SearchOptions with_cache = GreedySoOptions();
  SearchOptions without_cache = GreedySoOptions();
  without_cache.cache_query_costs = false;
  auto cached = GreedySearch(AnnotatedImdb(), Lookup(), params, with_cache);
  auto plain = GreedySearch(AnnotatedImdb(), Lookup(), params, without_cache);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(plain.ok());
  // Identical result, fewer optimizer invocations.
  EXPECT_DOUBLE_EQ(cached->best_cost, plain->best_cost);
  EXPECT_GT(cached->stats.cache_hits, 0);
  EXPECT_LT(cached->stats.cost_evaluations, plain->stats.cost_evaluations);
  EXPECT_EQ(plain->stats.cache_hits, 0);
}

TEST(GreedySearchTest, BeamSearchNeverWorseThanGreedy) {
  opt::CostParams params;
  SearchOptions greedy = GreedySoOptions();
  SearchOptions beam = GreedySoOptions();
  beam.beam_width = 3;
  auto g = GreedySearch(AnnotatedImdb(), Lookup(), params, greedy);
  auto b = GreedySearch(AnnotatedImdb(), Lookup(), params, beam);
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b->best_cost, g->best_cost * (1 + 1e-9));
  EXPECT_TRUE(ps::CheckPhysical(b->best_schema).ok());
}

TEST(GreedySearchTest, StructuralMovesCanJoinTheSearch) {
  // Allow union distribution in the move set: the search must remain
  // well-formed and no worse than the inline/outline-only search.
  opt::CostParams params;
  SearchOptions options = GreedySoOptions();
  options.transforms.union_distribute = true;
  options.transforms.wildcard_materialize = true;
  options.transforms.wildcard_tags = {"nyt"};
  Workload lookups = Lookup();
  auto plain = GreedySearch(AnnotatedImdb(), lookups, params,
                            GreedySoOptions());
  auto rich = GreedySearch(AnnotatedImdb(), lookups, params, options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(rich.ok());
  EXPECT_LE(rich->best_cost, plain->best_cost * (1 + 1e-9));
  EXPECT_TRUE(ps::CheckPhysical(rich->best_schema).ok());
}

// ---- Candidate-evaluation pipeline ----

// Regression for the pre-fingerprint cost-cache key. That key appended,
// per touched table, the SUM of the per-column distinct counts (and null
// fractions) to the translated SQL, so two configurations whose columns
// merely swap their distinct counts produced byte-identical keys: the
// second configuration costed would silently be served the first one's
// cached cost. CostCacheFingerprint hashes every column individually.
TEST(CostCacheTest, FingerprintSeparatesSwappedColumnStats) {
  auto make = [](int x_distincts, int y_distincts) {
    std::string text =
        "type DB = db[ R*<#1000> ] "
        "type R = r[ x[ String<#8,#" + std::to_string(x_distincts) +
        "> ], y[ String<#8,#" + std::to_string(y_distincts) + "> ] ]";
    auto parsed = xs::ParseSchema(text);
    EXPECT_TRUE(parsed.ok());
    return ps::Normalize(parsed.value());
  };
  xs::Schema a = make(400, 2);
  xs::Schema b = make(2, 400);

  auto map_a = map::MapSchema(a);
  auto map_b = map::MapSchema(b);
  ASSERT_TRUE(map_a.ok());
  ASSERT_TRUE(map_b.ok());
  auto query = xq::ParseQuery(
      "FOR $v IN document(\"d\")/db/r WHERE $v/x = c1 RETURN $v/y");
  ASSERT_TRUE(query.ok());
  auto rq_a = xlat::TranslateQuery(query.value(), map_a.value());
  auto rq_b = xlat::TranslateQuery(query.value(), map_b.value());
  ASSERT_TRUE(rq_a.ok());
  ASSERT_TRUE(rq_b.ok());

  // Identical SQL, identical per-table distinct SUMS: exactly the inputs
  // the old string key collapsed into one entry.
  EXPECT_EQ(rq_a->ToSql(map_a->catalog()), rq_b->ToSql(map_b->catalog()));
  const rel::Catalog& ca = map_a->catalog();
  const rel::Catalog& cb = map_b->catalog();
  const rel::Table& ta = ca.table(ca.IndexOf("R"));
  const rel::Table& tb = cb.table(cb.IndexOf("R"));
  double sum_a = 0, sum_b = 0;
  for (const auto& col : ta.columns) sum_a += col.distincts;
  for (const auto& col : tb.columns) sum_b += col.distincts;
  EXPECT_EQ(sum_a, sum_b);

  // The fingerprints differ, and they had better: the two configurations
  // genuinely cost differently (selectivity of x = c1 is 1/400 vs 1/2).
  EXPECT_NE(CostCacheFingerprint(rq_a.value(), map_a->catalog()),
            CostCacheFingerprint(rq_b.value(), map_b->catalog()));
  Workload w;
  ASSERT_TRUE(
      w.Add("Q", "FOR $v IN document(\"d\")/db/r WHERE $v/x = c1 RETURN $v/y",
            1.0)
          .ok());
  auto cost_a = CostSchema(a, w, opt::CostParams{});
  auto cost_b = CostSchema(b, w, opt::CostParams{});
  ASSERT_TRUE(cost_a.ok());
  ASSERT_TRUE(cost_b.ok());
  EXPECT_NE(cost_a->total, cost_b->total);
}

// A key names tables by name, not by catalog index: the same query over
// the same tables keys alike when the catalogs number them differently, as
// candidate configurations do, and a foreign key's parent counts by name.
TEST(CostCacheTest, FingerprintIgnoresTableNumbering) {
  auto make = [](const std::string& name, const std::string& parent,
                 int parent_index) {
    rel::Table t;
    t.name = name;
    t.row_count = 10;
    t.columns.emplace_back().name = name + "_id";
    if (parent_index >= 0) {
      t.columns.emplace_back().name = "parent_" + parent;
      t.foreign_keys.push_back(rel::ForeignKey{1, parent_index});
    }
    return t;
  };
  rel::Catalog ab, ba;  // A then B, and B then A
  ASSERT_TRUE(ab.AddTable(make("A", "", -1)).ok());
  ASSERT_TRUE(ab.AddTable(make("B", "A", 0)).ok());
  ASSERT_TRUE(ba.AddTable(make("B", "A", 1)).ok());
  ASSERT_TRUE(ba.AddTable(make("A", "", -1)).ok());
  auto query = [](const rel::Catalog& c) {
    opt::QueryBlock b;
    b.rels.push_back(opt::BaseRel{c.IndexOf("A"), "a"});
    b.rels.push_back(opt::BaseRel{c.IndexOf("B"), "b"});
    b.joins.push_back(opt::JoinEdge{0, 0, 1, 1});  // A_id = parent_A
    b.output.push_back(opt::ColumnRef{1, 0, "b"});  // B_id
    opt::RelQuery q;
    q.blocks.push_back(std::move(b));
    return q;
  };
  EXPECT_EQ(CostCacheFingerprint(query(ab), ab),
            CostCacheFingerprint(query(ba), ba));
  EXPECT_EQ(query(ab).ToSql(ab), query(ba).ToSql(ba));
  // Pointing the query at the other table by index changes the key.
  opt::RelQuery swapped = query(ab);
  std::swap(swapped.blocks[0].rels[0].table, swapped.blocks[0].rels[1].table);
  EXPECT_NE(CostCacheFingerprint(swapped, ab),
            CostCacheFingerprint(query(ab), ab));
}

// The cost-cache key hashes the translated query's structure directly:
// changing any field QueryBlock::ToSql renders must change the key, and two
// independent translations of one query under equal catalogs share it.
TEST(CostCacheTest, FingerprintSeparatesEveryRenderedField) {
  xs::Schema config = ps::AllOutlined(AnnotatedImdb());
  auto mapping = map::MapSchema(config);
  auto again = map::MapSchema(config);
  ASSERT_TRUE(mapping.ok());
  ASSERT_TRUE(again.ok());
  Workload lookup = Lookup();
  const WorkloadQuery* q8 = nullptr;
  for (const auto& wq : lookup.queries) {
    if (wq.name == "Q8") q8 = &wq;
  }
  ASSERT_NE(q8, nullptr);
  auto translated = xlat::TranslateQuery(q8->query, *mapping);
  auto retranslated = xlat::TranslateQuery(q8->query, *again);
  ASSERT_TRUE(translated.ok());
  ASSERT_TRUE(retranslated.ok());
  const opt::RelQuery& base = *translated;
  ASSERT_FALSE(base.blocks.empty());
  const opt::QueryBlock& b0 = base.blocks[0];
  ASSERT_GE(b0.rels.size(), 2u);
  ASSERT_FALSE(b0.output.empty());
  ASSERT_FALSE(b0.joins.empty());
  ASSERT_FALSE(b0.filters.empty());
  ASSERT_FALSE(b0.filters[0].not_null);
  ASSERT_EQ(b0.filters[0].value.kind, xq::Constant::Kind::kSymbol);

  const rel::Catalog& catalog = mapping->catalog();
  const uint64_t key = CostCacheFingerprint(base, catalog);
  EXPECT_EQ(CostCacheFingerprint(*retranslated, again->catalog()), key);

  const int other_table = b0.rels[0].table == 0 ? 1 : 0;  // not rel 0's
  auto changed = [&](const char* field, auto mutate) {
    opt::RelQuery q = base;
    opt::QueryBlock& b = q.blocks[0];
    mutate(q, b);
    EXPECT_NE(CostCacheFingerprint(q, catalog), key) << field;
  };
  using Q = opt::RelQuery;
  using B = opt::QueryBlock;
  changed("table", [&](Q&, B& b) { b.rels[0].table = other_table; });
  changed("alias", [](Q&, B& b) { b.rels[0].alias += "x"; });
  changed("output rel", [&](Q&, B& b) {
    b.output[0].rel = b.output[0].rel == 0 ? 1 : 0;
  });
  changed("output column", [](Q&, B& b) { b.output[0].column += 1; });
  changed("join left rel", [&](Q&, B& b) {
    b.joins[0].left_rel = b.joins[0].left_rel == 0 ? 1 : 0;
  });
  changed("join right rel", [&](Q&, B& b) {
    b.joins[0].right_rel = b.joins[0].right_rel == 0 ? 1 : 0;
  });
  changed("join left column", [](Q&, B& b) { b.joins[0].left_column += 1; });
  changed("join right column",
          [](Q&, B& b) { b.joins[0].right_column += 1; });
  changed("left_outer",
          [](Q&, B& b) { b.joins[0].left_outer = !b.joins[0].left_outer; });
  changed("filter rel", [&](Q&, B& b) {
    b.filters[0].rel = b.filters[0].rel == 0 ? 1 : 0;
  });
  changed("filter column", [](Q&, B& b) { b.filters[0].column += 1; });
  changed("filter op", [](Q&, B& b) { b.filters[0].op = xq::CompareOp::kLt; });
  changed("constant kind", [](Q&, B& b) {
    b.filters[0].value = xq::Constant::Str(b.filters[0].value.symbol);
  });
  changed("symbol payload", [](Q&, B& b) { b.filters[0].value.symbol += "x"; });
  changed("not_null", [](Q&, B& b) { b.filters[0].not_null = true; });
  changed("block count", [](Q& q, B& b) { q.blocks.push_back(b); });
  changed("publish", [](Q& q, B&) { q.publish = !q.publish; });

  // Payloads of the other constant kinds.
  auto with_value = [&](xq::Constant c) {
    opt::RelQuery q = base;
    q.blocks[0].filters[0].value = std::move(c);
    return CostCacheFingerprint(q, catalog);
  };
  EXPECT_NE(with_value(xq::Constant::Int(1)), with_value(xq::Constant::Int(2)));
  EXPECT_NE(with_value(xq::Constant::Str("a")),
            with_value(xq::Constant::Str("b")));
}

// Every (configuration, query) pair is either planned or served from the
// fingerprint cache, exactly once — so the counters tie out against the
// number of configurations costed, at any thread count. The obs counters
// must agree with the SearchStats kept by the search itself.
TEST(GreedySearchTest, StatsInvariantHoldsAtAnyThreadCount) {
  opt::CostParams params;
  Workload workload = Lookup();
  for (int threads : {1, 4}) {
    obs::Registry registry;
    SearchStats stats;
    {
      obs::ScopedRegistry scoped(&registry);
      SearchOptions options = GreedySoOptions();
      options.threads = threads;
      auto result = GreedySearch(AnnotatedImdb(), workload, params, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      stats = result->stats;
    }
    EXPECT_EQ(stats.threads_used, threads);
    EXPECT_GT(stats.schemas_costed, 0);
    EXPECT_GT(stats.descriptors_enumerated, 0);
    EXPECT_EQ(stats.cost_evaluations + stats.cache_hits,
              stats.schemas_costed *
                  static_cast<int64_t>(workload.queries.size()))
        << "threads=" << threads;

    obs::Report report = registry.Snapshot();
    EXPECT_EQ(report.CounterValue("search.cost_evaluations"),
              stats.cost_evaluations);
    EXPECT_EQ(report.CounterValue("search.cache_hits"), stats.cache_hits);
    EXPECT_EQ(report.CounterValue("search.schemas_costed"),
              stats.schemas_costed);
    EXPECT_EQ(report.CounterValue("search.descriptors_enumerated"),
              stats.descriptors_enumerated);
    EXPECT_EQ(report.CounterValue("search.dedup_hits"), stats.dedup_hits);
  }
}

// The search result must be identical for every thread count: same best
// schema, same cost, same iteration log (modulo wall-clock fields).
void ExpectIdenticalSearches(const SearchResult& serial,
                             const SearchResult& parallel) {
  EXPECT_EQ(serial.best_schema.ToString(), parallel.best_schema.ToString());
  EXPECT_EQ(xs::FingerprintSchema(serial.best_schema),
            xs::FingerprintSchema(parallel.best_schema));
  EXPECT_DOUBLE_EQ(serial.best_cost, parallel.best_cost);
  ASSERT_EQ(serial.trace.size(), parallel.trace.size());
  for (size_t i = 0; i < serial.trace.size(); ++i) {
    EXPECT_EQ(serial.trace[i].iteration, parallel.trace[i].iteration);
    EXPECT_DOUBLE_EQ(serial.trace[i].cost, parallel.trace[i].cost);
    EXPECT_EQ(serial.trace[i].applied, parallel.trace[i].applied) << i;
    EXPECT_EQ(serial.trace[i].candidates, parallel.trace[i].candidates);
    EXPECT_EQ(serial.trace[i].descriptors, parallel.trace[i].descriptors);
  }
}

TEST(GreedySearchTest, DeterministicAcrossThreadCountsImdb) {
  opt::CostParams params;
  xs::Schema annotated = AnnotatedImdb();
  Workload workload = Lookup();
  // Beam > 1 exercises the multi-entry frontier, where nondeterministic
  // candidate ordering would be most visible.
  SearchOptions serial_options = GreedySoOptions();
  serial_options.beam_width = 2;
  serial_options.threads = 1;
  SearchOptions parallel_options = serial_options;
  parallel_options.threads = 8;
  auto serial = GreedySearch(annotated, workload, params, serial_options);
  auto parallel = GreedySearch(annotated, workload, params, parallel_options);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(serial->stats.threads_used, 1);
  EXPECT_EQ(parallel->stats.threads_used, 8);
  ExpectIdenticalSearches(serial.value(), parallel.value());
}

TEST(GreedySearchTest, DeterministicAcrossThreadCountsAuction) {
  // Second corpus: the auction schema annotated with stats collected from
  // a generated document, searched under the bidding workload.
  auto schema = auction::Schema();
  ASSERT_TRUE(schema.ok());
  xml::Document doc = auction::Generate(auction::AuctionScale{});
  xs::StatsCollector collector;
  collector.AddDocument(doc);
  xs::Schema annotated =
      xs::AnnotateSchema(schema.value(), collector.Finish());
  auto workload = auction::MakeWorkload("bidding");
  ASSERT_TRUE(workload.ok());

  opt::CostParams params;
  SearchOptions serial_options = GreedySiOptions();
  serial_options.threads = 1;
  SearchOptions parallel_options = serial_options;
  parallel_options.threads = 8;
  auto serial =
      GreedySearch(annotated, workload.value(), params, serial_options);
  auto parallel =
      GreedySearch(annotated, workload.value(), params, parallel_options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok());
  ExpectIdenticalSearches(serial.value(), parallel.value());
}

// ---- The dependency memo against translating from scratch ----

// Greedy descents costed the way the search costs them: every neighbour of
// the current configuration by one CachedCoster at two workers, hinted
// with the current configuration's and the same move's last results. Each
// query the memo served untranslated is then translated and keyed from
// scratch: the key must be the one stored with the memo entry, and the
// cost the one planning that key gives, bit for bit.
class MemoDifferential {
 public:
  MemoDifferential(const Workload& workload, const TransformOptions& moves)
      : workload_(workload), moves_(moves), coster_(workload, params_, true) {}

  // Descends from `start` for at most `iterations` moves.
  void Run(const xs::Schema& start, int iterations) {
    std::vector<CachedCoster::QueryCost> current_queries;
    auto current_cost = coster_.Cost(start, {}, &current_queries);
    ASSERT_TRUE(current_cost.ok()) << current_cost.status().ToString();
    Check(start, current_queries);
    xs::Schema current = start;
    std::map<std::string, std::vector<CachedCoster::QueryCost>> previous;
    for (int iter = 0; iter < iterations; ++iter) {
      struct Candidate {
        std::string move;
        xs::Schema schema;
        const std::vector<CachedCoster::QueryCost>* previous = nullptr;
        std::vector<CachedCoster::QueryCost> queries;
        std::optional<double> cost;
      };
      std::vector<Candidate> candidates;
      for (const auto& desc : EnumerateTransformations(current, moves_)) {
        auto next = ApplyTransformation(current, desc);
        if (!next.ok()) continue;
        Candidate c;
        c.move = desc.Signature();
        c.schema = std::move(next).value();
        auto it = previous.find(c.move);
        if (it != previous.end()) c.previous = &it->second;
        candidates.push_back(std::move(c));
      }
      ParallelFor(candidates.size(), /*threads=*/2, [&](size_t k) {
        Candidate& c = candidates[k];
        const std::vector<CachedCoster::QueryCost>* hints[] = {
            &current_queries, c.previous};
        auto cost = coster_.Cost(c.schema, std::span(hints, c.previous ? 2 : 1),
                                 &c.queries);
        if (cost.ok()) c.cost = *cost;
      });
      previous.clear();
      const Candidate* best = nullptr;
      for (const Candidate& c : candidates) {
        if (!c.cost) continue;
        ++candidates_;
        Check(c.schema, c.queries);
        previous.emplace(c.move, c.queries);
        if (!best || *c.cost < *best->cost) best = &c;
      }
      if (!best || *best->cost >= *current_cost) break;
      current_cost = *best->cost;
      current_queries = best->queries;
      current = best->schema;
    }
  }

  int candidates() const { return candidates_; }
  int memo_hits() const { return memo_hits_; }
  int misses() const { return misses_; }

 private:
  void Check(const xs::Schema& config,
             const std::vector<CachedCoster::QueryCost>& queries) {
    ASSERT_EQ(queries.size(), workload_.queries.size());
    auto mapping = map::MapSchema(config);
    ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      const CachedCoster::QueryCost& q = queries[i];
      ASSERT_TRUE(q.reads);
      if (!q.memo_hit) {
        ++misses_;
        continue;
      }
      ++memo_hits_;
      auto rq = xlat::TranslateQuery(workload_.queries[i].query, *mapping);
      ASSERT_TRUE(rq.ok()) << rq.status().ToString();
      ASSERT_EQ(CostCacheFingerprint(*rq, mapping->catalog()), q.key)
          << workload_.queries[i].name << "\n" << config.ToString();
      auto planned = planned_.find({i, q.key});
      if (planned == planned_.end()) {
        auto plan =
            opt::Optimizer(mapping->catalog(), params_).PlanQuery(*rq);
        ASSERT_TRUE(plan.ok());
        planned = planned_.emplace(std::make_pair(i, q.key),
                                   plan->total_cost).first;
      }
      ASSERT_EQ(std::bit_cast<uint64_t>(q.cost),
                std::bit_cast<uint64_t>(planned->second))
          << workload_.queries[i].name;
    }
  }

  const Workload& workload_;
  TransformOptions moves_;
  opt::CostParams params_;
  CachedCoster coster_;
  std::map<std::pair<size_t, uint64_t>, double> planned_;
  int candidates_ = 0;
  int memo_hits_ = 0;
  int misses_ = 0;
};

// The four Figure-10 searches: greedy-si and greedy-so on the lookup and
// publish workloads, to convergence.
TEST(DependencyMemoTest, MatchesTranslationOverFig10Searches) {
  xs::Schema annotated = AnnotatedImdb();
  auto publish = imdb::MakeWorkload("publish");
  ASSERT_TRUE(publish.ok());
  const Workload workloads[] = {Lookup(), publish.value()};
  int hits = 0;
  for (const Workload& workload : workloads) {
    for (bool si : {true, false}) {
      SearchOptions options = si ? GreedySiOptions() : GreedySoOptions();
      MemoDifferential run(workload, options.transforms);
      run.Run(si ? ps::AllInlined(annotated) : ps::AllOutlined(annotated),
              options.max_iterations);
      EXPECT_GT(run.candidates(), 20);
      hits += run.memo_hits();
    }
  }
  EXPECT_GT(hits, 1000);
}

// The element paths of `schema` from its root element, through type
// references, at most `depth` references deep.
void ElementPaths(const xs::Schema& schema, const xs::TypePtr& t,
                  std::vector<std::string> path, int depth,
                  std::vector<std::vector<std::string>>* out) {
  switch (t->kind) {
    case xs::Type::Kind::kElement:
      if (t->name.is_wildcard()) return;
      path.push_back(t->name.name);
      out->push_back(path);
      ElementPaths(schema, t->child, path, depth, out);
      return;
    case xs::Type::Kind::kSequence:
    case xs::Type::Kind::kUnion:
      for (const auto& c : t->children) {
        ElementPaths(schema, c, path, depth, out);
      }
      return;
    case xs::Type::Kind::kRepetition:
      ElementPaths(schema, t->child, path, depth, out);
      return;
    case xs::Type::Kind::kTypeRef:
      if (depth > 0) {
        ElementPaths(schema, schema.Get(t->ref_name), path, depth - 1, out);
      }
      return;
    default:
      return;
  }
}

// Generated schemas with every rewriting on, under a workload of lookups,
// value filters and publishes over each one's element paths.
TEST(DependencyMemoTest, MatchesTranslationOverFuzzedSchemas) {
  TransformOptions moves;
  moves.union_distribute = true;
  moves.union_to_options = true;
  moves.repetition_split = true;
  moves.repetition_merge = true;
  moves.wildcard_materialize = true;
  moves.wildcard_tags = {"e1", "e2"};
  int hits = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    xs::Schema schema = SchemaFuzzer(seed).Generate();
    std::vector<std::vector<std::string>> paths;
    ElementPaths(schema, schema.Get(schema.root_type()), {}, 4, &paths);
    Workload workload;
    for (size_t p = 0; p < paths.size() && p < 6; ++p) {
      std::string doc = "document(\"d\")";
      std::string rest;
      for (const std::string& step : paths[p]) doc += "/" + step;
      for (size_t k = 1; k < paths[p].size(); ++k) rest += "/" + paths[p][k];
      const std::string n = std::to_string(p);
      ASSERT_TRUE(
          workload.Add("P" + n, "FOR $v IN " + doc + " RETURN $v", 1).ok());
      if (rest.empty()) continue;
      const std::string root = "document(\"d\")/" + paths[p][0];
      ASSERT_TRUE(workload
                      .Add("L" + n, "FOR $v IN " + root + " RETURN $v" + rest,
                           1)
                      .ok());
      ASSERT_TRUE(workload
                      .Add("F" + n,
                           "FOR $v IN " + root + " WHERE $v" + rest +
                               " = c1 RETURN $v",
                           1)
                      .ok());
    }
    for (const xs::Schema& start :
         {ps::Normalize(schema), ps::AllInlined(schema)}) {
      MemoDifferential run(workload, moves);
      run.Run(start, 4);
      hits += run.memo_hits();
    }
  }
  EXPECT_GT(hits, 100);
}

// Costs `after` hinted with what costing `before` found, for one query:
// the two configurations agree on every type the query uses, so only the
// dependency named in each test tells them apart. The query must be
// translated afresh and keyed as from scratch.
void ExpectMemoMiss(const char* before, const char* after,
                    const char* query) {
  auto config = [](const char* text) {
    auto parsed = xs::ParseSchema(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    return ps::Normalize(parsed.value());
  };
  Workload w;
  ASSERT_TRUE(w.Add("Q", query, 1).ok());
  opt::CostParams params;
  CachedCoster coster(w, params, true);
  std::vector<CachedCoster::QueryCost> first, second;
  ASSERT_TRUE(coster.Cost(config(before), {}, &first).ok());
  const std::vector<CachedCoster::QueryCost>* hints[] = {&first};
  const xs::Schema next = config(after);
  ASSERT_TRUE(coster.Cost(next, hints, &second).ok());
  EXPECT_FALSE(second[0].memo_hit);
  auto mapping = map::MapSchema(next);
  ASSERT_TRUE(mapping.ok());
  auto rq = xlat::TranslateQuery(w.queries[0].query, *mapping);
  ASSERT_TRUE(rq.ok());
  EXPECT_EQ(second[0].key, CostCacheFingerprint(*rq, mapping->catalog()));
  EXPECT_NE(second[0].key, first[0].key);
}

// Step `c` looks into B for an entry and finds none; renaming B's element
// to `c` makes the step land there.
TEST(DependencyMemoTest, EnteredTypesAreDependencies) {
  ExpectMemoMiss("type R = r[ a[ String ], B* ] type B = b[ String ]",
                 "type R = r[ a[ String ], B* ] type B = c[ String ]",
                 "FOR $v IN document(\"d\")/r RETURN $v/c");
}

// C's table has a foreign key to Q, a type the query never reads: Q's
// instance count (5, then 10) sets that key's statistics, while C's own
// count stays 30.
TEST(DependencyMemoTest, ParentCountsAreDependencies) {
  ExpectMemoMiss(
      "type R = r[ P{10,10}, S ] type S = s[ Q{5,5} ] "
      "type P = p[ C{2,2} ] type Q = q[ C{2,2} ] type C = c[ String ]",
      "type R = r[ P{10,10}, S ] type S = s[ Q{10,10} ] "
      "type P = p[ C{2,2} ] type Q = q[ C{1,1} ] type C = c[ String ]",
      "FOR $v IN document(\"d\")/r/p/c RETURN $v");
}

// ---- MappingEngine facade ----

TEST(MappingEngineTest, EndToEnd) {
  MappingEngine engine;
  ASSERT_TRUE(engine.LoadSchemaText(imdb::SchemaText()).ok());
  ASSERT_TRUE(engine.LoadStatsText(imdb::StatsText()).ok());
  ASSERT_TRUE(engine.AddQuery("Q1", imdb::QueryText("Q1"), 0.5).ok());
  ASSERT_TRUE(engine.AddQuery("Q16", imdb::QueryText("Q16"), 0.5).ok());
  auto result = engine.FindBestConfiguration(GreedySoOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->mapping.catalog().size(), 3u);
  EXPECT_GT(result->search.best_cost, 0);
  std::string ddl = result->mapping.catalog().ToDdl();
  EXPECT_NE(ddl.find("TABLE"), std::string::npos);
}

TEST(MappingEngineTest, ReportConsistentWithSearchStats) {
  MappingEngine engine;
  ASSERT_TRUE(engine.LoadSchemaText(imdb::SchemaText()).ok());
  ASSERT_TRUE(engine.LoadStatsText(imdb::StatsText()).ok());
  ASSERT_TRUE(engine.AddQuery("Q1", imdb::QueryText("Q1"), 0.5).ok());
  ASSERT_TRUE(engine.AddQuery("Q8", imdb::QueryText("Q8"), 0.5).ok());
  auto result = engine.FindBestConfiguration(GreedySoOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The obs counters wired through CachedCoster must agree with the ad-hoc
  // SearchStats the search has always maintained.
  const obs::Report& report = result->report;
  const SearchStats& stats = result->search.stats;
  EXPECT_EQ(report.CounterValue("search.cost_evaluations"),
            stats.cost_evaluations);
  EXPECT_EQ(report.CounterValue("search.cache_hits"), stats.cache_hits);
  EXPECT_GT(stats.cache_hits + stats.cost_evaluations, 0);

  // Every successful cost evaluation went through the optimizer; planning
  // attempts can exceed successes (failed plans are skipped by the search).
  EXPECT_GE(report.CounterValue("optimizer.queries_planned"),
            stats.cost_evaluations);

  // Phase spans and timing histograms are populated.
  EXPECT_GT(report.SpanTotalMillis("search"), 0.0);
  EXPECT_GT(report.SpanTotalMillis("find_best_configuration"), 0.0);
  const auto* plan_ms = report.FindHistogram("optimizer.plan_ms");
  ASSERT_NE(plan_ms, nullptr);
  EXPECT_GE(plan_ms->count, stats.cost_evaluations);
  ASSERT_NE(report.FindHistogram("translate.ms"), nullptr);

  // Per-iteration wall times are recorded in the trace.
  ASSERT_FALSE(result->search.trace.empty());
  for (const auto& step : result->search.trace) {
    EXPECT_GE(step.elapsed_ms, 0.0);
  }
  // One search.iteration span per executed iteration (improving iterations
  // plus the final non-improving one), matching the counter.
  int64_t iteration_spans = 0;
  for (const auto& span : report.spans) {
    if (span.name == "search.iteration") ++iteration_spans;
  }
  EXPECT_EQ(iteration_spans, report.CounterValue("search.iterations"));
  EXPECT_GE(iteration_spans,
            static_cast<int64_t>(result->search.trace.size()) - 1);

  // The report's JSON export is well formed and carries the search stats.
  Status json = obs::ValidateJsonText(report.ToJson());
  EXPECT_TRUE(json.ok()) << json.ToString();
  EXPECT_EQ(report.CounterValue("search.cache_hits"), stats.cache_hits);
}

TEST(MappingEngineTest, RejectsBadInputs) {
  MappingEngine engine;
  EXPECT_FALSE(engine.LoadSchemaText("type = broken").ok());
  EXPECT_FALSE(engine.LoadStatsText("garbage").ok());
  EXPECT_FALSE(engine.AddQuery("bad", "NOT A QUERY", 1).ok());
}

TEST(MappingEngineTest, CostConfigurationMatchesCostSchema) {
  MappingEngine engine;
  ASSERT_TRUE(engine.LoadSchemaText(imdb::SchemaText()).ok());
  ASSERT_TRUE(engine.LoadStatsText(imdb::StatsText()).ok());
  ASSERT_TRUE(engine.AddQuery("Q1", imdb::QueryText("Q1"), 1).ok());
  auto annotated = engine.AnnotatedSchema();
  ASSERT_TRUE(annotated.ok());
  xs::Schema config = ps::AllInlined(annotated.value());
  auto via_engine = engine.CostConfiguration(config);
  auto direct = CostSchema(config, engine.workload(), opt::CostParams{});
  ASSERT_TRUE(via_engine.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(via_engine->total, direct->total);
}

}  // namespace
}  // namespace legodb::core
