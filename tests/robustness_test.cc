// Robustness suite: release-mode invariant macros, the failpoint framework,
// malformed-input hardening of the MappingEngine facade, and the budgeted /
// gracefully degrading greedy search. Runs in Release builds too (see
// tools/check.sh --release-checks): nothing here may depend on `assert`.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/status.h"
#include "core/explain.h"
#include "core/legodb.h"
#include "core/parallel.h"
#include "core/search.h"
#include "engine/executor.h"
#include "engine/prepared.h"
#include "engine/reference_executor.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "relational/catalog.h"

namespace legodb {
namespace {

core::MappingEngine ImdbEngine() {
  core::MappingEngine engine;
  EXPECT_TRUE(engine.LoadSchemaText(imdb::SchemaText()).ok());
  EXPECT_TRUE(engine.LoadStatsText(imdb::StatsText()).ok());
  for (const char* q : {"Q1", "Q3", "Q8", "Q16"}) {
    EXPECT_TRUE(engine.AddQuery(q, imdb::QueryText(q), 0.25).ok());
  }
  return engine;
}

// ---- LEGODB_CHECK / LEGODB_DCHECK ----

TEST(CheckTest, PassingCheckIsANoOp) {
  LEGODB_CHECK(1 + 1 == 2);
  LEGODB_CHECK(true, "never printed");
  int evaluations = 0;
  LEGODB_CHECK(++evaluations == 1, "evaluated exactly once");
  EXPECT_EQ(evaluations, 1);
}

TEST(CheckDeathTest, FailingCheckAbortsInEveryBuildMode) {
  EXPECT_DEATH(LEGODB_CHECK(false, "boom"), "LEGODB_CHECK failed");
  EXPECT_DEATH(LEGODB_CHECK(2 + 2 == 5), "2 \\+ 2 == 5");
}

TEST(CheckTest, DcheckCompilesAgainstUnusedVariables) {
  int x = 3;
  LEGODB_DCHECK(x == 3, "x must be 3");  // armed only in debug builds
#ifdef NDEBUG
  // Under NDEBUG the condition must not be evaluated.
  int evaluations = 0;
  LEGODB_DCHECK(++evaluations == 1);
  EXPECT_EQ(evaluations, 0);
#endif
}

// ---- StatusOr hardening ----

TEST(StatusOrDeathTest, ValueOnErrorAbortsUnconditionally) {
  StatusOr<int> err(Status::InvalidArgument("bad"));
  EXPECT_FALSE(err.ok());
  EXPECT_DEATH((void)err.value(), "StatusOr::value called on error");
  EXPECT_DEATH((void)*err, "StatusOr::value called on error");
}

TEST(StatusOrDeathTest, ConstructionFromOkStatusAborts) {
  EXPECT_DEATH(StatusOr<int>{Status::OK()},
               "StatusOr constructed from OK status");
}

// ---- Failpoint framework ----

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { fp::DisableAll(); }
};

TEST_F(FailpointTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(fp::Enable("site=").ok());
  EXPECT_FALSE(fp::Enable("site=0").ok());
  EXPECT_FALSE(fp::Enable("site=-3").ok());
  EXPECT_FALSE(fp::Enable("site=pbogus").ok());
  EXPECT_FALSE(fp::Enable("site=p1.5").ok());
  EXPECT_FALSE(fp::Enable("site=p0.5@notanumber").ok());
  EXPECT_FALSE(fp::Enable("=3").ok());
}

TEST_F(FailpointTest, AlwaysModeFiresOnEveryHit) {
  EXPECT_FALSE(fp::AnyActive());
  ASSERT_TRUE(fp::Enable("my.site").ok());
  EXPECT_TRUE(fp::AnyActive());
  EXPECT_TRUE(fp::Triggered("my.site"));
  EXPECT_TRUE(fp::Triggered("my.site"));
  EXPECT_FALSE(fp::Triggered("other.site"));
  EXPECT_EQ(fp::HitCount("my.site"), 2);
  EXPECT_EQ(fp::HitCount("other.site"), 0);
  fp::Disable("my.site");
  EXPECT_FALSE(fp::AnyActive());
  EXPECT_FALSE(fp::Triggered("my.site"));
}

TEST_F(FailpointTest, NthHitModes) {
  ASSERT_TRUE(fp::Enable("once=3; from=2+").ok());
  std::vector<bool> once, from;
  for (int i = 0; i < 5; ++i) {
    once.push_back(fp::Triggered("once"));
    from.push_back(fp::Triggered("from"));
  }
  EXPECT_EQ(once, (std::vector<bool>{false, false, true, false, false}));
  EXPECT_EQ(from, (std::vector<bool>{false, true, true, true, true}));
}

TEST_F(FailpointTest, ProbabilityModeIsSeededAndDeterministic) {
  auto sample = [](const std::string& spec) {
    EXPECT_TRUE(fp::Enable(spec).ok());  // re-arming resets the hit counter
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) fires.push_back(fp::Triggered("p.site"));
    return fires;
  };
  std::vector<bool> a = sample("p.site=p0.5@42");
  std::vector<bool> b = sample("p.site=p0.5@42");
  EXPECT_EQ(a, b);  // same seed: bit-for-bit replay
  int fired = 0;
  for (bool f : a) fired += f ? 1 : 0;
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 64);
  EXPECT_NE(a, sample("p.site=p0.5@43"));  // different seed: different run
  for (bool f : sample("p.site=p0@1")) EXPECT_FALSE(f);
  for (bool f : sample("p.site=p1@1")) EXPECT_TRUE(f);
}

TEST_F(FailpointTest, CheckReturnsInternalWithSiteName) {
  ASSERT_TRUE(fp::Enable("err.site").ok());
  Status st = fp::Check("err.site");
  EXPECT_EQ(st.code(), Status::Code::kInternal);
  EXPECT_NE(st.message().find("err.site"), std::string::npos);
  EXPECT_TRUE(fp::Check("unarmed.site").ok());
}

TEST_F(FailpointTest, ScopedFailpointsDisarmOnExit) {
  {
    fp::ScopedFailpoints scoped("a.site; b.site=2");
    ASSERT_TRUE(scoped.status().ok());
    EXPECT_EQ(fp::ActiveSites(), (std::vector<std::string>{"a.site", "b.site"}));
  }
  EXPECT_FALSE(fp::AnyActive());
  fp::ScopedFailpoints bad("c.site=0");
  EXPECT_FALSE(bad.status().ok());
}

// ---- Malformed inputs through the MappingEngine facade ----

TEST(MalformedInputTest, GarbageSchemaTextReturnsStatus) {
  core::MappingEngine engine;
  Status st = engine.LoadSchemaText("@@@ not a schema !!!");
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(engine.LoadSchemaText("").ok());
}

TEST(MalformedInputTest, TruncatedSchemaTextReturnsStatus) {
  std::string text = imdb::SchemaText();
  ASSERT_TRUE(core::MappingEngine().LoadSchemaText(text).ok());
  // Cut mid-definition: every prefix must fail cleanly, never crash.
  core::MappingEngine engine;
  for (size_t len : {text.size() / 4, text.size() / 2, text.size() - 5}) {
    Status st = engine.LoadSchemaText(text.substr(0, len));
    EXPECT_FALSE(st.ok()) << "prefix of " << len << " bytes parsed?";
  }
}

TEST(MalformedInputTest, GarbageStatsTextReturnsStatus) {
  core::MappingEngine engine;
  EXPECT_FALSE(engine.LoadStatsText("### {{{ 12 garbage").ok());
}

TEST(MalformedInputTest, StatsOverUndefinedPathsAreHandledCleanly) {
  core::MappingEngine engine = ImdbEngine();
  // Statistics naming elements the schema does not define must not crash
  // annotation or search: either they are ignored and the search runs, or
  // a clean Status surfaces through the facade.
  std::string stats = imdb::StatsText();
  stats += "\n([\"imdb\";\"no_such_element\"], STcnt(42));\n";
  stats += "([\"imdb\";\"ghost\";\"child\"], STcnt(7));\n";
  Status st = engine.LoadStatsText(stats);
  if (st.ok()) {
    auto result = engine.FindBestConfiguration(core::GreedySoOptions());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  } else {
    EXPECT_FALSE(st.message().empty());
  }
}

TEST(MalformedInputTest, GarbageQueryTextReturnsStatus) {
  core::MappingEngine engine = ImdbEngine();
  EXPECT_FALSE(engine.AddQuery("bad", "NOT AN XQUERY AT ALL", 1.0).ok());
  EXPECT_FALSE(engine.AddQuery("empty", "", 1.0).ok());
}

TEST(MalformedInputTest, QueryOverUnboundVariableFailsCleanly) {
  core::MappingEngine engine = ImdbEngine();
  // Parses fine but $ghost is never bound: translation of the initial
  // configuration must surface a clean error, not crash.
  ASSERT_TRUE(engine
                  .AddQuery("bad",
                            R"(FOR $v IN document("imdbdata")/imdb/show,
                                   $w IN $ghost/episode
                               RETURN $w/name)",
                            1.0)
                  .ok());
  auto result = engine.FindBestConfiguration(core::GreedySoOptions());
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.status().message().empty());
}

TEST(MalformedInputTest, QueryOverMissingElementIsEmptyNotFatal) {
  core::MappingEngine engine = ImdbEngine();
  // XQuery semantics: navigating to an element the schema does not define
  // yields the empty sequence, so the query is valid (and free) rather
  // than an error. The search must complete normally.
  ASSERT_TRUE(engine
                  .AddQuery("empty",
                            R"(FOR $v IN document("imdbdata")/imdb/nope
                               RETURN $v/title)",
                            1.0)
                  .ok());
  auto result = engine.FindBestConfiguration(core::GreedySoOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->search.degraded);
}

TEST(MalformedInputTest, DuplicateCatalogTableIsRecoverable) {
  rel::Table t;
  t.name = "T";
  rel::Catalog catalog;
  EXPECT_TRUE(catalog.AddTable(t).ok());
  Status st = catalog.AddTable(t).status();
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("T"), std::string::npos);
  EXPECT_EQ(catalog.size(), 1u);
}

// ---- ParallelFor cancellation ----

// Queries name tables by catalog index, so an index the catalog does not
// have must come back as NotFound from the optimizer and from every
// executor, never as an out-of-bounds read.
TEST(MalformedInputTest, TableIndexOutsideCatalogIsNotFound) {
  rel::Table t;
  t.name = "T";
  t.row_count = 1;
  t.columns.emplace_back().name = "T_id";
  rel::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(t).ok());
  store::Database db(catalog);
  ASSERT_TRUE(db.table(0).Insert({Value::Int(1)}).ok());

  opt::RelQuery good;
  good.blocks.emplace_back();
  good.blocks[0].rels.push_back(opt::BaseRel{0, "t"});
  good.blocks[0].output.push_back(
      opt::ColumnRef{0, rel::Table::kKeyColumn, "id"});
  opt::Optimizer optimizer(catalog);
  auto planned = optimizer.PlanQuery(good);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  std::vector<opt::PhysicalPlanPtr> plans{planned->blocks[0].plan};
  ASSERT_TRUE(engine::ReferenceExecutor(&db).ExecuteQuery(good, plans).ok());

  for (int index : {static_cast<int>(catalog.size()), -1}) {
    opt::RelQuery bad = good;
    bad.blocks[0].rels[0].table = index;
    const std::string context = "table index " + std::to_string(index);
    EXPECT_EQ(optimizer.PlanQuery(bad).status().code(),
              Status::Code::kNotFound)
        << context;
    EXPECT_EQ(engine::PreparedPrograms::Compile(&db, bad, plans)
                  .status()
                  .code(),
              Status::Code::kNotFound)
        << context;
    EXPECT_EQ(engine::ReferenceExecutor(&db).ExecuteQuery(bad, plans)
                  .status()
                  .code(),
              Status::Code::kNotFound)
        << context;
    EXPECT_EQ(engine::Executor(&db).ExecuteQuery(bad, plans).status().code(),
              Status::Code::kNotFound)
        << context;
  }
}

// A copy of `plan` with `edit` applied to every node.
opt::PhysicalPlanPtr EditPlan(
    const opt::PhysicalPlanPtr& plan,
    const std::function<void(opt::PhysicalPlan*)>& edit) {
  if (!plan) return nullptr;
  auto copy = std::make_shared<opt::PhysicalPlan>(*plan);
  copy->left = EditPlan(plan->left, edit);
  copy->right = EditPlan(plan->right, edit);
  copy->child = EditPlan(plan->child, edit);
  edit(copy.get());
  return copy;
}

// Queries, plans and foreign keys name columns by position, so a position
// outside its table — in an output, a filter, a join edge or an index —
// must come back as NotFound naming the table from the optimizer and from
// every executor, never as an out-of-bounds read or a silent NULL.
TEST(MalformedInputTest, ColumnIndexOutsideTableIsNotFound) {
  // P(P_id) and C(C_id, x, parent_P): a key lookup on P drives index
  // nested loops into C's foreign-key index.
  rel::Catalog catalog;
  rel::Table p;
  p.name = "P";
  p.row_count = 10000;
  p.columns.emplace_back().name = "P_id";
  p.columns[0].distincts = 10000;
  ASSERT_TRUE(catalog.AddTable(p).ok());
  rel::Table c;
  c.name = "C";
  c.row_count = 100000;
  for (const char* name : {"C_id", "x", "parent_P"}) {
    c.columns.emplace_back().name = name;
  }
  c.columns[0].distincts = 100000;
  c.columns[2].distincts = 10000;
  c.foreign_keys.push_back(rel::ForeignKey{2, 0});
  ASSERT_TRUE(catalog.AddTable(c).ok());
  store::Database db(catalog);
  ASSERT_TRUE(db.table(0).Insert({Value::Int(1)}).ok());
  ASSERT_TRUE(
      db.table(1).Insert({Value::Int(2), Value::Str("a"), Value::Int(1)}).ok());

  opt::RelQuery good;
  opt::QueryBlock& block = good.blocks.emplace_back();
  block.rels = {opt::BaseRel{0, "p"}, opt::BaseRel{1, "c"}};
  block.joins.push_back(opt::JoinEdge{0, 0, 1, 2, false});
  block.filters.push_back(
      opt::FilterPred{0, 0, xq::CompareOp::kEq, xq::Constant::Int(1)});
  block.output.push_back(opt::ColumnRef{1, 1, "x"});
  opt::Optimizer optimizer(catalog);
  auto planned = optimizer.PlanQuery(good);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  const opt::PhysicalPlanPtr& plan = planned->blocks[0].plan;
  ASSERT_EQ(plan->child->kind, opt::PhysicalPlan::Kind::kIndexNLJoin);
  ASSERT_EQ(plan->child->left->kind, opt::PhysicalPlan::Kind::kIndexLookup);
  auto rows = engine::Executor(&db).ExecuteQuery(good, {plan});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 1u);

  using Kind = opt::PhysicalPlan::Kind;
  for (const int t : {0, 1}) {
    for (int pos : {static_cast<int>(catalog.table(t).columns.size()), -1}) {
      // Each case names position `pos` of table `t` in the block (so that
      // the optimizer sees it) and in the plan (so that the executors do);
      // the index case names it in the plan alone.
      struct Case {
        const char* what;
        std::function<void(opt::QueryBlock*)> block;
        std::function<void(opt::PhysicalPlan*)> plan;
      };
      std::vector<Case> cases;
      if (t == 1) {
        cases.push_back({"output",
                         [&](opt::QueryBlock* b) { b->output[0].column = pos; },
                         [](opt::PhysicalPlan*) {}});
        cases.push_back(
            {"join edge",
             [&](opt::QueryBlock* b) { b->joins[0].right_column = pos; },
             [&](opt::PhysicalPlan* n) {
               // Index nested loops probe the edge's column of C.
               if (n->kind == Kind::kIndexNLJoin) {
                 n->right_join_column = pos;
                 n->index_column = pos;
               }
             }});
        cases.push_back({"index", nullptr, [&](opt::PhysicalPlan* n) {
                           if (n->kind == Kind::kIndexNLJoin) {
                             n->index_column = pos;
                           }
                         }});
      } else {
        cases.push_back(
            {"filter",
             [&](opt::QueryBlock* b) { b->filters[0].column = pos; },
             [&](opt::PhysicalPlan* n) {
               for (auto& f : n->filters) f.column = pos;
             }});
        cases.push_back(
            {"join edge",
             [&](opt::QueryBlock* b) { b->joins[0].left_column = pos; },
             [&](opt::PhysicalPlan* n) {
               if (n->kind == Kind::kIndexNLJoin) n->left_join_column = pos;
             }});
        cases.push_back({"index", nullptr, [&](opt::PhysicalPlan* n) {
                           if (n->kind == Kind::kIndexLookup) {
                             n->index_column = pos;
                           }
                         }});
      }
      for (const Case& bad_case : cases) {
        const std::string context = std::string(bad_case.what) + " #" +
                                    std::to_string(pos) + " of " +
                                    catalog.table(t).name;
        const std::string table = "table '" + catalog.table(t).name + "'";
        auto expect_not_found = [&](const Status& st, const char* who) {
          EXPECT_EQ(st.code(), Status::Code::kNotFound)
              << context << " " << who << ": " << st.ToString();
          EXPECT_NE(st.message().find(table), std::string::npos)
              << context << " " << who << ": " << st.ToString();
        };
        opt::RelQuery bad = good;
        if (bad_case.block) {
          bad_case.block(&bad.blocks[0]);
          expect_not_found(optimizer.PlanQuery(bad).status(), "optimizer");
        }
        std::vector<opt::PhysicalPlanPtr> plans{
            EditPlan(plan, bad_case.plan)};
        expect_not_found(
            engine::PreparedPrograms::Compile(&db, bad, plans).status(),
            "prepare");
        expect_not_found(
            engine::ReferenceExecutor(&db).ExecuteQuery(bad, plans).status(),
            "reference");
        expect_not_found(
            engine::Executor(&db).ExecuteQuery(bad, plans).status(),
            "executor");
      }
    }
  }
}

// A plan node names its own relations by position in the block too: a scan
// of relation 3 in a one-relation block, or a join key on one, must come
// back as NotFound from both executors, never as an out-of-bounds read.
TEST(MalformedInputTest, PlanRelationOutsideBlockIsNotFound) {
  rel::Catalog catalog;
  rel::Table t;
  t.name = "T";
  t.row_count = 1;
  t.columns.emplace_back().name = "T_id";
  ASSERT_TRUE(catalog.AddTable(t).ok());
  store::Database db(catalog);
  ASSERT_TRUE(db.table(0).Insert({Value::Int(1)}).ok());
  opt::RelQuery query;
  opt::QueryBlock& block = query.blocks.emplace_back();
  block.rels = {opt::BaseRel{0, "t"}};
  block.output.push_back(opt::ColumnRef{0, 0, "id"});

  using Kind = opt::PhysicalPlan::Kind;
  auto scan = [](int rel) {
    auto node = std::make_shared<opt::PhysicalPlan>();
    node->kind = Kind::kSeqScan;
    node->rel = rel;
    return node;
  };
  auto project = [](opt::PhysicalPlanPtr child) {
    auto node = std::make_shared<opt::PhysicalPlan>();
    node->kind = Kind::kProject;
    node->child = std::move(child);
    return opt::PhysicalPlanPtr(node);
  };
  auto hash_join = [&](int left_rel, int right_rel) {
    auto node = std::make_shared<opt::PhysicalPlan>();
    node->kind = Kind::kHashJoin;
    node->left = scan(0);
    node->right = scan(0);
    node->left_join_rel = left_rel;
    node->left_join_column = 0;
    node->right_join_rel = right_rel;
    node->right_join_column = 0;
    return node;
  };
  auto index_join = [&](int inner_rel, int outer_rel) {
    auto node = std::make_shared<opt::PhysicalPlan>();
    node->kind = Kind::kIndexNLJoin;
    node->left = scan(0);
    node->rel = inner_rel;
    node->index_column = 0;
    node->left_join_rel = outer_rel;
    node->left_join_column = 0;
    return node;
  };

  auto good = engine::ReferenceExecutor(&db).ExecuteQuery(
      query, {project(scan(0))});
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->rows.size(), 1u);

  const std::vector<std::pair<const char*, opt::PhysicalPlanPtr>> cases = {
      {"scan of relation 3", project(scan(3))},
      {"scan of relation -1", project(scan(-1))},
      {"hash join probe on relation 3", project(hash_join(3, 0))},
      {"hash join build on relation 3", project(hash_join(0, 3))},
      {"index join into relation 3", project(index_join(3, 0))},
      {"index join from relation 3", project(index_join(0, 3))},
  };
  for (const auto& [what, plan] : cases) {
    auto reference = engine::ReferenceExecutor(&db).ExecuteQuery(query, {plan});
    EXPECT_EQ(reference.status().code(), Status::Code::kNotFound)
        << what << " reference: " << reference.status().ToString();
    auto executor = engine::Executor(&db).ExecuteQuery(query, {plan});
    EXPECT_EQ(executor.status().code(), Status::Code::kNotFound)
        << what << " executor: " << executor.status().ToString();
  }
}

TEST(ParallelForTest, PreCancelledTokenRunsNothing) {
  core::CancelToken cancel;
  cancel.Cancel();
  int calls = 0;
  core::ParallelFor(16, 1, [&](size_t) { ++calls; }, &cancel);
  core::ParallelFor(16, 4, [&](size_t) { ++calls; }, &cancel);
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, CancellingMidRunStopsFurtherClaims) {
  core::CancelToken cancel;
  int calls = 0;
  core::ParallelFor(
      100, 1,
      [&](size_t i) {
        ++calls;
        if (i == 2) cancel.Cancel();
      },
      &cancel);
  EXPECT_EQ(calls, 3);  // serial path: indices 0..2, then the claim stops
}

// ---- Budgeted, degradable search ----

// Acceptance shape: a 1-candidate budget produces a valid (mappable,
// costed) result, degraded, with matching stats — at 1 and 8 threads, with
// identical outcomes (candidate budgets are deterministic).
TEST(DegradedSearchTest, OneCandidateBudgetIsValidDegradedAndDeterministic) {
  double cost_at_1 = 0;
  for (int threads : {1, 8}) {
    core::MappingEngine engine = ImdbEngine();
    core::SearchOptions options = core::GreedySoOptions();
    options.threads = threads;
    options.max_candidates = 1;
    auto result = engine.FindBestConfiguration(options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const core::SearchResult& search = result->search;
    EXPECT_TRUE(search.degraded);
    EXPECT_NE(search.degraded_reason.find("candidate budget"),
              std::string::npos);
    // Exactly the initial configuration plus one candidate were costed.
    EXPECT_EQ(search.stats.schemas_costed, 2);
    EXPECT_EQ(search.stats.candidates_failed, 0);
    // The returned configuration is fully mapped (engine result carries the
    // catalog) and its cost is real.
    EXPECT_GT(result->mapping.catalog().size(), 0u);
    EXPECT_GT(search.best_cost, 0);
    EXPECT_TRUE(map::MapSchema(search.best_schema).ok());
    // Summary/explain surface the degradation.
    EXPECT_NE(core::SearchSummary(search).find("degraded"),
              std::string::npos);
    EXPECT_NE(core::ExplainSearchTable(search).find("degraded"),
              std::string::npos);
    if (threads == 1) {
      cost_at_1 = search.best_cost;
    } else {
      EXPECT_DOUBLE_EQ(search.best_cost, cost_at_1);  // bit-for-bit
    }
  }
}

// Acceptance shape: a failpoint-forced optimizer fault on a candidate is
// skipped (counted), the search completes, and the result is degraded but
// valid — at 1 and 8 threads.
TEST(DegradedSearchTest, FailpointForcedOptimizerFaultSkipsCandidate) {
  for (int threads : {1, 8}) {
    core::MappingEngine engine = ImdbEngine();
    core::SearchOptions options = core::GreedySoOptions();
    options.threads = threads;
    // The 2nd full configuration costing (= the first candidate) fails.
    options.failpoints = "search.cost_schema=2";
    auto result = engine.FindBestConfiguration(options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const core::SearchResult& search = result->search;
    EXPECT_TRUE(search.degraded);
    EXPECT_NE(search.degraded_reason.find("skipped"), std::string::npos);
    EXPECT_EQ(search.stats.candidates_failed, 1);
    EXPECT_GT(search.stats.schemas_costed, 0);
    EXPECT_TRUE(map::MapSchema(search.best_schema).ok());
    EXPECT_GT(search.best_cost, 0);
    // SearchStats and the run's metric counters agree.
    EXPECT_EQ(result->report.CounterValue("search.candidates_failed"),
              search.stats.candidates_failed);
    EXPECT_EQ(result->report.CounterValue("search.degraded"), 1);
    // The failpoint was disarmed when the search returned.
    EXPECT_FALSE(fp::AnyActive());
  }
}

TEST(DegradedSearchTest, OptimizerFailpointAfterInitialCostIsSkipped) {
  core::MappingEngine engine = ImdbEngine();
  core::SearchOptions options = core::GreedySoOptions();
  options.threads = 1;
  options.cache_query_costs = false;  // every schema costs 4 plan calls
  // Plan calls 1..4 cost the initial configuration; the 5th (first
  // candidate's first query) fails.
  options.failpoints = "optimizer.plan_query=5";
  auto result = engine.FindBestConfiguration(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->search.degraded);
  EXPECT_EQ(result->search.stats.candidates_failed, 1);
  EXPECT_NE(result->search.degraded_reason.find("optimizer.plan_query"),
            std::string::npos);
  EXPECT_TRUE(map::MapSchema(result->search.best_schema).ok());
}

TEST(DegradedSearchTest, TransformFailpointIsSkippedNotFatal) {
  core::MappingEngine engine = ImdbEngine();
  core::SearchOptions options = core::GreedySoOptions();
  options.threads = 1;
  options.failpoints = "transforms.apply=1";
  auto result = engine.FindBestConfiguration(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->search.degraded);
  EXPECT_EQ(result->search.stats.candidates_failed, 1);
}

TEST(DegradedSearchTest, InvalidFailpointSpecFailsTheSearch) {
  core::MappingEngine engine = ImdbEngine();
  core::SearchOptions options = core::GreedySoOptions();
  options.failpoints = "site=0";
  auto result = engine.FindBestConfiguration(options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST(DegradedSearchTest, IterationBudgetDegradesGracefully) {
  core::MappingEngine engine = ImdbEngine();
  core::SearchOptions options = core::GreedySoOptions();
  options.threads = 1;
  options.max_iterations = 1;  // greedy-so needs many more to converge
  auto result = engine.FindBestConfiguration(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->search.degraded);
  EXPECT_NE(result->search.degraded_reason.find("iteration budget"),
            std::string::npos);
  EXPECT_LE(result->search.trace.size(), 2u);
  EXPECT_TRUE(map::MapSchema(result->search.best_schema).ok());
}

TEST(DegradedSearchTest, WallClockBudgetReturnsBestSoFar) {
  core::MappingEngine engine = ImdbEngine();
  core::SearchOptions options = core::GreedySoOptions();
  options.threads = 1;
  options.budget_ms = 1;  // almost certainly exhausted mid-search
  auto result = engine.FindBestConfiguration(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Timing-dependent whether the budget tripped before convergence, but
  // the contract holds either way: a valid, costed configuration.
  EXPECT_TRUE(map::MapSchema(result->search.best_schema).ok());
  EXPECT_GT(result->search.best_cost, 0);
  if (result->search.degraded) {
    EXPECT_NE(result->search.degraded_reason.find("wall-clock"),
              std::string::npos);
  }
}

TEST(DegradedSearchTest, UnbudgetedSearchIsNotDegraded) {
  core::MappingEngine engine = ImdbEngine();
  auto result = engine.FindBestConfiguration(core::GreedySoOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->search.degraded);
  EXPECT_TRUE(result->search.degraded_reason.empty());
  EXPECT_EQ(result->search.stats.candidates_failed, 0);
  EXPECT_EQ(result->report.CounterValue("search.degraded"), 0);
}

TEST(DegradedSearchTest, ForceSerialFailpointPreservesResults) {
  core::MappingEngine engine = ImdbEngine();
  core::SearchOptions serial = core::GreedySoOptions();
  serial.threads = 1;
  auto baseline = engine.FindBestConfiguration(serial);
  ASSERT_TRUE(baseline.ok());

  core::SearchOptions starved = core::GreedySoOptions();
  starved.threads = 8;
  starved.failpoints = "parallel.force_serial";  // pool degraded to serial
  auto degraded_pool = engine.FindBestConfiguration(starved);
  ASSERT_TRUE(degraded_pool.ok());
  EXPECT_DOUBLE_EQ(degraded_pool->search.best_cost,
                   baseline->search.best_cost);
  EXPECT_EQ(degraded_pool->search.trace.size(),
            baseline->search.trace.size());
  EXPECT_FALSE(degraded_pool->search.degraded);
}

}  // namespace
}  // namespace legodb
