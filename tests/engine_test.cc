// Unit tests for the execution engine: operator semantics (scans, index
// lookups, hash and index-nested-loop joins, outer joins, NOT NULL and
// equality filters), parameter binding, and work counters.
#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/explain_analyze.h"
#include "engine/prepared.h"
#include "engine/reference_executor.h"
#include "obs/obs.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "storage/database.h"
#include "storage/shredder.h"
#include "xml/parser.h"
#include "xschema/schema_parser.h"

namespace legodb::engine {
namespace {

using opt::PhysicalPlan;

// Column positions in the fixture's tables P(P_id) and
// C(C_id, name, size, parent_P); SetUp checks them against the catalog.
constexpr int kKey = rel::Table::kKeyColumn;
constexpr int kName = 1;
constexpr int kSize = 2;
constexpr int kParentP = 3;

// Fixture: Parent(2 rows) / Child(3 rows) shredded from a tiny document.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = xs::ParseSchema(
        "type P = p[ C* ] "
        "type C = c[ name[ String ], size[ Integer ]? ]");
    ASSERT_TRUE(schema.ok());
    auto mapping = map::MapSchema(ps::Normalize(schema.value()));
    ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
    mapping_ = std::make_unique<map::Mapping>(std::move(mapping).value());
    const rel::Table& c = mapping_->catalog().table(Table("C"));
    ASSERT_EQ(c.ColumnIndex("name"), kName);
    ASSERT_EQ(c.ColumnIndex("size"), kSize);
    ASSERT_EQ(c.ColumnIndex("parent_P"), kParentP);
    ASSERT_EQ(c.columns.size(), 4u);
    ASSERT_EQ(mapping_->catalog().table(Table("P")).columns.size(), 1u);
    db_ = std::make_unique<store::Database>(mapping_->catalog());
    auto doc = xml::ParseDocument(
        "<p>"
        "<c><name>alpha</name><size>10</size></c>"
        "<c><name>beta</name></c>"
        "<c><name>alpha</name><size>30</size></c>"
        "</p>");
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(store::ShredDocument(doc.value(), *mapping_, db_.get()).ok());
  }

  // The index of table `name` in the fixture's catalog.
  int Table(const char* name) const {
    return mapping_->catalog().IndexOf(name);
  }

  // A one-table scan block over C outputting `name`.
  opt::QueryBlock ChildBlock() {
    opt::QueryBlock b;
    b.rels.push_back(opt::BaseRel{Table("C"), "c"});
    b.output.push_back(opt::ColumnRef{0, kName, "name"});
    return b;
  }

  // P joined to its children C (left outer when `outer`), outputting the
  // child's name.
  opt::QueryBlock JoinBlock(bool outer) {
    opt::QueryBlock b;
    b.rels.push_back(opt::BaseRel{Table("P"), "p"});
    b.rels.push_back(opt::BaseRel{Table("C"), "c"});
    b.joins.push_back(opt::JoinEdge{0, kKey, 1, kParentP, outer});
    b.output.push_back(opt::ColumnRef{1, kName, "name"});
    return b;
  }

  xq::ResultSet Execute(const opt::QueryBlock& block,
                        std::map<std::string, Value> params = {}) {
    opt::Optimizer optimizer(mapping_->catalog());
    auto planned = optimizer.PlanBlock(block);
    EXPECT_TRUE(planned.ok()) << planned.status().ToString();
    Executor exec(db_.get(), std::move(params));
    auto result = exec.ExecuteBlock(block, planned->plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    last_stats_ = exec.stats();
    return std::move(result).value();
  }

  std::unique_ptr<map::Mapping> mapping_;
  std::unique_ptr<store::Database> db_;
  ExecStats last_stats_;
};

TEST_F(EngineTest, SeqScanReturnsAllRows) {
  xq::ResultSet r = Execute(ChildBlock());
  EXPECT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.labels, (std::vector<std::string>{"name"}));
  EXPECT_GT(last_stats_.tuples_processed, 2);
  EXPECT_GT(last_stats_.bytes_read, 0);
}

TEST_F(EngineTest, EqualityFilter) {
  opt::QueryBlock b = ChildBlock();
  b.filters.push_back(opt::FilterPred{0, kName, xq::CompareOp::kEq, xq::Constant::Str("alpha")});
  xq::ResultSet r = Execute(b);
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(EngineTest, SymbolicParameterBinds) {
  opt::QueryBlock b = ChildBlock();
  b.filters.push_back(
      opt::FilterPred{0, kName, xq::CompareOp::kEq, xq::Constant::Symbol("c1")});
  xq::ResultSet r = Execute(b, {{"c1", Value::Str("beta")}});
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(EngineTest, UnboundParameterErrors) {
  opt::QueryBlock b = ChildBlock();
  b.filters.push_back(opt::FilterPred{0, kName, xq::CompareOp::kEq, xq::Constant::Symbol("c9")});
  opt::Optimizer optimizer(mapping_->catalog());
  auto planned = optimizer.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  Executor exec(db_.get());
  EXPECT_FALSE(exec.ExecuteBlock(b, planned->plan).ok());
}

TEST_F(EngineTest, NotNullFilter) {
  opt::QueryBlock b = ChildBlock();
  opt::FilterPred f;
  f.rel = 0;
  f.column = kSize;
  f.not_null = true;
  b.filters.push_back(f);
  xq::ResultSet r = Execute(b);
  EXPECT_EQ(r.rows.size(), 2u);  // beta's size is NULL
}

TEST_F(EngineTest, IntegerFilterComparesNumerically) {
  opt::QueryBlock b = ChildBlock();
  b.filters.push_back(opt::FilterPred{0, kSize, xq::CompareOp::kEq, xq::Constant::Int(30)});
  xq::ResultSet r = Execute(b);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Str("alpha"));
}

TEST_F(EngineTest, InnerJoinMatchesFks) {
  xq::ResultSet r = Execute(JoinBlock(false));
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(EngineTest, JoinWithFilterOnChild) {
  opt::QueryBlock b = JoinBlock(false);
  b.filters.push_back(opt::FilterPred{1, kSize, xq::CompareOp::kEq, xq::Constant::Int(10)});
  xq::ResultSet r = Execute(b);
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(EngineTest, LeftOuterJoinKeepsUnmatchedOuter) {
  // Filter children to none; the parent row must survive with NULL name.
  opt::QueryBlock b = JoinBlock(true);
  b.filters.push_back(
      opt::FilterPred{1, kName, xq::CompareOp::kEq, xq::Constant::Str("nonexistent")});
  xq::ResultSet r = Execute(b);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].is_null());
}

TEST_F(EngineTest, ExplicitIndexNlJoinPlanExecutes) {
  // Hand-build an IndexNLJoin plan: scan P, probe C.parent_P.
  opt::QueryBlock b = JoinBlock(false);
  auto scan = std::make_shared<PhysicalPlan>();
  scan->kind = PhysicalPlan::Kind::kSeqScan;
  scan->rel = 0;
  auto join = std::make_shared<PhysicalPlan>();
  join->kind = PhysicalPlan::Kind::kIndexNLJoin;
  join->left = scan;
  join->rel = 1;
  join->index_column = kParentP;
  join->left_join_rel = 0;
  join->left_join_column = kKey;
  join->right_join_rel = 1;
  join->right_join_column = kParentP;
  auto project = std::make_shared<PhysicalPlan>();
  project->kind = PhysicalPlan::Kind::kProject;
  project->child = join;
  Executor exec(db_.get());
  auto r = exec.ExecuteBlock(b, project);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 3u);
  EXPECT_GT(exec.stats().seeks, 0);
}

TEST_F(EngineTest, ExplicitIndexLookupPlanExecutes) {
  opt::QueryBlock b = ChildBlock();
  b.filters.push_back(opt::FilterPred{0, kKey, xq::CompareOp::kEq, xq::Constant::Int(3)});
  auto lookup = std::make_shared<PhysicalPlan>();
  lookup->kind = PhysicalPlan::Kind::kIndexLookup;
  lookup->rel = 0;
  lookup->index_column = kKey;
  lookup->filters = b.filters;
  auto project = std::make_shared<PhysicalPlan>();
  project->kind = PhysicalPlan::Kind::kProject;
  project->child = lookup;
  Executor exec(db_.get());
  auto r = exec.ExecuteBlock(b, project);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST_F(EngineTest, NullLiteralOutputColumn) {
  opt::QueryBlock b = ChildBlock();
  opt::ColumnRef null_col;
  null_col.rel = -1;
  null_col.label = "missing";
  b.output.push_back(null_col);
  xq::ResultSet r = Execute(b);
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(EngineTest, StatsAccumulateAcrossBlocks) {
  Executor exec(db_.get());
  opt::Optimizer optimizer(mapping_->catalog());
  opt::QueryBlock b = ChildBlock();
  auto planned = optimizer.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  ASSERT_TRUE(exec.ExecuteBlock(b, planned->plan).ok());
  double first = exec.stats().tuples_processed;
  ASSERT_TRUE(exec.ExecuteBlock(b, planned->plan).ok());
  EXPECT_NEAR(exec.stats().tuples_processed, 2 * first, 1e-9);
  exec.ResetStats();
  EXPECT_EQ(exec.stats().tuples_processed, 0);
}

TEST_F(EngineTest, WeightedCostCombinesCounters) {
  ExecStats s;
  s.seeks = 2;
  s.bytes_read = 100;
  s.bytes_out = 50;
  s.tuples_processed = 10;
  EXPECT_DOUBLE_EQ(s.WeightedCost(10, 0.5, 1, 0.1), 20 + 50 + 50 + 1);
}

TEST_F(EngineTest, RejectsPlanWithoutProjection) {
  auto scan = std::make_shared<PhysicalPlan>();
  scan->kind = PhysicalPlan::Kind::kSeqScan;
  scan->rel = 0;
  Executor exec(db_.get());
  EXPECT_FALSE(exec.ExecuteBlock(ChildBlock(), scan).ok());
}

// --- Column-outside-table regression ---------------------------------------
// A filter or residual naming a position outside its table means the
// translator and catalog drifted apart; the seed executor silently dropped
// every row. Both executors must fail loudly, naming the table and position.

opt::PhysicalPlanPtr ScanProjectPlan(
    int rel, const std::vector<opt::FilterPred>& filters) {
  auto scan = std::make_shared<PhysicalPlan>();
  scan->kind = PhysicalPlan::Kind::kSeqScan;
  scan->rel = rel;
  scan->filters = filters;
  auto project = std::make_shared<PhysicalPlan>();
  project->kind = PhysicalPlan::Kind::kProject;
  project->child = scan;
  return project;
}

TEST_F(EngineTest, UnknownFilterColumnIsAnErrorNotEmptyResult) {
  for (int column : {4, -1}) {
    opt::QueryBlock b = ChildBlock();
    b.filters.push_back(opt::FilterPred{0, column, xq::CompareOp::kEq,
                                        xq::Constant::Str("x")});
    opt::PhysicalPlanPtr plan = ScanProjectPlan(0, b.filters);
    const std::string want =
        "no column #" + std::to_string(column) + " in table 'C'";

    Executor exec(db_.get());
    auto r = exec.ExecuteBlock(b, plan);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
    EXPECT_NE(r.status().ToString().find(want), std::string::npos)
        << r.status().ToString();

    ReferenceExecutor ref(db_.get());
    auto rr = ref.ExecuteBlock(b, plan);
    ASSERT_FALSE(rr.ok());
    EXPECT_EQ(rr.status().code(), Status::Code::kNotFound);
    EXPECT_NE(rr.status().ToString().find(want), std::string::npos)
        << rr.status().ToString();
  }
}

// Hand-built hash join P (probe) x C (build) on P_id = parent_P.
opt::PhysicalPlanPtr HashJoinPlan(bool left_outer,
                                  std::vector<opt::JoinEdge> residuals,
                                  std::vector<opt::FilterPred> build_filters =
                                      {}) {
  auto probe = std::make_shared<PhysicalPlan>();
  probe->kind = PhysicalPlan::Kind::kSeqScan;
  probe->rel = 0;
  auto build = std::make_shared<PhysicalPlan>();
  build->kind = PhysicalPlan::Kind::kSeqScan;
  build->rel = 1;
  build->filters = std::move(build_filters);
  auto join = std::make_shared<PhysicalPlan>();
  join->kind = PhysicalPlan::Kind::kHashJoin;
  join->left = probe;
  join->right = build;
  join->left_join_rel = 0;
  join->left_join_column = kKey;
  join->right_join_rel = 1;
  join->right_join_column = kParentP;
  join->left_outer = left_outer;
  join->residual_joins = std::move(residuals);
  auto project = std::make_shared<PhysicalPlan>();
  project->kind = PhysicalPlan::Kind::kProject;
  project->child = join;
  return project;
}

TEST_F(EngineTest, UnknownResidualColumnIsAnErrorNotEmptyResult) {
  for (int column : {1, -1}) {
    opt::QueryBlock b = JoinBlock(false);
    opt::PhysicalPlanPtr plan = HashJoinPlan(
        false, {opt::JoinEdge{0, column, 1, kParentP, false}});
    const std::string want =
        "no column #" + std::to_string(column) + " in table 'P'";

    Executor exec(db_.get());
    auto r = exec.ExecuteBlock(b, plan);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
    EXPECT_NE(r.status().ToString().find(want), std::string::npos)
        << r.status().ToString();

    ReferenceExecutor ref(db_.get());
    auto rr = ref.ExecuteBlock(b, plan);
    ASSERT_FALSE(rr.ok());
    EXPECT_EQ(rr.status().code(), Status::Code::kNotFound);
    EXPECT_NE(rr.status().ToString().find(want), std::string::npos)
        << rr.status().ToString();
  }
}

// --- Outer join vs. residual predicates -----------------------------------
// When every hash match fails the residual predicate, the probe row must
// be preserved exactly once (not once per failed match, not dropped).

TEST_F(EngineTest, OuterJoinPreservesRowOnceWhenAllResidualsFail) {
  opt::QueryBlock b = JoinBlock(true);
  // P_id (1) never equals C.size (10, NULL, 30): every one of the three
  // hash matches fails the residual.
  opt::PhysicalPlanPtr plan =
      HashJoinPlan(true, {opt::JoinEdge{0, kKey, 1, kSize, false}});

  for (size_t batch_size : {size_t{1}, size_t{4}, size_t{1024}}) {
    ExecOptions options;
    options.batch_size = batch_size;
    Executor exec(db_.get(), {}, options);
    auto r = exec.ExecuteBlock(b, plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u) << "batch_size=" << batch_size;
    EXPECT_TRUE(r->rows[0][0].is_null());
  }

  ReferenceExecutor ref(db_.get());
  auto rr = ref.ExecuteBlock(b, plan);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  ASSERT_EQ(rr->rows.size(), 1u);
  EXPECT_TRUE(rr->rows[0][0].is_null());
}

TEST_F(EngineTest, OuterJoinResidualFailureWithMaterializedBuildSide) {
  // A filter on the build side forces the materializing (non-shared-index)
  // hash-join path; the outer row must still survive exactly once.
  opt::QueryBlock b = JoinBlock(true);
  opt::FilterPred not_null;
  not_null.rel = 1;
  not_null.column = kSize;
  not_null.not_null = true;
  opt::PhysicalPlanPtr plan =
      HashJoinPlan(true, {opt::JoinEdge{0, kKey, 1, kSize, false}},
                   {not_null});

  Executor exec(db_.get());
  auto r = exec.ExecuteBlock(b, plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(r->rows[0][0].is_null());
}

TEST_F(EngineTest, OuterJoinStillEmitsMatchesThatPassResiduals) {
  // A residual that compares a column to itself passes on every match:
  // all three children join, no NULL-preserved row appears.
  opt::QueryBlock b = JoinBlock(true);
  opt::PhysicalPlanPtr plan =
      HashJoinPlan(true, {opt::JoinEdge{1, kName, 1, kName, false}});
  Executor exec(db_.get());
  auto r = exec.ExecuteBlock(b, plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 3u);
  for (const auto& row : r->rows) EXPECT_FALSE(row[0].is_null());
}

// --- Join keys of mixed kinds ----------------------------------------------
// Equi-joins between an integer-only column (A.k) and one holding integers,
// numeric-looking strings and NULLs (B.v) compare exact Values: Int(5)
// matches Int(5) but never Str("5"), and NULL matches nothing. Every hash
// table path must agree with the reference executor row for row.

// Table `name`(name_id, `key_column`): the join key is column 1.
rel::Table KeyTable(const std::string& name, const std::string& key_column) {
  rel::Table t;
  t.name = name;
  rel::Column id, key;
  id.name = name + "_id";
  key.name = key_column;
  key.nullable = true;
  t.columns = {id, key};
  return t;
}

// Rel `probe` joins the other rel (0 = A on k, 1 = B on v) through `path`:
// a HashJoin probing the shared index, a HashJoin that materializes its
// build side (forced by an always-true NOT NULL filter on the build table's
// id column), or an IndexNLJoin over the build table's index.
enum class JoinPath { kSharedIndexHash, kMaterializedHash, kIndexNL };

opt::PhysicalPlanPtr MixedJoinPlan(JoinPath path, int probe, bool outer) {
  const int build = 1 - probe;
  auto scan = [](int rel) {
    auto s = std::make_shared<PhysicalPlan>();
    s->kind = PhysicalPlan::Kind::kSeqScan;
    s->rel = rel;
    return s;
  };
  auto join = std::make_shared<PhysicalPlan>();
  join->left = scan(probe);
  join->left_join_rel = probe;
  join->left_join_column = 1;
  join->right_join_rel = build;
  join->right_join_column = 1;
  join->left_outer = outer;
  if (path == JoinPath::kIndexNL) {
    join->kind = PhysicalPlan::Kind::kIndexNLJoin;
    join->rel = build;
    join->index_column = 1;
  } else {
    join->kind = PhysicalPlan::Kind::kHashJoin;
    auto build_scan = scan(build);
    if (path == JoinPath::kMaterializedHash) {
      opt::FilterPred not_null;
      not_null.rel = build;
      not_null.column = kKey;
      not_null.not_null = true;
      build_scan->filters.push_back(not_null);
    }
    join->right = build_scan;
  }
  EXPECT_EQ(ProbesSharedIndex(*join), path == JoinPath::kSharedIndexHash);
  auto project = std::make_shared<PhysicalPlan>();
  project->kind = PhysicalPlan::Kind::kProject;
  project->child = join;
  return project;
}

TEST_F(EngineTest, MixedKindJoinKeysMatchReference) {
  rel::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(KeyTable("A", "k")).ok());
  ASSERT_TRUE(catalog.AddTable(KeyTable("B", "v")).ok());
  store::Database db(catalog);  // table 0 is A, table 1 is B
  const std::vector<Value> a_keys = {Value::Int(5),  Value::MakeNull(),
                                     Value::Int(7),  Value::Int(-3),
                                     Value::Int(5),  Value::Int(0)};
  const std::vector<Value> b_keys = {
      Value::Int(5), Value::Str("5"), Value::MakeNull(), Value::Int(7),
      Value::Str("x"), Value::Int(5), Value::Int(0),   Value::Str("0")};
  int64_t id = 1;
  for (const Value& k : a_keys) {
    ASSERT_TRUE(db.table(0).Insert({Value::Int(id++), k}).ok());
  }
  for (const Value& v : b_keys) {
    ASSERT_TRUE(db.table(1).Insert({Value::Int(id++), v}).ok());
  }
  auto a_col = db.table(0).GetOrBuildColumn(1);
  auto b_col = db.table(1).GetOrBuildColumn(1);
  ASSERT_TRUE(a_col.ok() && b_col.ok());
  ASSERT_TRUE((*a_col)->typed_int());
  ASSERT_FALSE((*b_col)->typed_int());

  opt::QueryBlock b;
  b.rels = {opt::BaseRel{0, "a"}, opt::BaseRel{1, "b"}};
  b.output = {opt::ColumnRef{0, kKey, "a_id"}, opt::ColumnRef{0, 1, "k"},
              opt::ColumnRef{1, kKey, "b_id"}, opt::ColumnRef{1, 1, "v"}};
  for (JoinPath path : {JoinPath::kSharedIndexHash,
                        JoinPath::kMaterializedHash, JoinPath::kIndexNL}) {
    for (int probe : {0, 1}) {
      for (bool outer : {false, true}) {
        std::string context = "path=" + std::to_string(static_cast<int>(path)) +
                              " probe=" + std::to_string(probe) +
                              " outer=" + std::to_string(outer);
        b.joins = {opt::JoinEdge{probe, 1, 1 - probe, 1, outer}};
        opt::PhysicalPlanPtr plan = MixedJoinPlan(path, probe, outer);
        ReferenceExecutor ref(&db);
        auto want = ref.ExecuteBlock(b, plan);
        ASSERT_TRUE(want.ok()) << context << want.status().ToString();
        // A=5 twice x B=5 twice, A=7 x B=7, A=0 x B=0.
        size_t inner_rows = 6;
        size_t outer_rows = probe == 0 ? inner_rows + 2 : inner_rows + 4;
        EXPECT_EQ(want->rows.size(), outer ? outer_rows : inner_rows)
            << context;
        for (size_t batch_size : {size_t{1}, size_t{1024}}) {
          ExecOptions options;
          options.batch_size = batch_size;
          Executor exec(&db, {}, options);
          auto got = exec.ExecuteBlock(b, plan);
          ASSERT_TRUE(got.ok()) << context << got.status().ToString();
          EXPECT_EQ(got->rows, want->rows)
              << context << " batch_size=" << batch_size << "\nwant:\n"
              << want->ToString() << "got:\n"
              << got->ToString();
        }
      }
    }
  }
}

// --- Outer-join orientation ------------------------------------------------
// P's optional children C and D are two left-outer edges of one block. A
// hash join must probe from P for both: probing from a child and marking the
// join left-outer drops every parent without such a child. Scaling the
// statistics steers the planner through its orientations; at every scaling
// both executors must return all three parents, and the plan must pass
// CheckPlan.
TEST(OuterJoinOrientation, LeftOuterHashJoinsPreserveTheParent) {
  auto schema = xs::ParseSchema(
      "type R = r[ P* ] type P = p[ a[String], C*, D* ] "
      "type C = c[String] type D = d[String]");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  auto mapping = map::MapSchema(ps::Normalize(schema.value()));
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  const rel::Catalog& catalog = mapping->catalog();
  store::Database db(catalog);
  auto doc = xml::ParseDocument(
      "<r><p><a>one</a><c>x</c><d>y</d></p>"
      "<p><a>two</a><d>z</d></p>"
      "<p><a>three</a><c>w</c></p></r>");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(store::ShredDocument(doc.value(), *mapping, &db).ok());

  const int tables[3] = {catalog.IndexOf("P"), catalog.IndexOf("C"),
                         catalog.IndexOf("D")};
  opt::QueryBlock block;
  block.rels = {opt::BaseRel{tables[0], "p"}, opt::BaseRel{tables[1], "c"},
                opt::BaseRel{tables[2], "d"}};
  block.output.push_back(
      opt::ColumnRef{0, catalog.table(tables[0]).ColumnIndex("a"), "a"});
  for (int child : {1, 2}) {
    const rel::Table& t = catalog.table(tables[child]);
    ASSERT_EQ(t.foreign_keys.size(), 1u);
    const int fk = t.foreign_keys[0].column;
    block.joins.push_back(opt::JoinEdge{0, kKey, child, fk, true});
    // The child's one column besides its key and its foreign key.
    const int value = fk == 1 ? 2 : 1;
    ASSERT_EQ(t.columns.size(), 3u);
    block.output.push_back(opt::ColumnRef{child, value, t.columns[value].name});
  }
  std::vector<const rel::Table*> metas;
  for (int t : tables) metas.push_back(&catalog.table(t));

  int scalings = 0;
  for (double p_scale : {1.0, 10.0, 100.0, 1000.0}) {
    for (double c_scale : {1.0, 10.0, 100.0, 1000.0, 10000.0}) {
      for (double d_scale : {1.0, 10.0, 100.0, 1000.0, 10000.0}) {
        const std::string context = "P x" + std::to_string(p_scale) +
                                    " C x" + std::to_string(c_scale) +
                                    " D x" + std::to_string(d_scale);
        const double scales[3] = {p_scale, c_scale, d_scale};
        rel::Catalog scaled;
        for (int index = 0; index < static_cast<int>(catalog.size());
             ++index) {
          rel::Table t = catalog.table(index);
          for (int i = 0; i < 3; ++i) {
            if (index != tables[i]) continue;
            t.row_count *= scales[i];
            for (rel::Column& c : t.columns) c.distincts *= scales[i];
          }
          ASSERT_TRUE(scaled.AddTable(std::move(t)).ok());
        }
        auto planned = opt::Optimizer(scaled).PlanBlock(block);
        ASSERT_TRUE(planned.ok()) << context << planned.status().ToString();
        Status checked = opt::CheckPlan(block, metas, planned->plan);
        EXPECT_TRUE(checked.ok()) << context << ": " << checked.ToString();

        auto want = ReferenceExecutor(&db).ExecuteBlock(block, planned->plan);
        ASSERT_TRUE(want.ok()) << context << want.status().ToString();
        EXPECT_EQ(want->rows.size(), 3u)
            << context << "\n" << planned->plan->ToString(scaled, block);
        for (size_t batch_size : {size_t{1}, size_t{1024}}) {
          ExecOptions options;
          options.batch_size = batch_size;
          auto got = Executor(&db, {}, options).ExecuteBlock(block,
                                                             planned->plan);
          ASSERT_TRUE(got.ok()) << context << got.status().ToString();
          EXPECT_EQ(got->rows, want->rows) << context;
        }
        ++scalings;
      }
    }
  }
  EXPECT_EQ(scalings, 100);
}

TEST_F(EngineTest, ExplainAnalyzeRendersProfiledExecution) {
  opt::QueryBlock block = JoinBlock(false);
  opt::Optimizer optimizer(mapping_->catalog());
  auto planned = optimizer.PlanBlock(block);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  ExecOptions options;
  options.collect_profile = true;
  Executor exec(db_.get(), {}, options);
  auto r = exec.ExecuteBlock(block, planned->plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const ExecProfile& profile = exec.profile();
  ASSERT_GE(profile.ops.size(), 2u);  // project + at least one input
  for (size_t i = 0; i < profile.ops.size(); ++i) {
    const OpActual& op = profile.ops[i];
    // Every operator answered at least its EOS batch, and exclusive time
    // never exceeds inclusive time.
    EXPECT_GE(op.batches, 1) << op.label;
    EXPECT_LE(SelfMillis(profile, i), op.ms + 1e-9) << op.label;
    EXPECT_GE(SelfMillis(profile, i), 0.0) << op.label;
  }
  // The root is the projection; its inclusive seeks cover the whole tree,
  // so no descendant can exceed it.
  EXPECT_EQ(profile.ops[0].depth, 0);
  for (const OpActual& op : profile.ops) {
    EXPECT_LE(op.seeks, profile.ops[0].seeks) << op.label;
  }

  std::string table = ExplainAnalyzeTable(profile);
  EXPECT_NE(table.find("operator"), std::string::npos);
  EXPECT_NE(table.find("q-err"), std::string::npos);
  EXPECT_NE(table.find("Project"), std::string::npos);

  std::string json = ExplainAnalyzeJson(profile);
  EXPECT_TRUE(obs::ValidateJsonText(json).ok()) << json;
}

TEST_F(EngineTest, ExplainAnalyzeOnEmptyProfileIsValid) {
  ExecProfile empty;
  EXPECT_NE(ExplainAnalyzeTable(empty).find("operator"), std::string::npos);
  EXPECT_EQ(ExplainAnalyzeJson(empty), "[]");
  EXPECT_TRUE(obs::ValidateJsonText(ExplainAnalyzeJson(empty)).ok());
}

}  // namespace
}  // namespace legodb::engine
