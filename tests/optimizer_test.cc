// Unit tests for the relational optimizer: cardinality estimation, access
// path selection, join ordering and method choice, and cost-model
// monotonicity properties — over hand-built synthetic catalogs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>

#include "auction/auction.h"
#include "core/transforms.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "obs/obs.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "reference_planner.h"
#include "relational/catalog.h"
#include "translate/translate.h"
#include "xschema/annotate.h"
#include "xschema/stats_collector.h"

namespace legodb::opt {
namespace {

rel::Column Col(const std::string& name, rel::SqlType type, double distincts,
                double null_frac = 0) {
  rel::Column c;
  c.name = name;
  c.type = type;
  c.distincts = distincts;
  c.null_fraction = null_frac;
  c.nullable = null_frac > 0;
  return c;
}

// A two-table parent/child catalog: Parent(10k rows), Child(100k rows) with
// an FK to Parent, numbered kParent and kChild.
constexpr int kParent = 0;
constexpr int kChild = 1;
// Their columns after the key (rel::Table::kKeyColumn).
constexpr int kKey = rel::Table::kKeyColumn;
constexpr int kParentName = 1;
constexpr int kParentKind = 2;
constexpr int kChildValue = 1;
constexpr int kChildFk = 2;
rel::Catalog MakeCatalog() {
  rel::Catalog catalog;
  rel::Table parent;
  parent.name = "Parent";
  parent.row_count = 10000;
  parent.columns = {Col("Parent_id", rel::SqlType::Int(), 10000),
                    Col("name", rel::SqlType::Char(40), 10000),
                    Col("kind", rel::SqlType::Char(8), 4)};
  catalog.AddTable(parent);

  rel::Table child;
  child.name = "Child";
  child.row_count = 100000;
  child.columns = {Col("Child_id", rel::SqlType::Int(), 100000),
                   Col("value", rel::SqlType::Char(100), 50000),
                   Col("parent_Parent", rel::SqlType::Int(), 10000)};
  child.foreign_keys = {rel::ForeignKey{kChildFk, kParent}};
  catalog.AddTable(child);
  return catalog;
}

// A scan of `catalog`'s table `table` (of no table when it has none).
QueryBlock ScanBlock(const rel::Catalog& catalog, const std::string& table) {
  QueryBlock b;
  b.rels.push_back(BaseRel{catalog.IndexOf(table), table});
  b.output.push_back(ColumnRef{0, kKey, ""});
  return b;
}

TEST(Optimizer, SeqScanForUnfilteredTable) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  auto planned = opt.PlanBlock(ScanBlock(catalog, "Parent"));
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned->plan->child->kind, PhysicalPlan::Kind::kSeqScan);
  EXPECT_NEAR(planned->rows, 10000, 1);
}

TEST(Optimizer, KeyLookupUsesIndex) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock b = ScanBlock(catalog, "Parent");
  b.filters.push_back(FilterPred{0, kKey, xq::CompareOp::kEq, xq::Constant::Int(5)});
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->plan->child->kind, PhysicalPlan::Kind::kIndexLookup);
  EXPECT_NEAR(planned->rows, 1, 0.01);
}

TEST(Optimizer, NonIndexedFilterScansByDefault) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock b = ScanBlock(catalog, "Parent");
  b.filters.push_back(FilterPred{0, kParentName, xq::CompareOp::kEq,
                                 xq::Constant::Symbol("c1")});
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->plan->child->kind, PhysicalPlan::Kind::kSeqScan);
}

TEST(Optimizer, PredicateIndexOptionEnablesLookup) {
  rel::Catalog catalog = MakeCatalog();
  CostParams params;
  params.index_on_predicates = true;
  Optimizer opt(catalog, params);
  QueryBlock b = ScanBlock(catalog, "Parent");
  b.filters.push_back(FilterPred{0, kParentName, xq::CompareOp::kEq,
                                 xq::Constant::Symbol("c1")});
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->plan->child->kind, PhysicalPlan::Kind::kIndexLookup);
}

TEST(Optimizer, SelectivityReducesCardinality) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock b = ScanBlock(catalog, "Parent");
  b.filters.push_back(FilterPred{0, kParentKind, xq::CompareOp::kEq,
                                 xq::Constant::Symbol("c1")});
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_NEAR(planned->rows, 10000.0 / 4, 1);  // 4 distinct kinds
}

TEST(Optimizer, NotNullSelectivityUsesNullFraction) {
  rel::Catalog catalog;
  rel::Table t;
  t.name = "T";
  t.row_count = 1000;
  t.columns = {Col("T_id", rel::SqlType::Int(), 1000),
               Col("opt", rel::SqlType::Char(10), 100, /*null_frac=*/0.75)};
  catalog.AddTable(t);
  Optimizer opt(catalog);
  QueryBlock b = ScanBlock(catalog, "T");
  FilterPred f{0, 1, xq::CompareOp::kEq, xq::Constant::Symbol("_"),
               /*not_null=*/true};
  b.filters.push_back(f);
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_NEAR(planned->rows, 250, 1);
}

QueryBlock JoinBlock() {
  QueryBlock b;
  b.rels.push_back(BaseRel{kParent, "p"});
  b.rels.push_back(BaseRel{kChild, "c"});
  b.joins.push_back(JoinEdge{0, kKey, 1, kChildFk, false});
  b.output.push_back(ColumnRef{1, kChildValue, ""});
  return b;
}

TEST(Optimizer, FkJoinCardinalityIsChildCount) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  auto planned = opt.PlanBlock(JoinBlock());
  ASSERT_TRUE(planned.ok());
  EXPECT_NEAR(planned->rows, 100000, 100);
}

TEST(Optimizer, SelectiveJoinPrefersIndexNestedLoops) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock b = JoinBlock();
  b.filters.push_back(FilterPred{0, kKey, xq::CompareOp::kEq, xq::Constant::Int(7)});
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  // One parent row drives probes into the child's FK index.
  EXPECT_EQ(planned->plan->child->kind, PhysicalPlan::Kind::kIndexNLJoin);
  EXPECT_NEAR(planned->rows, 10, 0.5);
}

TEST(Optimizer, UnselectiveJoinPrefersHashJoin) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  auto planned = opt.PlanBlock(JoinBlock());
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->plan->child->kind, PhysicalPlan::Kind::kHashJoin);
}

TEST(Optimizer, LeftOuterJoinCardinalityAtLeastOuter) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock b;
  b.rels.push_back(BaseRel{kChild, "c"});
  b.rels.push_back(BaseRel{kParent, "p"});
  // Left-outer from Child to a filtered Parent: every child row survives...
  b.joins.push_back(JoinEdge{0, kChildFk, 1, kKey, true});
  b.output.push_back(ColumnRef{0, kChildValue, ""});
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_GE(planned->rows, 100000 * 0.99);
}

TEST(Optimizer, CostGrowsWithTableSize) {
  double costs[2] = {0, 0};
  double scales[2] = {1.0, 10.0};
  for (int i = 0; i < 2; ++i) {
    rel::Catalog catalog;
    rel::Table t;
    t.name = "T";
    t.row_count = 1000 * scales[i];
    t.columns = {Col("T_id", rel::SqlType::Int(), t.row_count),
                 Col("x", rel::SqlType::Char(50), t.row_count)};
    catalog.AddTable(t);
    Optimizer opt(catalog);
    auto planned = opt.PlanBlock(ScanBlock(catalog, "T"));
    ASSERT_TRUE(planned.ok());
    costs[i] = planned->cost;
  }
  EXPECT_GT(costs[1], costs[0] * 5);
}

TEST(Optimizer, FiveWayChainJoinPlans) {
  // A -> B -> C -> D -> E chain; DP must find a connected order.
  rel::Catalog catalog;
  std::string prev;
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    rel::Table t;
    t.name = name;
    t.row_count = 1000;
    t.columns = {Col(std::string(name) + "_id", rel::SqlType::Int(), 1000)};
    if (!prev.empty()) {
      t.columns.push_back(
          Col("parent_" + prev, rel::SqlType::Int(), 1000));
      t.foreign_keys = {
          rel::ForeignKey{1, static_cast<int>(catalog.size()) - 1}};
    }
    catalog.AddTable(t);
    prev = name;
  }
  QueryBlock b;
  for (int i = 0; i < 5; ++i) {
    std::string name(1, static_cast<char>('A' + i));
    b.rels.push_back(BaseRel{i, name});
    if (i > 0) b.joins.push_back(JoinEdge{i - 1, kKey, i, 1, false});
  }
  b.output.push_back(ColumnRef{4, kKey, ""});
  Optimizer opt(catalog);
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_GT(planned->cost, 0);
  EXPECT_NEAR(planned->rows, 1000, 10);
}

TEST(Optimizer, GreedyKicksInAboveDpLimit) {
  // 14 tables in a chain with dp_rel_limit 4 exercises the greedy path.
  rel::Catalog catalog;
  QueryBlock b;
  std::string prev;
  for (int i = 0; i < 14; ++i) {
    std::string name = "T" + std::to_string(i);
    rel::Table t;
    t.name = name;
    t.row_count = 100;
    t.columns = {Col(name + "_id", rel::SqlType::Int(), 100)};
    if (!prev.empty()) {
      t.columns.push_back(Col("parent_" + prev, rel::SqlType::Int(), 100));
      t.foreign_keys = {rel::ForeignKey{1, i - 1}};
    }
    catalog.AddTable(t);
    b.rels.push_back(BaseRel{i, name});
    if (i > 0) b.joins.push_back(JoinEdge{i - 1, kKey, i, 1, false});
    prev = name;
  }
  b.output.push_back(ColumnRef{0, kKey, ""});
  CostParams params;
  params.dp_rel_limit = 4;
  Optimizer opt(catalog, params);
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_GT(planned->cost, 0);
}

TEST(Optimizer, EmptyBlockRejected) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  EXPECT_FALSE(opt.PlanBlock(QueryBlock{}).ok());
}

TEST(Optimizer, UnknownTableRejected) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  EXPECT_FALSE(opt.PlanBlock(ScanBlock(catalog, "Nope")).ok());
}

TEST(Optimizer, PlanQuerySumsBlockCosts) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  RelQuery q;
  q.blocks.push_back(ScanBlock(catalog, "Parent"));
  q.blocks.push_back(ScanBlock(catalog, "Child"));
  auto planned = opt.PlanQuery(q);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->blocks.size(), 2u);
  EXPECT_NEAR(planned->total_cost,
              planned->blocks[0].cost + planned->blocks[1].cost, 1e-6);
}

TEST(Optimizer, WiderOutputCostsMore) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock narrow = ScanBlock(catalog, "Child");
  QueryBlock wide = ScanBlock(catalog, "Child");
  wide.output.push_back(ColumnRef{0, kChildValue, ""});
  auto p_narrow = opt.PlanBlock(narrow);
  auto p_wide = opt.PlanBlock(wide);
  ASSERT_TRUE(p_narrow.ok());
  ASSERT_TRUE(p_wide.ok());
  EXPECT_GT(p_wide->cost, p_narrow->cost);
}

TEST(Optimizer, PlanToStringRendersTree) {
  rel::Catalog catalog = MakeCatalog();
  Optimizer opt(catalog);
  QueryBlock b = JoinBlock();
  auto planned = opt.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  std::string s = planned->plan->ToString(catalog, b);
  EXPECT_NE(s.find("Project"), std::string::npos);
  EXPECT_NE(s.find("HashJoin"), std::string::npos);
}

// ---- Join enumeration edges -------------------------------------------

// Tables T0..T<n-1> and one block over all of them. Each (parent, child,
// left_outer) edge joins T<parent>'s key to an FK column of T<child>.
struct JoinGraph {
  rel::Catalog catalog;
  QueryBlock block;
};

struct GraphEdge {
  int parent;
  int child;
  bool left_outer = false;
};

// Tables T0..Tn-1 with one foreign key per edge (a repeated edge gets a
// second key column). Table i holds 100 * (i + 1) rows of growing width, or
// with `uniform` every table holds the same rows, so that plans tie on
// cost.
JoinGraph MakeJoinGraph(int n, const std::vector<GraphEdge>& edges,
                        bool uniform = false) {
  std::vector<rel::Table> tables(n);
  for (int i = 0; i < n; ++i) {
    rel::Table& t = tables[i];
    t.name = "T" + std::to_string(i);
    t.row_count = uniform ? 100.0 : 100.0 * (i + 1);
    t.columns = {Col(t.name + "_id", rel::SqlType::Int(), t.row_count),
                 Col("payload", rel::SqlType::Char(uniform ? 10 : 10 + 7 * i),
                     50)};
  }
  JoinGraph g;
  for (const GraphEdge& e : edges) {
    const std::string& parent = tables[e.parent].name;
    rel::Table& child = tables[e.child];
    std::string fk = "parent_" + parent;
    while (child.ColumnIndex(fk) >= 0) fk += "_";
    const int column = static_cast<int>(child.columns.size());
    child.columns.push_back(
        Col(fk, rel::SqlType::Int(), tables[e.parent].row_count));
    child.foreign_keys.push_back(rel::ForeignKey{column, e.parent});
    g.block.joins.push_back(
        JoinEdge{e.parent, kKey, e.child, column, e.left_outer});
  }
  for (int i = 0; i < n; ++i) {
    g.catalog.AddTable(tables[i]);
    g.block.rels.push_back(BaseRel{i, tables[i].name});
  }
  g.block.output.push_back(ColumnRef{n - 1, 1, ""});  // payload
  return g;
}

TEST(JoinEnumeration, DisconnectedBlockHasNoPlan) {
  JoinGraph g = MakeJoinGraph(2, {});
  Optimizer dp(g.catalog);
  auto planned = dp.PlanBlock(g.block);
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.status().code(), Status::Code::kInternal);
  EXPECT_EQ(planned.status().message(), "no plan found for block");

  CostParams params;
  params.dp_rel_limit = 1;  // two relations take the greedy path
  Optimizer greedy(g.catalog, params);
  obs::Registry registry;
  obs::ScopedRegistry scope(&registry);
  planned = greedy.PlanBlock(g.block);
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.status().code(), Status::Code::kInternal);
  EXPECT_EQ(planned.status().message(), "no plan found for block");
  EXPECT_EQ(registry.counter("optimizer.greedy_plans")->value(), 1);
}

TEST(JoinEnumeration, EdgeOutsideBlockRejected) {
  JoinGraph g = MakeJoinGraph(2, {{0, 1}});
  g.block.joins[0].right_rel = 2;
  auto planned = Optimizer(g.catalog).PlanBlock(g.block);
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.status().code(), Status::Code::kInvalidArgument);
}

// The memo holds one entry per connected subset (singletons included).
double MemoSize(const JoinGraph& g) {
  obs::Registry registry;
  obs::ScopedRegistry scope(&registry);
  auto planned = Optimizer(g.catalog).PlanBlock(g.block);
  EXPECT_TRUE(planned.ok()) << planned.status().ToString();
  auto memo = registry.histogram("optimizer.memo_size")->Entry("memo");
  EXPECT_EQ(memo.count, 1);
  return memo.max;
}

TEST(JoinEnumeration, MemoHoldsConnectedSubsetsOnly) {
  // Chain: the contiguous runs, 5 + 4 + 3 + 2 + 1.
  EXPECT_EQ(MemoSize(MakeJoinGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}})),
            15);
  // Star: the four leaves, plus the hub with any nonempty set of leaves.
  EXPECT_EQ(MemoSize(MakeJoinGraph(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}})),
            20);
}

TEST(JoinEnumeration, TwelveRelationOuterJoinBlockUsesDp) {
  // A bushy tree of twelve relations, its deeper edges left-outer like a
  // publish block's optional children.
  JoinGraph g = MakeJoinGraph(
      12, {{0, 1},
           {0, 2},
           {1, 3},
           {1, 4, true},
           {2, 5},
           {2, 6, true},
           {3, 7, true},
           {4, 8, true},
           {5, 9},
           {6, 10, true},
           {9, 11, true}});
  g.block.filters.push_back(
      FilterPred{0, kKey, xq::CompareOp::kEq, xq::Constant::Int(3)});
  Optimizer opt(g.catalog);
  ASSERT_EQ(opt.params().dp_rel_limit, 12);
  obs::Registry registry;
  obs::ScopedRegistry scope(&registry);
  RelQuery q;
  q.blocks.push_back(g.block);
  auto planned = opt.PlanQuery(q);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(registry.counter("optimizer.dp_plans")->value(), 1);
  EXPECT_EQ(registry.counter("optimizer.greedy_plans")->value(), 0);
  ASSERT_EQ(planned->blocks.size(), 1u);
  EXPECT_EQ(planned->blocks[0].plan->est_cost, planned->total_cost);
  // The memo holds the tree's 166 subtrees, not its 4095 subsets.
  EXPECT_EQ(registry.histogram("optimizer.memo_size")->Entry("memo").max,
            166);
}

// ---- Golden plans over the paper's workloads ---------------------------

// The tables of `block`'s relations, as CheckPlan takes them.
std::vector<const rel::Table*> BlockTables(const rel::Catalog& catalog,
                                           const QueryBlock& block) {
  std::vector<const rel::Table*> tables;
  for (const BaseRel& r : block.rels) tables.push_back(&catalog.table(r.table));
  return tables;
}

// FNV-1a over a structural walk of a plan: every field the engine reads,
// with estimates as exact bit patterns (ToString() rounds costs and omits
// residual joins, so it cannot pin a plan down).
class PlanDigest {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 1099511628211ull;
  }
  void Int(int64_t v) { Bytes(&v, sizeof v); }
  void Double(double v) { Int(std::bit_cast<int64_t>(v)); }
  void Str(const std::string& s) {
    Int(static_cast<int64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  // Digests `p`, a plan of `block` over `catalog`.
  void Plan(const rel::Catalog& catalog, const QueryBlock& block,
            const PhysicalPlanPtr& p) {
    catalog_ = &catalog;
    block_ = &block;
    Plan(p);
  }
  uint64_t value() const { return h_; }

 private:
  // A column by its catalog name (empty when unset), as plans named
  // columns when the digests were recorded.
  void Column(int rel, int column) {
    Str(column < 0 ? std::string()
                   : catalog_->table(block_->rels[rel].table)
                         .columns[column]
                         .name);
  }
  void Edge(const JoinEdge& e) {
    Int(e.left_rel);
    Column(e.left_rel, e.left_column);
    Int(e.right_rel);
    Column(e.right_rel, e.right_column);
    Int(e.left_outer);
  }
  void Plan(const PhysicalPlanPtr& p) {
    if (!p) {
      Int(-1);
      return;
    }
    Int(static_cast<int>(p->kind));
    Int(p->rel);
    Column(p->rel, p->index_column);
    Int(static_cast<int64_t>(p->filters.size()));
    for (const auto& f : p->filters) {
      Int(f.rel);
      Column(f.rel, f.column);
      Int(static_cast<int>(f.op));
      Int(static_cast<int>(f.value.kind));
      Str(f.value.symbol);
      Int(f.value.int_value);
      Str(f.value.string_value);
      Int(f.not_null);
    }
    Int(p->left_join_rel);
    Column(p->left_join_rel, p->left_join_column);
    Int(p->right_join_rel);
    Column(p->right_join_rel, p->right_join_column);
    Int(p->left_outer);
    Int(static_cast<int64_t>(p->residual_joins.size()));
    for (const auto& e : p->residual_joins) Edge(e);
    // The projection's outputs, which plans once copied from the block.
    Int(static_cast<int64_t>(
        p->kind == PhysicalPlan::Kind::kProject ? block_->output.size() : 0));
    Double(p->est_rows);
    Double(p->est_cost);
    Double(p->est_seeks);
    Double(p->est_bytes);
    Plan(p->left);
    Plan(p->right);
    Plan(p->child);
  }

  const rel::Catalog* catalog_ = nullptr;
  const QueryBlock* block_ = nullptr;
  uint64_t h_ = 14695981039346656037ull;
};

struct GoldenTotals {
  PlanDigest digest;
  int blocks = 0;
  int greedy_blocks = 0;  // wider than the default dp_rel_limit
  size_t widest = 0;
};

// Plans every block of every workload query under AllInlined, AllOutlined
// and each configuration one inline or outline move away from either.
void DigestNeighbourhood(const xs::Schema& annotated,
                         const std::vector<core::Workload>& workloads,
                         const CostParams& params, GoldenTotals* totals) {
  core::TransformOptions moves;
  moves.inline_types = true;
  moves.outline_elements = true;
  std::vector<xs::Schema> configs;
  for (const xs::Schema& start :
       {ps::AllInlined(annotated), ps::AllOutlined(annotated)}) {
    configs.push_back(start);
    for (const auto& t : core::EnumerateTransformations(start, moves)) {
      auto next = core::ApplyTransformation(start, t);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      configs.push_back(std::move(next).value());
    }
  }
  for (const xs::Schema& config : configs) {
    auto mapping = map::MapSchema(config);
    ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
    Optimizer opt(mapping->catalog(), params);
    for (const auto& workload : workloads) {
      for (const auto& wq : workload.queries) {
        auto rq = xlat::TranslateQuery(wq.query, *mapping);
        ASSERT_TRUE(rq.ok()) << wq.name << ": " << rq.status().ToString();
        for (const QueryBlock& block : rq->blocks) {
          auto planned = opt.PlanBlock(block);
          ASSERT_TRUE(planned.ok()) << wq.name << ": "
                                    << planned.status().ToString();
          Status checked = CheckPlan(
              block, BlockTables(mapping->catalog(), block), planned->plan);
          EXPECT_TRUE(checked.ok()) << wq.name << ": " << checked.ToString();
          totals->digest.Plan(mapping->catalog(), block, planned->plan);
          totals->digest.Double(planned->cost);
          totals->digest.Double(planned->rows);
          ++totals->blocks;
          size_t n = block.rels.size();
          if (n > static_cast<size_t>(params.dp_rel_limit)) {
            ++totals->greedy_blocks;
          }
          totals->widest = std::max(totals->widest, n);
        }
      }
    }
  }
}

// Digests the IMDB lookup/publish and auction bidding/export neighbourhoods
// under `params`.
GoldenTotals DigestPaperWorkloads(const CostParams& params) {
  GoldenTotals totals;
  {
    xs::Schema annotated = xs::AnnotateSchema(
        imdb::Schema().value(), imdb::Stats().value());
    std::vector<core::Workload> workloads = {
        imdb::MakeWorkload("lookup").value(),
        imdb::MakeWorkload("publish").value()};
    DigestNeighbourhood(annotated, workloads, params, &totals);
  }
  {
    xs::StatsCollector collector;
    collector.AddDocument(auction::Generate(auction::AuctionScale{}));
    xs::Schema annotated =
        xs::AnnotateSchema(auction::Schema().value(), collector.Finish());
    std::vector<core::Workload> workloads = {
        auction::MakeWorkload("bidding").value(),
        auction::MakeWorkload("export").value()};
    DigestNeighbourhood(annotated, workloads, params, &totals);
  }
  return totals;
}

// Pins every plan the optimizer picks for the paper's IMDB lookup and
// publish workloads and the auction workloads, across the neighbourhoods
// the greedy searches start from — a bit-for-bit regression gate for the
// join enumeration (split order, tie-breaks, estimates).
TEST(OptimizerGolden, PlansMatchRecordedDigest) {
  GoldenTotals totals = DigestPaperWorkloads(CostParams{});
  ASSERT_FALSE(HasFatalFailure());
  // Coverage: the neighbourhoods reach past dp_rel_limit into greedy.
  EXPECT_EQ(totals.greedy_blocks, 50);
  EXPECT_EQ(totals.widest, 16u);
  // Recorded when a join came to keep every relation a left-outer edge
  // preserves on its probe/outer side.
  EXPECT_EQ(totals.blocks, 2815);
  EXPECT_EQ(totals.digest.value(), 0xd9130dbcbb84eb2cull);
}

// The same neighbourhoods with paged IO terms and indexes on predicate
// columns: pins the page-size and index-on-predicates branches of the
// access-path and index-nested-loops costing, which the default digest
// never takes.
TEST(OptimizerGolden, PagedIndexedPlansMatchRecordedDigest) {
  CostParams params;
  params.page_size = 8192;
  params.index_on_predicates = true;
  GoldenTotals totals = DigestPaperWorkloads(params);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(totals.greedy_blocks, 50);
  EXPECT_EQ(totals.blocks, 2815);
  // Recorded before the per-edge index-nested-loops terms were
  // precomputed.
  EXPECT_EQ(totals.digest.value(), 0x0189fb7538624176ull);
}

// ---- Join enumeration against the subset-loop reference ----------------

std::vector<GraphEdge> Chain(int n) {
  std::vector<GraphEdge> edges;
  for (int i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  return edges;
}

std::vector<GraphEdge> Star(int n) {
  std::vector<GraphEdge> edges;
  for (int i = 1; i < n; ++i) edges.push_back({0, i});
  return edges;
}

std::vector<GraphEdge> Cycle(int n) {
  std::vector<GraphEdge> edges = Chain(n);
  if (n > 2) edges.push_back({n - 1, 0});
  return edges;
}

std::vector<GraphEdge> Clique(int n) {
  std::vector<GraphEdge> edges;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) edges.push_back({i, j});
  }
  return edges;
}

// A random spanning tree plus up to n extra edges, which may repeat a
// joined pair; about a quarter of all edges are left-outer.
std::vector<GraphEdge> RandomConnected(int n, std::mt19937* rng) {
  auto pick = [&](int bound) {
    return std::uniform_int_distribution<int>(0, bound - 1)(*rng);
  };
  std::vector<GraphEdge> edges;
  for (int i = 1; i < n; ++i) edges.push_back({pick(i), i, pick(4) == 0});
  for (int extra = pick(n + 1); extra > 0; --extra) {
    int a = pick(n), b = pick(n);
    if (a != b) edges.push_back({a, b, pick(4) == 0});
  }
  return edges;
}

struct DpObservations {
  double memo_size = -1;
  double dp_pairs = -1;
};

// Plans `g` with the optimizer and with the reference planner and requires
// the same outcome bit for bit: status, plan digest, cost and rows, and on
// the DP path the same memo size and no more pairs than the reference
// tried splits. Every plan either planner emits passes CheckPlan.
DpObservations ExpectMatchesReference(const JoinGraph& g,
                                      const CostParams& params,
                                      const std::string& label) {
  SCOPED_TRACE(label);
  obs::Registry registry;
  StatusOr<PlannedBlock> planned = Status::Internal("unplanned");
  {
    obs::ScopedRegistry scope(&registry);
    planned = Optimizer(g.catalog, params).PlanBlock(g.block);
  }
  reference::BlockPlanner ref(g.catalog, params, g.block);
  StatusOr<PlannedBlock> expected = ref.Plan();
  EXPECT_EQ(planned.ok(), expected.ok());
  for (const StatusOr<PlannedBlock>* p : {&planned, &expected}) {
    if (!p->ok()) continue;
    Status checked =
        CheckPlan(g.block, BlockTables(g.catalog, g.block), (*p)->plan);
    EXPECT_TRUE(checked.ok()) << checked.ToString();
  }
  if (planned.ok() && expected.ok()) {
    PlanDigest got, want;
    got.Plan(g.catalog, g.block, planned->plan);
    want.Plan(g.catalog, g.block, expected->plan);
    EXPECT_EQ(got.value(), want.value());
    EXPECT_EQ(std::bit_cast<uint64_t>(planned->cost),
              std::bit_cast<uint64_t>(expected->cost));
    EXPECT_EQ(std::bit_cast<uint64_t>(planned->rows),
              std::bit_cast<uint64_t>(expected->rows));
  }
  DpObservations dp;
  if (g.block.rels.size() > static_cast<size_t>(params.dp_rel_limit)) {
    return dp;
  }
  auto memo = registry.histogram("optimizer.memo_size")->Entry("memo");
  auto pairs = registry.histogram("optimizer.dp_pairs")->Entry("pairs");
  EXPECT_EQ(memo.count, 1);
  EXPECT_EQ(pairs.count, 1);
  dp.memo_size = memo.max;
  dp.dp_pairs = pairs.max;
  EXPECT_EQ(dp.memo_size, static_cast<double>(ref.memo_size()));
  EXPECT_LE(dp.dp_pairs, static_cast<double>(ref.splits_tried()));
  return dp;
}

// Every split the csg-cmp enumeration emits has two connected halves: on
// the shapes with closed forms (Moerkotte & Neumann, VLDB 2006) it emits
// exactly the connected splits, while the reference's subset loop tries
// every split of every connected subset.
TEST(JoinEnumeration, PairsMatchClosedFormsOnly) {
  for (int n = 2; n <= 12; ++n) {
    double chain = (n * n * n - n) / 6.0;
    double star = (n - 1) * std::ldexp(1.0, n - 2);
    double clique = (std::pow(3.0, n) - std::ldexp(1.0, n + 1) + 1) / 2;
    for (bool uniform : {false, true}) {
      std::string tag = " n=" + std::to_string(n) +
                        (uniform ? " uniform" : "");
      EXPECT_EQ(ExpectMatchesReference(MakeJoinGraph(n, Chain(n), uniform),
                                       CostParams{}, "chain" + tag)
                    .dp_pairs,
                chain);
      EXPECT_EQ(ExpectMatchesReference(MakeJoinGraph(n, Star(n), uniform),
                                       CostParams{}, "star" + tag)
                    .dp_pairs,
                star);
      EXPECT_EQ(ExpectMatchesReference(MakeJoinGraph(n, Clique(n), uniform),
                                       CostParams{}, "clique" + tag)
                    .dp_pairs,
                clique);
    }
  }
  // On a 12-chain the subset loop tries 8100 splits of the 66 connected
  // multi-relation subsets; 286 of them have two connected halves.
  JoinGraph chain = MakeJoinGraph(12, Chain(12));
  CostParams params;  // the planner keeps a reference
  reference::BlockPlanner ref(chain.catalog, params, chain.block);
  ASSERT_TRUE(ref.Plan().ok());
  EXPECT_EQ(ref.splits_tried(), 8100u);
}

// Chains, stars, cycles, cliques (a 12-clique has 66 edges, more than one
// mask word) and random connected graphs with left-outer, repeated and
// self-join edges, on tables that differ and on identical tables where
// costs tie: the DP and the greedy path both reproduce the reference's
// plans.
TEST(JoinEnumeration, PlansMatchSubsetLoopReference) {
  CostParams paged;
  paged.page_size = 8192;
  paged.index_on_predicates = true;
  CostParams greedy;
  greedy.dp_rel_limit = 3;
  std::mt19937 rng(20061);
  int graphs = 0;
  for (int n = 2; n <= 12; ++n) {
    std::vector<std::pair<std::string, std::vector<GraphEdge>>> shapes = {
        {"cycle", Cycle(n)}, {"clique", Clique(n)}};
    std::vector<GraphEdge> doubled = Chain(n);
    doubled.push_back({0, 1, true});  // a second, outer edge on one pair
    shapes.emplace_back("doubled chain", doubled);
    std::vector<GraphEdge> self_joined = Cycle(n);
    self_joined.push_back({n - 1, n - 1});  // a self-join is internal only
    shapes.emplace_back("self-joined cycle", self_joined);
    std::vector<GraphEdge> outer_star = Star(n);
    for (size_t k = 0; k < outer_star.size(); k += 2) {
      outer_star[k].left_outer = true;
    }
    shapes.emplace_back("outer star", outer_star);
    for (int r = 0; r < 6; ++r) {
      shapes.emplace_back("random " + std::to_string(r),
                          RandomConnected(n, &rng));
    }
    for (const auto& [name, edges] : shapes) {
      for (bool uniform : {false, true}) {
        JoinGraph g = MakeJoinGraph(n, edges, uniform);
        if (n > 2) {  // an index lookup on one relation
          g.block.filters.push_back(FilterPred{
              1, kKey, xq::CompareOp::kEq, xq::Constant::Int(3)});
        }
        std::string label = name + " n=" + std::to_string(n) +
                            (uniform ? " uniform" : "");
        ExpectMatchesReference(g, CostParams{}, label);
        ExpectMatchesReference(g, paged, label + " paged");
        ExpectMatchesReference(g, greedy, label + " greedy");
        ++graphs;
      }
    }
  }
  EXPECT_EQ(graphs, 11 * 11 * 2);
}

TEST(QueryBlockSql, RendersSelectFromWhere) {
  QueryBlock b = JoinBlock();
  b.filters.push_back(FilterPred{0, kParentName, xq::CompareOp::kEq,
                                 xq::Constant::Symbol("c1")});
  std::string sql = b.ToSql(MakeCatalog());
  EXPECT_NE(sql.find("SELECT c.value"), std::string::npos);
  EXPECT_NE(sql.find("FROM Parent p, Child c"), std::string::npos);
  EXPECT_NE(sql.find("p.Parent_id = c.parent_Parent"), std::string::npos);
  EXPECT_NE(sql.find("p.name = c1"), std::string::npos);
}

}  // namespace
}  // namespace legodb::opt
