// End-to-end tests for the comparison operators (<, <=, >, >=, !=) — the
// "extend the supported XQuery subset" item of the paper's Section 7 —
// covering the parser, the value semantics, DOM evaluation, range
// selectivity estimation, and engine-vs-DOM equivalence.
#include <gtest/gtest.h>

#include "engine/executor.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "storage/shredder.h"
#include "xml/parser.h"
#include "translate/translate.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"
#include "xschema/annotate.h"
#include "xschema/stats_collector.h"

namespace legodb {
namespace {

TEST(CompareOps, ParserRecognizesAllOperators) {
  struct Case {
    const char* text;
    xq::CompareOp op;
  };
  Case cases[] = {
      {"=", xq::CompareOp::kEq},  {"!=", xq::CompareOp::kNe},
      {"<", xq::CompareOp::kLt},  {"<=", xq::CompareOp::kLe},
      {">", xq::CompareOp::kGt},  {">=", xq::CompareOp::kGe},
  };
  for (const Case& c : cases) {
    std::string text = std::string("FOR $v IN document(\"d\")/a WHERE $v/x ") +
                       c.text + " 5 RETURN $v/x";
    auto q = xq::ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    EXPECT_EQ(q->where[0].op, c.op) << text;
  }
}

TEST(CompareOps, ApplyCompareSemantics) {
  using xq::ApplyCompare;
  using xq::CompareOp;
  EXPECT_TRUE(ApplyCompare(CompareOp::kLt, Value::Int(1), Value::Int(2)));
  EXPECT_FALSE(ApplyCompare(CompareOp::kLt, Value::Int(2), Value::Int(2)));
  EXPECT_TRUE(ApplyCompare(CompareOp::kLe, Value::Int(2), Value::Int(2)));
  EXPECT_TRUE(ApplyCompare(CompareOp::kGt, Value::Str("b"), Value::Str("a")));
  EXPECT_TRUE(ApplyCompare(CompareOp::kNe, Value::Int(1), Value::Int(2)));
  EXPECT_FALSE(ApplyCompare(CompareOp::kNe, Value::Int(1), Value::Int(1)));
  // Mixed kinds / NULLs satisfy nothing (including !=).
  EXPECT_FALSE(ApplyCompare(CompareOp::kNe, Value::Int(1), Value::Str("1")));
  EXPECT_FALSE(ApplyCompare(CompareOp::kLt, Value::MakeNull(), Value::Int(1)));
  // Equality stays exact typed equality.
  EXPECT_TRUE(ApplyCompare(CompareOp::kEq, Value::Str("x"), Value::Str("x")));
  EXPECT_FALSE(ApplyCompare(CompareOp::kEq, Value::Int(1), Value::Str("1")));
}

TEST(CompareOps, DomEvaluatorRangeFilter) {
  auto doc = xml::ParseDocument(
      "<imdb><show><title>a</title><year>1985</year></show>"
      "<show><title>b</title><year>1995</year></show>"
      "<show><title>c</title><year>2005</year></show></imdb>");
  ASSERT_TRUE(doc.ok());
  auto q = xq::ParseQuery(
      "FOR $v IN document(\"d\")/imdb/show WHERE $v/year >= 1995 "
      "RETURN $v/title");
  ASSERT_TRUE(q.ok());
  auto r = xq::EvaluateOnDocument(q.value(), doc.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST(CompareOps, RangeSelectivityUsesMinMax) {
  rel::Catalog catalog;
  rel::Table t;
  t.name = "T";
  t.row_count = 1000;
  rel::Column id, year;
  id.name = "T_id";
  id.type = rel::SqlType::Int();
  id.distincts = 1000;
  year.name = "year";
  year.type = rel::SqlType::Int();
  year.distincts = 100;
  year.min = 1900;
  year.max = 2100;
  t.columns = {id, year};
  const int table = catalog.AddTable(t).value();
  opt::Optimizer optimizer(catalog);

  opt::QueryBlock b;
  b.rels.push_back(opt::BaseRel{table, "t"});
  b.output.push_back(opt::ColumnRef{0, 1, ""});  // year
  // year > 2050: (2100-2050)/(2100-1900) = 25% of rows.
  b.filters.push_back(opt::FilterPred{0, 1, xq::CompareOp::kGt,
                                      xq::Constant::Int(2050)});
  auto planned = optimizer.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_NEAR(planned->rows, 250, 5);

  // year < 1950: also 25%.
  b.filters[0].op = xq::CompareOp::kLt;
  b.filters[0].value = xq::Constant::Int(1950);
  planned = optimizer.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_NEAR(planned->rows, 250, 5);

  // != keeps nearly everything.
  b.filters[0].op = xq::CompareOp::kNe;
  planned = optimizer.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_GT(planned->rows, 900);
}

TEST(CompareOps, RangePredicateNeverDrivesHashIndex) {
  rel::Catalog catalog;
  rel::Table t;
  t.name = "T";
  t.row_count = 1000;
  rel::Column id;
  id.name = "T_id";
  id.type = rel::SqlType::Int();
  id.distincts = 1000;
  id.min = 1;
  id.max = 1000;
  t.columns = {id};
  const int table = catalog.AddTable(t).value();
  opt::Optimizer optimizer(catalog);
  opt::QueryBlock b;
  b.rels.push_back(opt::BaseRel{table, "t"});
  b.output.push_back(opt::ColumnRef{0, rel::Table::kKeyColumn, ""});
  b.filters.push_back(opt::FilterPred{0, rel::Table::kKeyColumn,
                                      xq::CompareOp::kGt,
                                      xq::Constant::Int(500)});
  auto planned = optimizer.PlanBlock(b);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->plan->child->kind, opt::PhysicalPlan::Kind::kSeqScan);
}

// Engine vs DOM equivalence for range queries on shredded IMDB data.
class CompareOpsEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(CompareOpsEquivalence, EngineMatchesDom) {
  imdb::ImdbScale scale;
  scale.shows = 30;
  scale.directors = 10;
  scale.actors = 15;
  xml::Document doc = imdb::Generate(scale);
  xs::StatsCollector collector;
  collector.AddDocument(doc);
  auto schema = imdb::Schema();
  ASSERT_TRUE(schema.ok());
  xs::Schema config =
      ps::AllInlined(xs::AnnotateSchema(schema.value(), collector.Finish()));
  auto mapping = map::MapSchema(config);
  ASSERT_TRUE(mapping.ok());
  store::Database db(mapping->catalog());
  ASSERT_TRUE(store::ShredDocument(doc, mapping.value(), &db).ok());

  auto query = xq::ParseQuery(GetParam());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto expected = xq::EvaluateOnDocument(query.value(), doc);
  ASSERT_TRUE(expected.ok());
  auto rq = xlat::TranslateQuery(query.value(), mapping.value());
  ASSERT_TRUE(rq.ok()) << rq.status().ToString();
  opt::Optimizer optimizer(mapping->catalog());
  auto planned = optimizer.PlanQuery(rq.value());
  ASSERT_TRUE(planned.ok());
  std::vector<opt::PhysicalPlanPtr> plans;
  for (const auto& b : planned->blocks) plans.push_back(b.plan);
  engine::Executor exec(&db);
  auto actual = exec.ExecuteQuery(rq.value(), plans);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_TRUE(expected->SameRows(actual.value()))
      << GetParam() << "\nexpected:\n"
      << expected->ToString() << "\nactual:\n"
      << actual->ToString();
}

INSTANTIATE_TEST_SUITE_P(
    RangeQueries, CompareOpsEquivalence,
    ::testing::Values(
        R"(FOR $v IN document("d")/imdb/show WHERE $v/year > 2000
           RETURN $v/title, $v/year)",
        R"(FOR $v IN document("d")/imdb/show WHERE $v/year <= 1990
           RETURN $v/title)",
        R"(FOR $v IN document("d")/imdb/show
           WHERE $v/year >= 1990 AND $v/year < 2010 RETURN $v/year)",
        R"(FOR $v IN document("d")/imdb/show WHERE $v/title != "title1"
           RETURN $v/title)",
        R"(FOR $a IN document("d")/imdb/actor, $p IN $a/played
           WHERE $p/order_of_appearance < 50 RETURN $a/name, $p/title)"));

TEST(CompareOps, NonEqualityValueJoinsRejected) {
  auto schema = imdb::Schema();
  ASSERT_TRUE(schema.ok());
  auto stats = imdb::Stats();
  ASSERT_TRUE(stats.ok());
  auto mapping = map::MapSchema(
      ps::Normalize(xs::AnnotateSchema(schema.value(), stats.value())));
  ASSERT_TRUE(mapping.ok());
  auto q = xq::ParseQuery(
      R"(FOR $a IN document("d")/imdb/show, $b IN document("d")/imdb/show
         WHERE $a/year < $b/year RETURN $a/title)");
  ASSERT_TRUE(q.ok());
  auto rq = xlat::TranslateQuery(q.value(), mapping.value());
  EXPECT_FALSE(rq.ok());
  EXPECT_EQ(rq.status().code(), Status::Code::kUnsupported);

  // A left-hand path that resolves nowhere makes the predicate merely
  // unsatisfiable: no blocks, no error.
  auto absent = xq::ParseQuery(
      R"(FOR $a IN document("d")/imdb/show, $b IN document("d")/imdb/show
         WHERE $a/zzz < $b/year RETURN $a/title)");
  ASSERT_TRUE(absent.ok());
  auto none = xlat::TranslateQuery(absent.value(), mapping.value());
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_TRUE(none->blocks.empty());
}

}  // namespace
}  // namespace legodb
