// End-to-end pipeline tests: IMDB schema -> p-schema -> relations ->
// translation -> optimization -> execution, validated against direct
// XQuery-over-DOM evaluation and shred/reconstruct round-trips.
#include <gtest/gtest.h>

#include "core/cost.h"
#include "core/legodb.h"
#include "core/search.h"
#include "engine/executor.h"
#include "engine/reference_executor.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "storage/reconstruct.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"
#include "xschema/annotate.h"
#include "xschema/schema_parser.h"
#include "xschema/validator.h"

namespace legodb {
namespace {

xs::Schema AnnotatedImdb() {
  auto schema = imdb::Schema();
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  auto stats = imdb::Stats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return xs::AnnotateSchema(schema.value(), stats.value());
}

TEST(Pipeline, ImdbSchemaParsesAndValidates) {
  auto schema = imdb::Schema();
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_TRUE(schema->Validate().ok());
  EXPECT_EQ(schema->root_type(), "IMDB");
}

TEST(Pipeline, GeneratedDocumentIsValid) {
  auto schema = imdb::Schema();
  ASSERT_TRUE(schema.ok());
  imdb::ImdbScale scale;
  scale.shows = 12;
  scale.directors = 5;
  scale.actors = 8;
  xml::Document doc = imdb::Generate(scale);
  Status st = xs::ValidateDocument(doc, schema.value());
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(Pipeline, NormalizeYieldsPhysicalSchema) {
  xs::Schema annotated = AnnotatedImdb();
  xs::Schema normalized = ps::Normalize(annotated);
  EXPECT_TRUE(ps::CheckPhysical(normalized).ok());
  // Multi-valued content must have been outlined.
  EXPECT_GT(normalized.size(), annotated.size());
}

TEST(Pipeline, AllVariantsArePhysical) {
  xs::Schema annotated = AnnotatedImdb();
  for (const xs::Schema& s :
       {ps::AllInlined(annotated), ps::AllOutlined(annotated)}) {
    Status st = ps::CheckPhysical(s);
    EXPECT_TRUE(st.ok()) << st.ToString() << "\n" << s.ToString();
  }
}

TEST(Pipeline, MapSchemaProducesCatalog) {
  xs::Schema normalized = ps::Normalize(AnnotatedImdb());
  auto mapping = map::MapSchema(normalized);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  const rel::Catalog& catalog = mapping->catalog();
  ASSERT_GE(catalog.IndexOf("Show"), 0);
  const rel::Table& show = catalog.table(catalog.IndexOf("Show"));
  EXPECT_NEAR(show.row_count, 34798, 1);
  EXPECT_GE(show.ColumnIndex("title"), 0);
  EXPECT_GE(show.ColumnIndex("year"), 0);
  EXPECT_GE(show.ColumnIndex("type"), 0);
}

TEST(Pipeline, TranslateAndPlanLookupQuery) {
  xs::Schema normalized = ps::Normalize(AnnotatedImdb());
  auto mapping = map::MapSchema(normalized);
  ASSERT_TRUE(mapping.ok());
  auto query = xq::ParseQuery(imdb::QueryText("Q1"));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto rq = xlat::TranslateQuery(query.value(), mapping.value());
  ASSERT_TRUE(rq.ok()) << rq.status().ToString();
  ASSERT_FALSE(rq->blocks.empty());
  opt::Optimizer optimizer(mapping->catalog());
  auto planned = optimizer.PlanQuery(rq.value());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_GT(planned->total_cost, 0);
}

TEST(Pipeline, ShredAndReconstructRoundTrip) {
  xs::Schema normalized = ps::Normalize(AnnotatedImdb());
  auto mapping = map::MapSchema(normalized);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  imdb::ImdbScale scale;
  scale.shows = 10;
  scale.directors = 4;
  scale.actors = 6;
  xml::Document doc = imdb::Generate(scale);

  store::Database db(mapping->catalog());
  Status st = store::ShredDocument(doc, mapping.value(), &db);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(db.TotalRows(), 10u);

  auto rebuilt = store::ReconstructDocument(&db, mapping.value());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(xml::Serialize(doc), xml::Serialize(rebuilt.value()));
}

// The core correctness property: for every configuration, executing the
// translated relational query returns the same rows as evaluating the
// XQuery directly on the document.
class EquivalenceTest : public ::testing::TestWithParam<const char*> {};

void CheckEquivalence(const xs::Schema& pschema, const std::string& qname,
                      const xml::Document& doc,
                      const std::map<std::string, Value>& params) {
  auto mapping = map::MapSchema(pschema);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  store::Database db(mapping->catalog());
  Status st = store::ShredDocument(doc, mapping.value(), &db);
  ASSERT_TRUE(st.ok()) << qname << ": " << st.ToString();

  auto query = xq::ParseQuery(imdb::QueryText(qname));
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  auto expected = xq::EvaluateOnDocument(query.value(), doc, params);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  auto rq = xlat::TranslateQuery(query.value(), mapping.value());
  ASSERT_TRUE(rq.ok()) << qname << ": " << rq.status().ToString();
  opt::Optimizer optimizer(mapping->catalog());
  auto planned = optimizer.PlanQuery(rq.value());
  ASSERT_TRUE(planned.ok()) << qname << ": " << planned.status().ToString();

  std::vector<opt::PhysicalPlanPtr> plans;
  for (const auto& b : planned->blocks) plans.push_back(b.plan);
  engine::Executor exec(&db, params);
  auto actual = exec.ExecuteQuery(rq.value(), plans);
  ASSERT_TRUE(actual.ok()) << qname << ": " << actual.status().ToString();

  EXPECT_TRUE(expected->SameRows(actual.value()))
      << qname << "\nexpected:\n"
      << expected->ToString() << "\nactual:\n"
      << actual->ToString() << "\nSQL:\n"
      << rq->ToSql(mapping->catalog());
}

TEST_P(EquivalenceTest, NormalizedConfiguration) {
  xs::Schema annotated = AnnotatedImdb();
  imdb::ImdbScale scale;
  scale.shows = 20;
  scale.directors = 8;
  scale.actors = 12;
  xml::Document doc = imdb::Generate(scale);
  std::map<std::string, Value> params = {
      {"c1", Value::Str("title1")},
      {"c2", Value::Str("title2")},
      {"c4", Value::Str("person3")},
  };
  CheckEquivalence(ps::Normalize(annotated), GetParam(), doc, params);
}

TEST_P(EquivalenceTest, AllInlinedConfiguration) {
  xs::Schema annotated = AnnotatedImdb();
  imdb::ImdbScale scale;
  scale.shows = 20;
  scale.directors = 8;
  scale.actors = 12;
  xml::Document doc = imdb::Generate(scale);
  std::map<std::string, Value> params = {
      {"c1", Value::Str("title1")},
      {"c2", Value::Str("title2")},
      {"c4", Value::Str("person3")},
  };
  CheckEquivalence(ps::AllInlined(annotated), GetParam(), doc, params);
}

TEST_P(EquivalenceTest, AllOutlinedConfiguration) {
  xs::Schema annotated = AnnotatedImdb();
  imdb::ImdbScale scale;
  scale.shows = 20;
  scale.directors = 8;
  scale.actors = 12;
  xml::Document doc = imdb::Generate(scale);
  std::map<std::string, Value> params = {
      {"c1", Value::Str("title1")},
      {"c2", Value::Str("title2")},
      {"c4", Value::Str("person3")},
  };
  CheckEquivalence(ps::AllOutlined(annotated), GetParam(), doc, params);
}

INSTANTIATE_TEST_SUITE_P(ScalarQueries, EquivalenceTest,
                         ::testing::Values("Q1", "Q2", "Q3", "Q4", "Q5", "Q6",
                                           "Q7", "Q8"));

// A value join between two children of one element translates into a self
// edge, `C.x = C.y` on one relation: the plan applies it at C's access
// node, so both executors return the rows the DOM evaluator does.
TEST(Pipeline, SelfValueJoinMatchesDom) {
  auto schema = xs::ParseSchema(
      "type R = r[ C* ] type C = c[ x[String], y[String] ]");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  auto mapping = map::MapSchema(ps::Normalize(schema.value()));
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  auto doc = xml::ParseDocument(
      "<r><c><x>a</x><y>a</y></c><c><x>a</x><y>b</y></c>"
      "<c><x>b</x><y>c</y></c></r>");
  ASSERT_TRUE(doc.ok());
  store::Database db(mapping->catalog());
  ASSERT_TRUE(store::ShredDocument(doc.value(), mapping.value(), &db).ok());

  auto query = xq::ParseQuery(
      "FOR $c IN document(\"d\")/r/c WHERE $c/x = $c/y RETURN $c/x");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto expected = xq::EvaluateOnDocument(query.value(), doc.value());
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->rows.size(), 1u);

  auto rq = xlat::TranslateQuery(query.value(), mapping.value());
  ASSERT_TRUE(rq.ok()) << rq.status().ToString();
  ASSERT_EQ(rq->blocks.size(), 1u);
  const std::vector<opt::JoinEdge>& joins = rq->blocks[0].joins;
  EXPECT_TRUE(std::any_of(joins.begin(), joins.end(), [](const auto& e) {
    return e.left_rel == e.right_rel;
  })) << rq->ToSql(mapping->catalog());
  auto planned = opt::Optimizer(mapping->catalog()).PlanQuery(rq.value());
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  std::vector<opt::PhysicalPlanPtr> plans{planned->blocks[0].plan};
  for (size_t batch_size : {size_t{1}, size_t{1024}}) {
    engine::ExecOptions options;
    options.batch_size = batch_size;
    auto actual = engine::Executor(&db, {}, options).ExecuteQuery(*rq, plans);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_TRUE(expected->SameRows(actual.value()))
        << "expected:\n" << expected->ToString() << "\nactual:\n"
        << actual->ToString();
  }
  auto reference = engine::ReferenceExecutor(&db).ExecuteQuery(*rq, plans);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_TRUE(expected->SameRows(reference.value()))
      << "expected:\n" << expected->ToString() << "\nreference:\n"
      << reference->ToString();
}

TEST(Pipeline, GreedySearchImprovesLookupWorkload) {
  xs::Schema annotated = AnnotatedImdb();
  auto workload = imdb::MakeWorkload("lookup");
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  opt::CostParams params;
  auto result = core::GreedySearch(annotated, workload.value(), params,
                                   core::GreedySoOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->trace.empty());
  EXPECT_LE(result->best_cost, result->trace.front().cost);
}

}  // namespace
}  // namespace legodb
