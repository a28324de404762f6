// Cross-configuration equivalence: for every storage configuration the
// transformations produce, executing the translated relational query over
// the shredded database must return exactly the rows the direct XQuery
// evaluation returns on the document. This is the system-level correctness
// property behind the paper's claim that all configurations in the search
// space are equivalent storage mappings.
#include <gtest/gtest.h>

#include "core/transforms.h"
#include "engine/executor.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "storage/reconstruct.h"
#include "storage/shredder.h"
#include "xml/writer.h"
#include "translate/translate.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"
#include "xschema/annotate.h"

namespace legodb {
namespace {

struct NamedConfig {
  std::string name;
  xs::Schema schema;
};

xs::Schema ApplyFirstKind(const xs::Schema& s,
                          core::TransformDescriptor::Kind kind,
                          const std::string& tag = "") {
  core::TransformOptions options;
  options.inline_types = false;
  options.outline_elements = false;
  options.union_distribute =
      kind == core::TransformDescriptor::Kind::kUnionDistribute;
  options.repetition_split =
      kind == core::TransformDescriptor::Kind::kRepetitionSplit;
  options.wildcard_materialize =
      kind == core::TransformDescriptor::Kind::kWildcardMaterialize;
  if (!tag.empty()) options.wildcard_tags.push_back(tag);
  for (const auto& t : core::EnumerateTransformations(s, options)) {
    auto out = core::ApplyTransformation(s, t);
    if (out.ok()) return std::move(out).value();
  }
  ADD_FAILURE() << "no applicable transformation";
  return s;
}

std::vector<NamedConfig> AllConfigs() {
  auto schema = imdb::Schema();
  EXPECT_TRUE(schema.ok());
  auto stats = imdb::Stats();
  EXPECT_TRUE(stats.ok());
  xs::Schema annotated = xs::AnnotateSchema(schema.value(), stats.value());
  xs::Schema normalized = ps::Normalize(annotated);
  std::vector<NamedConfig> configs;
  configs.push_back({"normalized", normalized});
  configs.push_back({"all-inlined", ps::AllInlined(annotated)});
  configs.push_back({"all-outlined", ps::AllOutlined(annotated)});
  configs.push_back(
      {"union-distributed",
       ApplyFirstKind(normalized,
                      core::TransformDescriptor::Kind::kUnionDistribute)});
  configs.push_back(
      {"wildcard-materialized",
       ApplyFirstKind(normalized,
                      core::TransformDescriptor::Kind::kWildcardMaterialize,
                      "nyt")});
  return configs;
}

class CrossConfigEquivalence : public ::testing::TestWithParam<const char*> {
 protected:
  static const xml::Document& Doc() {
    static xml::Document* doc = [] {
      imdb::ImdbScale scale;
      scale.shows = 25;
      scale.directors = 10;
      scale.actors = 15;
      scale.seed = 1234;
      return new xml::Document(imdb::Generate(scale));
    }();
    return *doc;
  }
};

TEST_P(CrossConfigEquivalence, AllConfigurationsAgreeWithDom) {
  const char* qname = GetParam();
  auto query = xq::ParseQuery(imdb::QueryText(qname));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  std::map<std::string, Value> params = {
      {"c1", Value::Str("title1")},
      {"c2", Value::Str("title2")},
      {"c4", Value::Str("person3")},
  };
  auto expected = xq::EvaluateOnDocument(query.value(), Doc(), params);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (const NamedConfig& config : AllConfigs()) {
    auto mapping = map::MapSchema(config.schema);
    ASSERT_TRUE(mapping.ok())
        << config.name << ": " << mapping.status().ToString();
    store::Database db(mapping->catalog());
    ASSERT_TRUE(store::ShredDocument(Doc(), mapping.value(), &db).ok())
        << config.name;

    auto rq = xlat::TranslateQuery(query.value(), mapping.value());
    ASSERT_TRUE(rq.ok()) << config.name << ": " << rq.status().ToString();
    opt::Optimizer optimizer(mapping->catalog());
    auto planned = optimizer.PlanQuery(rq.value());
    ASSERT_TRUE(planned.ok())
        << config.name << ": " << planned.status().ToString();
    std::vector<opt::PhysicalPlanPtr> plans;
    for (const auto& b : planned->blocks) plans.push_back(b.plan);
    engine::Executor exec(&db, params);
    auto actual = exec.ExecuteQuery(rq.value(), plans);
    ASSERT_TRUE(actual.ok()) << config.name << ": "
                             << actual.status().ToString();
    EXPECT_TRUE(expected->SameRows(actual.value()))
        << qname << " on " << config.name << "\nexpected:\n"
        << expected->ToString() << "\nactual:\n"
        << actual->ToString() << "\nSQL:\n"
        << rq->ToSql(mapping->catalog());
  }
}

INSTANTIATE_TEST_SUITE_P(PaperQueries, CrossConfigEquivalence,
                         ::testing::Values("Q1", "Q2", "Q3", "Q4", "Q5",
                                           "Q6", "Q7", "Q8", "Q9", "Q10",
                                           "Q11", "Q12", "Q13", "Q14", "S2Q1",
                                           "S2Q3", "S2Q4"));

// Shred/reconstruct round trip across every configuration: the inverse
// mapping recovers the exact document regardless of storage design.
TEST(CrossConfigRoundTrip, AllConfigurationsReconstruct) {
  imdb::ImdbScale scale;
  scale.shows = 15;
  scale.directors = 6;
  scale.actors = 8;
  scale.seed = 77;
  xml::Document doc = imdb::Generate(scale);
  std::string original = xml::Serialize(doc);
  for (const NamedConfig& config : AllConfigs()) {
    auto mapping = map::MapSchema(config.schema);
    ASSERT_TRUE(mapping.ok()) << config.name;
    store::Database db(mapping->catalog());
    ASSERT_TRUE(store::ShredDocument(doc, mapping.value(), &db).ok())
        << config.name;
    auto rebuilt = store::ReconstructDocument(&db, mapping.value());
    ASSERT_TRUE(rebuilt.ok())
        << config.name << ": " << rebuilt.status().ToString();
    EXPECT_EQ(original, xml::Serialize(rebuilt.value())) << config.name;
  }
}

}  // namespace
}  // namespace legodb
