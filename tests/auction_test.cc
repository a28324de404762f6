// Tests for the auction application domain: schema/document validity,
// round trips, engine-vs-DOM equivalence, and workload-driven search —
// the whole system exercised on a second schema shape (deep optional
// nesting, reference attributes, wildcard annotations).
#include <gtest/gtest.h>

#include "auction/auction.h"
#include "core/cost.h"
#include "core/search.h"
#include "engine/executor.h"
#include "mapping/mapping.h"
#include "optimizer/optimizer.h"
#include "pschema/pschema.h"
#include "storage/reconstruct.h"
#include "storage/shredder.h"
#include "translate/translate.h"
#include "xml/writer.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"
#include "xschema/annotate.h"
#include "xschema/stats_collector.h"
#include "xschema/validator.h"

namespace legodb {
namespace {

xs::Schema AnnotatedAuction(const xml::Document& doc) {
  auto schema = auction::Schema();
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  xs::StatsCollector collector;
  collector.AddDocument(doc);
  return xs::AnnotateSchema(schema.value(), collector.Finish());
}

xml::Document SmallDoc(uint64_t seed = 7) {
  auction::AuctionScale scale;
  scale.people = 25;
  scale.open_auctions = 15;
  scale.closed_auctions = 10;
  scale.seed = seed;
  return auction::Generate(scale);
}

TEST(Auction, SchemaParsesAndValidates) {
  auto schema = auction::Schema();
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_TRUE(schema->Validate().ok());
  EXPECT_EQ(schema->root_type(), "Site");
}

TEST(Auction, GeneratedDocumentsValidate) {
  auto schema = auction::Schema();
  ASSERT_TRUE(schema.ok());
  for (uint64_t seed : {1u, 5u, 9u}) {
    xml::Document doc = SmallDoc(seed);
    Status st = xs::ValidateDocument(doc, schema.value());
    EXPECT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
  }
}

TEST(Auction, AllQueriesParse) {
  for (const char* name :
       {"A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"}) {
    ASSERT_NE(auction::QueryText(name), nullptr) << name;
    auto q = xq::ParseQuery(auction::QueryText(name));
    EXPECT_TRUE(q.ok()) << name << ": " << q.status().ToString();
  }
}

TEST(Auction, RoundTripAcrossConfigurations) {
  xml::Document doc = SmallDoc();
  xs::Schema annotated = AnnotatedAuction(doc);
  std::string original = xml::Serialize(doc);
  for (const xs::Schema& config :
       {ps::Normalize(annotated), ps::AllInlined(annotated),
        ps::AllOutlined(annotated)}) {
    auto mapping = map::MapSchema(config);
    ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
    store::Database db(mapping->catalog());
    ASSERT_TRUE(store::ShredDocument(doc, mapping.value(), &db).ok());
    auto rebuilt = store::ReconstructDocument(&db, mapping.value());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(original, xml::Serialize(rebuilt.value()));
  }
}

class AuctionEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(AuctionEquivalence, EngineMatchesDom) {
  xml::Document doc = SmallDoc();
  xs::Schema annotated = AnnotatedAuction(doc);
  std::map<std::string, Value> params = {{"c1", Value::Str("person3")}};
  if (std::string(GetParam()) == "A3") params["c1"] = Value::Str("open2");
  if (std::string(GetParam()) == "A5") params["c1"] = Value::Str("category2");

  auto query = xq::ParseQuery(auction::QueryText(GetParam()));
  ASSERT_TRUE(query.ok());
  auto expected = xq::EvaluateOnDocument(query.value(), doc, params);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (const xs::Schema& config :
       {ps::Normalize(annotated), ps::AllInlined(annotated)}) {
    auto mapping = map::MapSchema(config);
    ASSERT_TRUE(mapping.ok());
    store::Database db(mapping->catalog());
    ASSERT_TRUE(store::ShredDocument(doc, mapping.value(), &db).ok());
    auto rq = xlat::TranslateQuery(query.value(), mapping.value());
    ASSERT_TRUE(rq.ok()) << GetParam() << ": " << rq.status().ToString();
    opt::Optimizer optimizer(mapping->catalog());
    auto planned = optimizer.PlanQuery(rq.value());
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    std::vector<opt::PhysicalPlanPtr> plans;
    for (const auto& b : planned->blocks) plans.push_back(b.plan);
    engine::Executor exec(&db, params);
    auto actual = exec.ExecuteQuery(rq.value(), plans);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_TRUE(expected->SameRows(actual.value()))
        << GetParam() << "\nexpected:\n"
        << expected->ToString() << "\nactual:\n"
        << actual->ToString() << "\nSQL:\n"
        << rq->ToSql(mapping->catalog());
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, AuctionEquivalence,
                         ::testing::Values("A1", "A2", "A3", "A4", "A5",
                                           "A8"));

TEST(Auction, SearchFindsWorkloadSpecificDesigns) {
  xml::Document doc = SmallDoc();
  xs::Schema annotated = AnnotatedAuction(doc);
  opt::CostParams params;
  auto bidding = auction::MakeWorkload("bidding");
  auto exporting = auction::MakeWorkload("export");
  ASSERT_TRUE(bidding.ok());
  ASSERT_TRUE(exporting.ok());

  auto for_bidding = core::GreedySearch(annotated, bidding.value(), params,
                                        core::GreedySoOptions());
  auto for_export = core::GreedySearch(annotated, exporting.value(), params,
                                       core::GreedySoOptions());
  ASSERT_TRUE(for_bidding.ok()) << for_bidding.status().ToString();
  ASSERT_TRUE(for_export.ok());
  // Each tuned design must be at least as good as the other design under
  // its own workload.
  auto cross = core::CostSchema(for_export->best_schema, bidding.value(),
                                params);
  ASSERT_TRUE(cross.ok());
  EXPECT_LE(for_bidding->best_cost, cross->total * (1 + 1e-9));
}

TEST(Auction, SearchBeatsAllInlinedForBidding) {
  xml::Document doc = SmallDoc();
  xs::Schema annotated = AnnotatedAuction(doc);
  opt::CostParams params;
  auto bidding = auction::MakeWorkload("bidding");
  ASSERT_TRUE(bidding.ok());
  auto searched = core::GreedySearch(annotated, bidding.value(), params,
                                     core::GreedySoOptions());
  ASSERT_TRUE(searched.ok());
  auto inlined = core::CostSchema(ps::AllInlined(annotated), bidding.value(),
                                  params);
  ASSERT_TRUE(inlined.ok());
  EXPECT_LE(searched->best_cost, inlined->total * (1 + 1e-9));
}

}  // namespace
}  // namespace legodb
