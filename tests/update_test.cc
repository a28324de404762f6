// Tests for the update-workload extension (paper Section 7): update-op
// resolution, analytic costing, and the effect of updates on the search.
#include <gtest/gtest.h>

#include "core/cost.h"
#include "core/search.h"
#include "imdb/imdb.h"
#include "pschema/pschema.h"
#include "xschema/annotate.h"
#include "xschema/schema_parser.h"

namespace legodb::core {
namespace {

xs::Schema AnnotatedImdb() {
  auto schema = imdb::Schema();
  EXPECT_TRUE(schema.ok());
  auto stats = imdb::Stats();
  EXPECT_TRUE(stats.ok());
  return xs::AnnotateSchema(schema.value(), stats.value());
}

UpdateOp Op(const char* path) {
  UpdateOp op;
  op.name = path;
  op.path.clear();
  std::string s(path);
  size_t start = 0;
  while (start <= s.size()) {
    size_t slash = s.find('/', start);
    if (slash == std::string::npos) {
      op.path.push_back(s.substr(start));
      break;
    }
    op.path.push_back(s.substr(start, slash - start));
    start = slash + 1;
  }
  return op;
}

map::Mapping MapConfig(const xs::Schema& config) {
  auto mapping = map::MapSchema(config);
  EXPECT_TRUE(mapping.ok()) << mapping.status().ToString();
  return std::move(mapping).value();
}

TEST(UpdateCost, ResolvesOutlinedCollections) {
  map::Mapping m = MapConfig(ps::Normalize(AnnotatedImdb()));
  opt::CostParams params;
  auto cost = CostUpdate(m, Op("imdb/show/aka"), params);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_GT(*cost, 0);
}

TEST(UpdateCost, UnresolvablePathFails) {
  map::Mapping m = MapConfig(ps::Normalize(AnnotatedImdb()));
  opt::CostParams params;
  EXPECT_FALSE(CostUpdate(m, Op("imdb/show/nonexistent"), params).ok());
  EXPECT_FALSE(CostUpdate(m, Op("wrongroot/show"), params).ok());
}

TEST(UpdateCost, InsertIntoOutlinedCheaperThanInlined) {
  // Inserting a review: with Reviews outlined it's one narrow-row write;
  // inlined content would be a wide-row rewrite. Compare inserting into
  // the outlined Reviews vs "updating" the inlined description of Show in
  // the all-inlined configuration.
  opt::CostParams params;
  xs::Schema inlined = ps::AllInlined(AnnotatedImdb());
  map::Mapping m = MapConfig(inlined);
  auto review_insert = CostUpdate(m, Op("imdb/show/reviews"), params);
  auto description_update = CostUpdate(m, Op("imdb/show/description"), params);
  ASSERT_TRUE(review_insert.ok());
  ASSERT_TRUE(description_update.ok());
  // The wide Show row rewrite costs more bytes than the narrow Reviews row
  // write, but both are small constants; just check they are sane and the
  // outlined insert includes index-maintenance seeks.
  EXPECT_GT(*review_insert, params.seek_cost);
  EXPECT_GT(*description_update, params.seek_cost);
}

TEST(UpdateCost, InliningRaisesUpdateCostOfUnrelatedContent) {
  // The same description update costs more when more content is inlined
  // into Show (wider row to rewrite).
  opt::CostParams params;
  xs::Schema annotated = AnnotatedImdb();
  map::Mapping narrow = MapConfig(ps::AllOutlined(annotated));
  map::Mapping wide = MapConfig(ps::AllInlined(annotated));
  auto cost_narrow = CostUpdate(narrow, Op("imdb/show/title"), params);
  auto cost_wide = CostUpdate(wide, Op("imdb/show/title"), params);
  ASSERT_TRUE(cost_narrow.ok()) << cost_narrow.status().ToString();
  ASSERT_TRUE(cost_wide.ok());
  EXPECT_LT(*cost_narrow, *cost_wide);
}

TEST(UpdateCost, SubtreeInsertIncludesDescendants) {
  // Inserting a whole show writes the Show row plus expected aka/review/
  // episode rows; it must cost more than inserting a single aka.
  opt::CostParams params;
  map::Mapping m = MapConfig(ps::Normalize(AnnotatedImdb()));
  auto show_insert = CostUpdate(m, Op("imdb/show"), params);
  auto aka_insert = CostUpdate(m, Op("imdb/show/aka"), params);
  ASSERT_TRUE(show_insert.ok());
  ASSERT_TRUE(aka_insert.ok());
  EXPECT_GT(*show_insert, *aka_insert);
}

TEST(UpdateCost, HopChargesTheLandedType) {
  // Normalized, TV = seasons[...], description[...], Episodes*: the episodes
  // step enters TV and hops through the reference at its body root into
  // Episodes. Inserting an episode writes one Episodes row, not a TV row
  // with its expected episodes, so it costs less than inserting a show.
  opt::CostParams params;
  map::Mapping m = MapConfig(ps::Normalize(AnnotatedImdb()));
  auto show = CostUpdate(m, Op("imdb/show"), params);
  auto episodes = CostUpdate(m, Op("imdb/show/episodes"), params);
  auto seasons = CostUpdate(m, Op("imdb/show/seasons"), params);
  auto aka = CostUpdate(m, Op("imdb/show/aka"), params);
  ASSERT_TRUE(show.ok() && episodes.ok() && seasons.ok() && aka.ok());
  EXPECT_LT(*episodes, *show);
  EXPECT_LT(*episodes, *seasons);
  // Steps without a hop keep their costs: seasons inserts a TV subtree,
  // aka one Aka row.
  EXPECT_EQ(*seasons, 0x1.791fc9a0dc37bp+8);  // 377.124...
  EXPECT_EQ(*aka, 0x1.4072b020c49bap+7);      // 160.224
}

TEST(UpdateCost, WildcardTargetsResolve) {
  map::Mapping m = MapConfig(ps::Normalize(AnnotatedImdb()));
  opt::CostParams params;
  // reviews/nyt goes through the wildcard position.
  auto cost = CostUpdate(m, Op("imdb/show/reviews/nyt"), params);
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_GT(*cost, 0);
}

map::Mapping MapText(const char* text) {
  auto schema = xs::ParseSchema(text);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return MapConfig(ps::Normalize(schema.value()));
}

TEST(UpdateCost, ExcludedWildcardDoesNotResolve) {
  // A wildcard that excludes a name does not hold it, as in translation.
  opt::CostParams params;
  map::Mapping direct = MapText("type Show = show[ ~!nyt[ String ] ]");
  auto cost = CostUpdate(direct, Op("show/nyt"), params);
  ASSERT_FALSE(cost.ok());
  EXPECT_EQ(cost.status().code(), Status::Code::kNotFound);
  // Through a union of a literal and an excluding wildcard, only the
  // literal branch holds the name: the cost equals that of a union whose
  // other branch has an unrelated tag.
  map::Mapping excluded = MapText(
      "type Show = show[ reviews[ (Nyt | Other) ] ] "
      "type Nyt = nyt[ String ] type Other = ~!nyt[ String ]");
  map::Mapping unrelated = MapText(
      "type Show = show[ reviews[ (Nyt | Other) ] ] "
      "type Nyt = nyt[ String ] type Other = zzz[ String ]");
  auto through_wildcard =
      CostUpdate(excluded, Op("show/reviews/nyt"), params);
  auto literal_only = CostUpdate(unrelated, Op("show/reviews/nyt"), params);
  ASSERT_TRUE(through_wildcard.ok()) << through_wildcard.status().ToString();
  ASSERT_TRUE(literal_only.ok()) << literal_only.status().ToString();
  EXPECT_EQ(*through_wildcard, *literal_only);
  EXPECT_NEAR(*literal_only, 160.144, 1e-9);
}

TEST(UpdateWorkload, CostSchemaIncludesUpdates) {
  xs::Schema config = ps::Normalize(AnnotatedImdb());
  opt::CostParams params;
  Workload queries_only;
  ASSERT_TRUE(queries_only.Add("Q1", imdb::QueryText("Q1"), 1).ok());
  Workload with_updates = queries_only;
  with_updates.AddUpdate("add_review", UpdateOp::Kind::kInsert,
                         "imdb/show/reviews", 2.0);
  auto base = CostSchema(config, queries_only, params);
  auto updated = CostSchema(config, with_updates, params);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(updated.ok());
  EXPECT_GT(updated->total, base->total);
  ASSERT_EQ(updated->per_update.size(), 1u);
  EXPECT_NEAR(updated->total, base->total + 2.0 * updated->per_update[0],
              1e-9);
}

TEST(UpdateWorkload, SearchAccountsForUpdates) {
  // An update-heavy workload must steer the greedy search: the chosen
  // configuration for (lookups + heavy updates) must not cost more under
  // the combined workload than the configuration chosen for lookups alone.
  opt::CostParams params;
  xs::Schema annotated = AnnotatedImdb();
  auto lookup = imdb::MakeWorkload("lookup");
  ASSERT_TRUE(lookup.ok());
  Workload combined = lookup.value();
  combined.AddUpdate("add_show", UpdateOp::Kind::kInsert, "imdb/show", 50.0);
  combined.AddUpdate("add_review", UpdateOp::Kind::kInsert,
                     "imdb/show/reviews", 200.0);

  auto tuned_for_lookup =
      GreedySearch(annotated, lookup.value(), params, GreedySoOptions());
  auto tuned_for_combined =
      GreedySearch(annotated, combined, params, GreedySoOptions());
  ASSERT_TRUE(tuned_for_lookup.ok());
  ASSERT_TRUE(tuned_for_combined.ok());
  auto lookup_config_on_combined =
      CostSchema(tuned_for_lookup->best_schema, combined, params);
  ASSERT_TRUE(lookup_config_on_combined.ok());
  EXPECT_LE(tuned_for_combined->best_cost,
            lookup_config_on_combined->total * (1 + 1e-9));
}

}  // namespace
}  // namespace legodb::core
