// Unit tests for the fixed mapping rel(ps) — Table 1 of the paper: table
// and column derivation, key/foreign-key generation, virtual union types,
// recursive types and wildcards, and statistics propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "auction/auction.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "pschema/pschema.h"
#include "schema_fuzzer.h"
#include "xschema/annotate.h"
#include "xschema/schema_parser.h"
#include "xschema/stats_collector.h"

namespace legodb::map {
namespace {

using xs::ParseSchema;

Mapping M(const char* text) {
  auto schema = ParseSchema(text);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  auto mapping = MapSchema(ps::Normalize(schema.value()));
  EXPECT_TRUE(mapping.ok()) << mapping.status().ToString();
  return std::move(mapping).value();
}

TEST(MapSchemaTest, OneTablePerNamedType) {
  Mapping m = M("type A = a[ B* ] type B = b[ String ]");
  EXPECT_TRUE(m.catalog().HasTable("A"));
  EXPECT_TRUE(m.catalog().HasTable("B"));
  EXPECT_EQ(m.catalog().size(), 2u);
}

TEST(MapSchemaTest, KeyColumnNamedAfterType) {
  Mapping m = M("type A = a[ String ]");
  const rel::Table& t = m.catalog().GetTable("A");
  EXPECT_EQ(t.key_column, "A_id");
  ASSERT_NE(t.FindColumn("A_id"), nullptr);
  EXPECT_EQ(t.FindColumn("A_id")->type.kind, rel::SqlType::Kind::kInt);
}

TEST(MapSchemaTest, ScalarContentNamedAfterRootElement) {
  // `type Aka = aka[ String ]` maps to TABLE Aka (Aka_id, aka, ...)
  // — the paper's Figure 3.
  Mapping m = M("type Show = show[ Aka* ] type Aka = aka[ String ]");
  const rel::Table& aka = m.catalog().GetTable("Aka");
  EXPECT_NE(aka.FindColumn("aka"), nullptr);
  EXPECT_NE(aka.FindColumn("parent_Show"), nullptr);
  ASSERT_EQ(aka.foreign_keys.size(), 1u);
  EXPECT_EQ(aka.foreign_keys[0].parent_table, "Show");
}

TEST(MapSchemaTest, NestedSingletonContentFlattensWithPrefixes) {
  Mapping m = M("type A = a[ bio[ birthday[ String ], text[ String ] ] ]");
  const rel::Table& t = m.catalog().GetTable("A");
  EXPECT_NE(t.FindColumn("bio_birthday"), nullptr);
  EXPECT_NE(t.FindColumn("bio_text"), nullptr);
}

TEST(MapSchemaTest, AttributesMapToColumns) {
  Mapping m = M("type A = a[ @type[ String ], title[ String ] ]");
  const rel::Table& t = m.catalog().GetTable("A");
  EXPECT_NE(t.FindColumn("type"), nullptr);
  EXPECT_NE(t.FindColumn("title"), nullptr);
}

TEST(MapSchemaTest, DuplicateColumnNamesAreUniquified) {
  Mapping m = M("type A = a[ @x[ String ], x[ Integer ] ]");
  const rel::Table& t = m.catalog().GetTable("A");
  EXPECT_NE(t.FindColumn("x"), nullptr);
  EXPECT_NE(t.FindColumn("x_2"), nullptr);
}

TEST(MapSchemaTest, OptionalContentIsNullable) {
  Mapping m = M("type A = a[ b[ String ]?, c[ Integer ] ]");
  const rel::Table& t = m.catalog().GetTable("A");
  EXPECT_TRUE(t.FindColumn("b")->nullable);
  EXPECT_FALSE(t.FindColumn("c")->nullable);
}

TEST(MapSchemaTest, WildcardsGetTildeColumn) {
  // The paper's Reviews example: reviews[ ~[String] ] maps to
  // (tilde, reviews) columns.
  Mapping m = M("type Show = show[ Reviews* ] "
                "type Reviews = reviews[ ~[ String ] ]");
  const rel::Table& t = m.catalog().GetTable("Reviews");
  EXPECT_NE(t.FindColumn("tilde"), nullptr);
  EXPECT_NE(t.FindColumn("reviews"), nullptr);
}

TEST(MapSchemaTest, BareScalarBodyGetsDataColumn) {
  Mapping m = M("type A = a[ B* ] type B = (~[ String ])");
  const rel::Table& t = m.catalog().GetTable("B");
  EXPECT_NE(t.FindColumn("tilde"), nullptr);
  EXPECT_NE(t.FindColumn("_data"), nullptr);
}

TEST(MapSchemaTest, VirtualUnionTypesHaveNoTable) {
  Mapping m = M("type A = a[ S* ] type S = (S1 | S2) "
                "type S1 = s[ x[ String ] ] type S2 = s[ y[ String ] ]");
  EXPECT_FALSE(m.catalog().HasTable("S"));
  EXPECT_TRUE(m.GetType("S").virtual_union);
  // FKs skip the virtual type and point at the concrete parent A.
  EXPECT_NE(m.catalog().GetTable("S1").FindColumn("parent_A"), nullptr);
  EXPECT_NE(m.catalog().GetTable("S2").FindColumn("parent_A"), nullptr);
}

TEST(MapSchemaTest, SharedTypeGetsOneFkPerParent) {
  Mapping m = M("type R = r[ A*, B* ] type A = a[ C* ] type B = b[ C* ] "
                "type C = c[ String ]");
  const rel::Table& c = m.catalog().GetTable("C");
  EXPECT_NE(c.FindColumn("parent_A"), nullptr);
  EXPECT_NE(c.FindColumn("parent_B"), nullptr);
  EXPECT_TRUE(c.FindColumn("parent_A")->nullable);
  EXPECT_EQ(c.foreign_keys.size(), 2u);
}

TEST(MapSchemaTest, RecursiveTypeSelfFk) {
  // Recursive types map fine: the child FK references the same table.
  Mapping m = M("type N = n[ v[ Integer ], N* ]");
  const rel::Table& n = m.catalog().GetTable("N");
  EXPECT_NE(n.FindColumn("parent_N"), nullptr);
  ASSERT_EQ(n.foreign_keys.size(), 1u);
  EXPECT_EQ(n.foreign_keys[0].parent_table, "N");
}

TEST(MapSchemaTest, AnyElementSchemaFromSection32) {
  // The paper's untyped-document type: AnyElement = ~[(AnyElement |
  // AnyScalar)*]. The derived configuration resembles STORED's overflow
  // relation.
  auto schema = ParseSchema(
      "type Root = root[ AnyElement* ] "
      "type AnyElement = ~[ (AnyElement | AnyScalar)* ] "
      "type AnyScalar = String");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  auto mapping = MapSchema(ps::Normalize(schema.value()));
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  const rel::Table& any = mapping->catalog().GetTable("AnyElement");
  EXPECT_NE(any.FindColumn("tilde"), nullptr);
  EXPECT_NE(any.FindColumn("parent_AnyElement"), nullptr);
  EXPECT_NE(any.FindColumn("parent_Root"), nullptr);
  EXPECT_NE(
      mapping->catalog().GetTable("AnyScalar").FindColumn("_data"), nullptr);
}

TEST(MapSchemaTest, RejectsNonPhysicalSchema) {
  auto schema = ParseSchema("type A = a[ b[ String ]* ]");
  ASSERT_TRUE(schema.ok());
  EXPECT_FALSE(MapSchema(schema.value()).ok());
}

// ---- statistics propagation ----

xs::Schema AnnotatedImdb() {
  auto schema = imdb::Schema();
  EXPECT_TRUE(schema.ok());
  auto stats = imdb::Stats();
  EXPECT_TRUE(stats.ok());
  return xs::AnnotateSchema(schema.value(), stats.value());
}

TEST(MapStats, RowCountsFollowAppendixA) {
  auto mapping = MapSchema(ps::Normalize(AnnotatedImdb()));
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  const rel::Catalog& c = mapping->catalog();
  EXPECT_NEAR(c.GetTable("Show").row_count, 34798, 1);
  EXPECT_NEAR(c.GetTable("Director").row_count, 26251, 1);
  EXPECT_NEAR(c.GetTable("Actor").row_count, 165786, 1);
  EXPECT_NEAR(c.GetTable("Aka").row_count, 13641, 1);
  EXPECT_NEAR(c.GetTable("Reviews").row_count, 11250, 1);
  EXPECT_NEAR(c.GetTable("Played").row_count, 663144, 2);
  EXPECT_NEAR(c.GetTable("Directed").row_count, 105004, 1);
  EXPECT_NEAR(c.GetTable("Episodes").row_count, 31250, 40);
}

TEST(MapStats, ColumnStatisticsPropagate) {
  auto mapping = MapSchema(ps::Normalize(AnnotatedImdb()));
  ASSERT_TRUE(mapping.ok());
  const rel::Table& show = mapping->catalog().GetTable("Show");
  const rel::Column* title = show.FindColumn("title");
  ASSERT_NE(title, nullptr);
  EXPECT_EQ(title->type.kind, rel::SqlType::Kind::kChar);
  EXPECT_DOUBLE_EQ(title->type.width, 50);
  EXPECT_DOUBLE_EQ(title->distincts, 34798);
  const rel::Column* year = show.FindColumn("year");
  ASSERT_NE(year, nullptr);
  EXPECT_EQ(year->min, 1800);
  EXPECT_EQ(year->max, 2100);
  EXPECT_DOUBLE_EQ(year->distincts, 300);
}

TEST(MapStats, FkDistinctsBoundedByParentRows) {
  auto mapping = MapSchema(ps::Normalize(AnnotatedImdb()));
  ASSERT_TRUE(mapping.ok());
  const rel::Column* fk =
      mapping->catalog().GetTable("Aka").FindColumn("parent_Show");
  ASSERT_NE(fk, nullptr);
  EXPECT_LE(fk->distincts, 34798);
  EXPECT_LE(fk->distincts, 13641);
}

TEST(MapStats, RecursiveCountsConverge) {
  // Recursive repetition with avg < 1 converges geometrically: total nodes
  // = root * 1/(1-avg).
  auto schema = ParseSchema("type N = n[ v[ Integer ], N{0,*}<#0> ]");
  ASSERT_TRUE(schema.ok());
  // Manually annotate the recursion factor via the parsed form:
  auto schema2 = ParseSchema("type R = r[ N ] type N = n[ N{0,1}<#0> ]");
  ASSERT_TRUE(schema2.ok());
  auto mapping = MapSchema(ps::Normalize(schema2.value()));
  ASSERT_TRUE(mapping.ok());
  // presence defaults to 0.5: N rows = 1/(1-0.5) = 2.
  EXPECT_NEAR(mapping->catalog().GetTable("N").row_count, 2, 0.1);
}

// The instance-count fixpoint as a plain 64-iteration loop over
// name-keyed maps: the reference the mapper's early-exit iteration must
// reproduce bit for bit.
std::map<std::string, double> ReferenceCounts(const Mapping& m) {
  constexpr double kMaxInstances = 1e12;
  const std::string& root = m.schema().root_type();
  std::map<std::string, double> counts;
  counts[root] = 1;
  for (int iter = 0; iter < 64; ++iter) {
    std::map<std::string, double> next;
    next[root] = 1;
    for (const auto& [name, tm] : m.types()) {
      double n = counts.count(name) ? counts[name] : 0;
      if (n <= 0) continue;
      for (const auto& child : tm.children) {
        double& slot = next[child.type_name];
        slot = std::min(kMaxInstances, slot + n * child.expected_per_parent);
      }
    }
    counts = std::move(next);
  }
  return counts;
}

// Maps `pschema` and requires every type's instance count to equal the
// reference bit for bit; returns the largest count.
double ExpectCountsMatchReference(const xs::Schema& pschema) {
  auto mapping = MapSchema(pschema);
  EXPECT_TRUE(mapping.ok()) << mapping.status().ToString();
  if (!mapping.ok()) return 0;
  std::map<std::string, double> ref = ReferenceCounts(*mapping);
  double largest = 0;
  for (const auto& [name, tm] : mapping->types()) {
    double want = ref.count(name) ? ref[name] : 0;
    EXPECT_EQ(std::bit_cast<uint64_t>(tm.instance_count),
              std::bit_cast<uint64_t>(want))
        << name << ": " << tm.instance_count << " vs " << want << "\n"
        << pschema.ToString();
    largest = std::max(largest, tm.instance_count);
  }
  return largest;
}

TEST(MapStats, CountsMatchFullIteration) {
  xs::Schema imdb = AnnotatedImdb();
  ExpectCountsMatchReference(ps::AllInlined(imdb));
  ExpectCountsMatchReference(ps::AllOutlined(imdb));

  xs::StatsCollector collector;
  collector.AddDocument(auction::Generate(auction::AuctionScale{}));
  ExpectCountsMatchReference(ps::Normalize(
      xs::AnnotateSchema(auction::Schema().value(), collector.Finish())));

  // Converging recursion (RecursiveCountsConverge's schema).
  auto converging = ParseSchema("type R = r[ N ] type N = n[ N{0,1}<#0> ]");
  ASSERT_TRUE(converging.ok());
  ExpectCountsMatchReference(ps::Normalize(converging.value()));

  // Diverging recursion: 3.5 children per node, so the counts hit the cap.
  auto diverging = ParseSchema("type R = r[ N ] type N = n[ N{2,5} ]");
  ASSERT_TRUE(diverging.ok());
  EXPECT_EQ(ExpectCountsMatchReference(ps::Normalize(diverging.value())),
            1e12);

  for (uint64_t seed = 1; seed <= 20; ++seed) {
    xs::Schema schema = SchemaFuzzer(seed).Generate();
    ExpectCountsMatchReference(ps::AllOutlined(schema));
  }
}

TEST(MapStats, TotalBytesIsPositive) {
  auto mapping = MapSchema(ps::Normalize(AnnotatedImdb()));
  ASSERT_TRUE(mapping.ok());
  EXPECT_GT(mapping->catalog().TotalBytes(), 1e6);
}

// ---- navigation metadata ----

TEST(MappingMeta, EntryNamesDescendVirtualUnions) {
  Mapping m = M("type A = a[ S* ] type S = (S1 | S2) "
                "type S1 = s1[ x[ String ] ] type S2 = s2[ y[ String ] ]");
  auto entries = m.EntryNames("S");
  EXPECT_EQ(entries, (std::vector<std::string>{"s1", "s2"}));
}

TEST(MappingMeta, EntriesListSlotElementsBeforeReferences) {
  // The slot-holding top-level element comes first although the reference
  // precedes it in the body; the reference at the body root is entered
  // through the referenced type.
  Mapping m = M(
      "type R = r[ W ] type W = X*, w[ String ] type X = x[ String ]");
  EXPECT_EQ(m.EntryNames("W"), (std::vector<std::string>{"w", "x"}));
}

TEST(MappingMeta, ChildRefsRecordTheirOwningNode) {
  Mapping m = M("type A = a[ b[ C* ], D ] type C = c[ String ] "
                "type D = d[ String ]");
  const TypeMapping& a = m.GetType("A");
  ASSERT_EQ(a.children.size(), 2u);
  ASSERT_NE(a.children[0].node, nullptr);
  ASSERT_NE(a.children[1].node, nullptr);
  EXPECT_EQ(a.children[0].node->name.name, "b");
  EXPECT_EQ(a.children[1].node->name.name, "a");
  // A reference at the body root has no owning node.
  Mapping w = M("type R = r[ W ] type W = X* type X = x[ String ]");
  ASSERT_EQ(w.GetType("W").children.size(), 1u);
  EXPECT_EQ(w.GetType("W").children[0].node, nullptr);
}

TEST(MappingMeta, SlotsRecordOptionality) {
  Mapping m = M("type A = a[ b[ String ]? ]");
  const TypeMapping& tm = m.GetType("A");
  ASSERT_EQ(tm.slots.size(), 1u);
  EXPECT_TRUE(tm.slots[0].optional);
  EXPECT_LT(tm.slots[0].presence, 1.0);
}

TEST(MappingMeta, ChildRefsCarryCardinality) {
  Mapping m = M("type A = a[ B{2,5} ] type B = b[ String ]");
  const TypeMapping& tm = m.GetType("A");
  ASSERT_EQ(tm.children.size(), 1u);
  EXPECT_EQ(tm.children[0].min_occurs, 2u);
  EXPECT_EQ(tm.children[0].max_occurs, 5u);
  EXPECT_DOUBLE_EQ(tm.children[0].expected_per_parent, 3.5);
}

TEST(MappingMeta, DdlRendersAllTables) {
  auto mapping = MapSchema(ps::Normalize(AnnotatedImdb()));
  ASSERT_TRUE(mapping.ok());
  std::string ddl = mapping->catalog().ToDdl();
  EXPECT_NE(ddl.find("TABLE Show"), std::string::npos);
  EXPECT_NE(ddl.find("PRIMARY KEY"), std::string::npos);
  EXPECT_NE(ddl.find("FOREIGN KEY (parent_Show) REFERENCES Show"),
            std::string::npos);
}

}  // namespace
}  // namespace legodb::map
