// Unit tests for the fixed mapping rel(ps) — Table 1 of the paper: table
// and column derivation, key/foreign-key generation, virtual union types,
// recursive types and wildcards, and statistics propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "auction/auction.h"
#include "common/hash.h"
#include "core/transforms.h"
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

// The table named `name` (aborts when the catalog has none).
const rel::Table& TableOf(const Mapping& m, const std::string& name) {
  return m.catalog().table(m.catalog().IndexOf(name));
}

// The column of `t` named `name`, or null.
const rel::Column* ColumnOf(const rel::Table& t, const std::string& name) {
  const int c = t.ColumnIndex(name);
  return c < 0 ? nullptr : &t.columns[c];
}

TEST(MapSchemaTest, OneTablePerNamedType) {
  Mapping m = M("type A = a[ B* ] type B = b[ String ]");
  EXPECT_GE(m.catalog().IndexOf("A"), 0);
  EXPECT_GE(m.catalog().IndexOf("B"), 0);
  EXPECT_EQ(m.catalog().size(), 2u);
}

TEST(MapSchemaTest, KeyColumnNamedAfterType) {
  Mapping m = M("type A = a[ String ]");
  const rel::Table& t = TableOf(m, "A");
  EXPECT_EQ(t.ColumnIndex("A_id"), rel::Table::kKeyColumn);
  EXPECT_EQ(t.columns[rel::Table::kKeyColumn].type.kind,
            rel::SqlType::Kind::kInt);
}

TEST(MapSchemaTest, ScalarContentNamedAfterRootElement) {
  // `type Aka = aka[ String ]` maps to TABLE Aka (Aka_id, aka, ...)
  // — the paper's Figure 3.
  Mapping m = M("type Show = show[ Aka* ] type Aka = aka[ String ]");
  const rel::Table& aka = TableOf(m, "Aka");
  EXPECT_NE(ColumnOf(aka, "aka"), nullptr);
  EXPECT_NE(ColumnOf(aka, "parent_Show"), nullptr);
  ASSERT_EQ(aka.foreign_keys.size(), 1u);
  EXPECT_EQ(aka.foreign_keys[0].parent, m.catalog().IndexOf("Show"));
}

TEST(MapSchemaTest, NestedSingletonContentFlattensWithPrefixes) {
  Mapping m = M("type A = a[ bio[ birthday[ String ], text[ String ] ] ]");
  const rel::Table& t = TableOf(m, "A");
  EXPECT_NE(ColumnOf(t, "bio_birthday"), nullptr);
  EXPECT_NE(ColumnOf(t, "bio_text"), nullptr);
}

TEST(MapSchemaTest, AttributesMapToColumns) {
  Mapping m = M("type A = a[ @type[ String ], title[ String ] ]");
  const rel::Table& t = TableOf(m, "A");
  EXPECT_NE(ColumnOf(t, "type"), nullptr);
  EXPECT_NE(ColumnOf(t, "title"), nullptr);
}

TEST(MapSchemaTest, DuplicateColumnNamesAreUniquified) {
  Mapping m = M("type A = a[ @x[ String ], x[ Integer ] ]");
  const rel::Table& t = TableOf(m, "A");
  EXPECT_NE(ColumnOf(t, "x"), nullptr);
  EXPECT_NE(ColumnOf(t, "x_2"), nullptr);
  // Slots never take the key's or a foreign key's name.
  Mapping k = M("type A = a[ A_id[ Integer ], B* ] "
                "type B = b[ parent_A[ String ], B_id[ String ] ]");
  const rel::Table& a = TableOf(k, "A");
  ASSERT_EQ(a.columns.size(), 2u);
  EXPECT_EQ(a.columns[0].name, "A_id");
  EXPECT_EQ(a.columns[1].name, "A_id_2");
  const rel::Table& b = TableOf(k, "B");
  ASSERT_EQ(b.columns.size(), 4u);
  EXPECT_EQ(b.columns[0].name, "B_id");
  EXPECT_EQ(b.columns[1].name, "parent_A_2");
  EXPECT_EQ(b.columns[2].name, "B_id_2");
  EXPECT_EQ(b.columns[3].name, "parent_A");
  ASSERT_EQ(b.foreign_keys.size(), 1u);
  EXPECT_EQ(b.foreign_keys[0].column, 3);
}

TEST(MapSchemaTest, OptionalContentIsNullable) {
  Mapping m = M("type A = a[ b[ String ]?, c[ Integer ] ]");
  const rel::Table& t = TableOf(m, "A");
  EXPECT_TRUE(ColumnOf(t, "b")->nullable);
  EXPECT_FALSE(ColumnOf(t, "c")->nullable);
}

TEST(MapSchemaTest, WildcardsGetTildeColumn) {
  // The paper's Reviews example: reviews[ ~[String] ] maps to
  // (tilde, reviews) columns.
  Mapping m = M("type Show = show[ Reviews* ] "
                "type Reviews = reviews[ ~[ String ] ]");
  const rel::Table& t = TableOf(m, "Reviews");
  EXPECT_NE(ColumnOf(t, "tilde"), nullptr);
  EXPECT_NE(ColumnOf(t, "reviews"), nullptr);
}

TEST(MapSchemaTest, BareScalarBodyGetsDataColumn) {
  Mapping m = M("type A = a[ B* ] type B = (~[ String ])");
  const rel::Table& t = TableOf(m, "B");
  EXPECT_NE(ColumnOf(t, "tilde"), nullptr);
  EXPECT_NE(ColumnOf(t, "_data"), nullptr);
}

TEST(MapSchemaTest, VirtualUnionTypesHaveNoTable) {
  Mapping m = M("type A = a[ S* ] type S = (S1 | S2) "
                "type S1 = s[ x[ String ] ] type S2 = s[ y[ String ] ]");
  EXPECT_EQ(m.catalog().IndexOf("S"), -1);
  EXPECT_TRUE(m.GetType("S").virtual_union);
  // FKs skip the virtual type and point at the concrete parent A.
  EXPECT_NE(ColumnOf(TableOf(m, "S1"), "parent_A"), nullptr);
  EXPECT_NE(ColumnOf(TableOf(m, "S2"), "parent_A"), nullptr);
}

TEST(MapSchemaTest, SharedTypeGetsOneFkPerParent) {
  Mapping m = M("type R = r[ A*, B* ] type A = a[ C* ] type B = b[ C* ] "
                "type C = c[ String ]");
  const rel::Table& c = TableOf(m, "C");
  EXPECT_NE(ColumnOf(c, "parent_A"), nullptr);
  EXPECT_NE(ColumnOf(c, "parent_B"), nullptr);
  EXPECT_TRUE(ColumnOf(c, "parent_A")->nullable);
  EXPECT_EQ(c.foreign_keys.size(), 2u);
}

TEST(MapSchemaTest, RecursiveTypeSelfFk) {
  // Recursive types map fine: the child FK references the same table.
  Mapping m = M("type N = n[ v[ Integer ], N* ]");
  const rel::Table& n = TableOf(m, "N");
  EXPECT_NE(ColumnOf(n, "parent_N"), nullptr);
  ASSERT_EQ(n.foreign_keys.size(), 1u);
  EXPECT_EQ(n.foreign_keys[0].parent, m.catalog().IndexOf("N"));
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
  const rel::Table& any = TableOf(*mapping, "AnyElement");
  EXPECT_NE(ColumnOf(any, "tilde"), nullptr);
  EXPECT_NE(ColumnOf(any, "parent_AnyElement"), nullptr);
  EXPECT_NE(ColumnOf(any, "parent_Root"), nullptr);
  EXPECT_NE(
      ColumnOf(TableOf(*mapping, "AnyScalar"), "_data"), nullptr);
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
  EXPECT_NEAR(c.table(c.IndexOf("Show")).row_count, 34798, 1);
  EXPECT_NEAR(c.table(c.IndexOf("Director")).row_count, 26251, 1);
  EXPECT_NEAR(c.table(c.IndexOf("Actor")).row_count, 165786, 1);
  EXPECT_NEAR(c.table(c.IndexOf("Aka")).row_count, 13641, 1);
  EXPECT_NEAR(c.table(c.IndexOf("Reviews")).row_count, 11250, 1);
  EXPECT_NEAR(c.table(c.IndexOf("Played")).row_count, 663144, 2);
  EXPECT_NEAR(c.table(c.IndexOf("Directed")).row_count, 105004, 1);
  EXPECT_NEAR(c.table(c.IndexOf("Episodes")).row_count, 31250, 40);
}

TEST(MapStats, ColumnStatisticsPropagate) {
  auto mapping = MapSchema(ps::Normalize(AnnotatedImdb()));
  ASSERT_TRUE(mapping.ok());
  const rel::Table& show = TableOf(*mapping, "Show");
  const rel::Column* title = ColumnOf(show, "title");
  ASSERT_NE(title, nullptr);
  EXPECT_EQ(title->type.kind, rel::SqlType::Kind::kChar);
  EXPECT_DOUBLE_EQ(title->type.width, 50);
  EXPECT_DOUBLE_EQ(title->distincts, 34798);
  const rel::Column* year = ColumnOf(show, "year");
  ASSERT_NE(year, nullptr);
  EXPECT_EQ(year->min, 1800);
  EXPECT_EQ(year->max, 2100);
  EXPECT_DOUBLE_EQ(year->distincts, 300);
}

TEST(MapStats, FkDistinctsBoundedByParentRows) {
  auto mapping = MapSchema(ps::Normalize(AnnotatedImdb()));
  ASSERT_TRUE(mapping.ok());
  const rel::Column* fk =
      ColumnOf(TableOf(*mapping, "Aka"), "parent_Show");
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
  EXPECT_NEAR(TableOf(*mapping, "N").row_count, 2, 0.1);
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
    for (const TypeMapping& tm : m.types()) {
      double n = counts.count(tm.type_name) ? counts[tm.type_name] : 0;
      if (n <= 0) continue;
      for (const auto& child : tm.children) {
        double& slot = next[m.type(child.type).type_name];
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
  for (const TypeMapping& tm : mapping->types()) {
    double want = ref.count(tm.type_name) ? ref[tm.type_name] : 0;
    EXPECT_EQ(std::bit_cast<uint64_t>(tm.instance_count),
              std::bit_cast<uint64_t>(want))
        << tm.type_name << ": " << tm.instance_count << " vs " << want << "\n"
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

// ---- golden digest ----

// Folds every catalog fact the optimizer reads (table order, columns with
// their types and statistics bits, foreign keys) and every type's instance
// count and parent links into `digest`.
uint64_t HashMapping(const Mapping& m, uint64_t digest) {
  auto bits = [](double v) { return std::bit_cast<int64_t>(v); };
  for (const rel::Table& t : m.catalog().tables()) {
    digest = common::HashString(t.name, digest);
    digest = common::HashString(t.columns[rel::Table::kKeyColumn].name, digest);
    digest = common::HashInt(bits(t.row_count), digest);
    for (const rel::Column& c : t.columns) {
      digest = common::HashString(c.name, digest);
      digest = common::HashInt(static_cast<int64_t>(c.type.kind), digest);
      digest = common::HashInt(bits(c.type.width), digest);
      digest = common::HashInt(c.nullable, digest);
      digest = common::HashInt(bits(c.null_fraction), digest);
      digest = common::HashInt(bits(c.distincts), digest);
      digest = common::HashInt(c.min, digest);
      digest = common::HashInt(c.max, digest);
    }
    for (const rel::ForeignKey& fk : t.foreign_keys) {
      digest = common::HashString(t.columns[fk.column].name, digest);
      digest = common::HashString(m.catalog().table(fk.parent).name, digest);
    }
  }
  for (const TypeMapping& tm : m.types()) {
    digest = common::HashString(tm.type_name, digest);
    digest = common::HashInt(bits(tm.instance_count), digest);
    // A foreign key's name is its table's column; a virtual union, which
    // has no table, links to its parents by their names alone.
    for (int parent : tm.parents) {
      const std::string fk =
          tm.table < 0 ? "parent_" + m.type(parent).type_name
                       : m.catalog()
                             .table(tm.table)
                             .columns[tm.ParentColumn(parent)]
                             .name;
      digest = common::HashString(fk, digest);
      digest = common::HashString(m.type(parent).type_name, digest);
    }
  }
  return digest;
}

// IMDB, auction and 16 generated schemas under the normalized, all-inlined
// and all-outlined starts and every single-move neighbour of each start,
// all rewritings enabled: the mapped catalogs, instance counts and parent
// links must reproduce the recorded digest bit for bit.
TEST(MappingGolden, StartsAndNeighboursMatchRecordedDigest) {
  core::TransformOptions moves;
  moves.union_distribute = true;
  moves.union_to_options = true;
  moves.repetition_split = true;
  moves.repetition_merge = true;
  moves.wildcard_materialize = true;
  moves.wildcard_tags = {"nyt", "text"};
  xs::StatsCollector collector;
  collector.AddDocument(auction::Generate(auction::AuctionScale{}));
  const xs::Schema auction =
      xs::AnnotateSchema(auction::Schema().value(), collector.Finish());
  uint64_t digest = 0;
  int configs = 0;
  size_t tables = 0;
  // Virtual unions and types with several parents: the cases where the
  // parent links climb and merge.
  int virtual_unions = 0;
  int shared_types = 0;
  std::vector<xs::Schema> schemas{AnnotatedImdb(), auction};
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    schemas.push_back(SchemaFuzzer(seed).Generate());
  }
  for (const xs::Schema& schema : schemas) {
    for (const xs::Schema& start :
         {ps::Normalize(schema), ps::AllInlined(schema),
          ps::AllOutlined(schema)}) {
      std::vector<xs::Schema> candidates{start};
      for (const auto& t : core::EnumerateTransformations(start, moves)) {
        auto next = core::ApplyTransformation(start, t);
        if (next.ok()) candidates.push_back(std::move(next).value());
      }
      for (const xs::Schema& config : candidates) {
        auto mapping = MapSchema(config);
        ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
        ++configs;
        tables += mapping->catalog().size();
        for (const TypeMapping& tm : mapping->types()) {
          virtual_unions += tm.virtual_union;
          shared_types += tm.parents.size() > 1;
        }
        digest = HashMapping(*mapping, digest);
      }
    }
  }
  EXPECT_EQ(configs, 629);
  EXPECT_EQ(tables, 7187u);
  EXPECT_EQ(virtual_unions, 46);
  EXPECT_EQ(shared_types, 510);
  EXPECT_EQ(digest, 0x959d87a5d19c20e9ull);
}

// ---- navigation metadata ----

TEST(MappingMeta, TypesAreNumberedInNameOrder) {
  Mapping m = M("type R = r[ S* ] type S = (S2 | S1) "
                "type S1 = s1[ x[ String ] ] type S2 = s2[ y[ String ] ]");
  ASSERT_EQ(m.types().size(), 4u);
  std::vector<std::string> names;
  for (const TypeMapping& tm : m.types()) names.push_back(tm.type_name);
  EXPECT_EQ(names, (std::vector<std::string>{"R", "S", "S1", "S2"}));
  EXPECT_EQ(m.root(), 0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(m.Index(m.type(i)), i);
    EXPECT_EQ(m.FindType(names[i]), &m.type(i));
  }
  EXPECT_EQ(m.FindType("T"), nullptr);
  // Links are indexes: R references S, whose alternatives (body order)
  // are S2 and S1; the concrete parent of both is R.
  ASSERT_EQ(m.type(0).children.size(), 1u);
  EXPECT_EQ(m.type(0).children[0].type, 1);
  EXPECT_EQ(m.type(1).union_alternatives, (std::vector<int>{3, 2}));
  for (int alt : {2, 3}) {
    ASSERT_EQ(m.type(alt).parents.size(), 1u);
    EXPECT_EQ(m.type(alt).parents[0], 0);
    EXPECT_EQ(m.type(alt).ParentColumn(0), 2);
    EXPECT_EQ(m.type(alt).ParentColumn(1), -1);
  }
}

TEST(MappingMeta, EntriesListSlotElementsBeforeReferences) {
  // The slot-holding top-level element comes first although the reference
  // precedes it in the body; the reference at the body root is entered
  // through the referenced type.
  Mapping m = M(
      "type R = r[ W ] type W = X*, w[ String ] type X = x[ String ]");
  const TypeMapping& w = m.GetType("W");
  ASSERT_EQ(w.entries.size(), 2u);
  ASSERT_NE(w.entries[0].node, nullptr);
  EXPECT_EQ(w.entries[0].node->name.name, "w");
  EXPECT_EQ(w.entries[1].node, nullptr);
  EXPECT_EQ(w.entries[1].hop, m.Index(m.GetType("X")));
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
