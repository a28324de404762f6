// Unit tests for the storage layer: heap tables and hash indexes, the
// shredder (optionals, unions, wildcards, backtracking, rollback), and the
// reconstructor (inverse mapping, ordering, presence of optional content).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "mapping/mapping.h"
#include "pschema/pschema.h"
#include "storage/database.h"
#include "storage/db_registry.h"
#include "storage/reconstruct.h"
#include "storage/shredder.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xschema/schema_parser.h"

namespace legodb::store {
namespace {

map::Mapping MapText(const char* schema_text) {
  auto schema = xs::ParseSchema(schema_text);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  auto mapping = map::MapSchema(ps::Normalize(schema.value()));
  EXPECT_TRUE(mapping.ok()) << mapping.status().ToString();
  return std::move(mapping).value();
}

Database Shred(const map::Mapping& m, const char* xml_text) {
  Database db(m.catalog());
  auto doc = xml::ParseDocument(xml_text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  Status st = ShredDocument(doc.value(), m, &db);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return db;
}

// ---- StoredTable / Database ----

TEST(StoredTable, InsertAndIndex) {
  rel::Table meta;
  meta.name = "T";
  meta.key_column = "T_id";
  rel::Column id, x;
  id.name = "T_id";
  x.name = "x";
  meta.columns = {id, x};
  StoredTable t(meta);
  t.Insert({Value::Int(1), Value::Str("a")});
  t.Insert({Value::Int(2), Value::Str("a")});
  t.Insert({Value::Int(3), Value::MakeNull()});
  auto index = t.GetOrBuildIndex("x");
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->Find(Value::Str("a")).size(), 2u);
  // NULLs are not indexed.
  EXPECT_TRUE((*index)->Find(Value::MakeNull()).empty());
  EXPECT_FALSE(t.GetOrBuildIndex("no_such_column").ok());
}

TEST(StoredTable, InsertInvalidatesIndexes) {
  rel::Table meta;
  meta.name = "T";
  meta.key_column = "T_id";
  rel::Column id;
  id.name = "T_id";
  meta.columns = {id};
  StoredTable t(meta);
  t.Insert({Value::Int(1)});
  auto before = t.GetOrBuildIndex("T_id");
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE((*before)->Find(Value::Int(2)).empty());
  t.Insert({Value::Int(2)});
  // The insert dropped the stale index; the rebuilt one sees the new row.
  auto after = t.GetOrBuildIndex("T_id");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->Find(Value::Int(2)).size(), 1u);
}

TEST(DatabaseTest, CreatesAllTablesEmpty) {
  map::Mapping m = MapText("type A = a[ B* ] type B = b[ String ]");
  Database db(m.catalog());
  EXPECT_EQ(db.table_names().size(), 2u);
  EXPECT_EQ(db.TotalRows(), 0u);
  EXPECT_NE(db.FindTable("A"), nullptr);
  EXPECT_EQ(db.FindTable("Zzz"), nullptr);
}

TEST(DatabaseTest, NextIdMonotonic) {
  map::Mapping m = MapText("type A = a[ String ]");
  Database db(m.catalog());
  int64_t a = db.NextId();
  int64_t b = db.NextId();
  EXPECT_LT(a, b);
}

// ---- Shredder ----

TEST(Shredder, ScalarColumnsCanonicalized) {
  map::Mapping m = MapText("type A = a[ x[ String ], y[ Integer ] ]");
  Database db = Shred(m, "<a><x>123</x><y>45</y></a>");
  const StoredTable& t = db.GetTable("A");
  ASSERT_EQ(t.row_count(), 1u);
  int xi = t.meta().ColumnIndex("x");
  int yi = t.meta().ColumnIndex("y");
  // Integer-looking strings canonicalize to Int (matching the evaluator).
  EXPECT_EQ(t.rows()[0][xi], Value::Int(123));
  EXPECT_EQ(t.rows()[0][yi], Value::Int(45));
}

TEST(Shredder, ParentForeignKeysLinkRows) {
  map::Mapping m = MapText("type A = a[ B* ] type B = b[ String ]");
  Database db = Shred(m, "<a><b>x</b><b>y</b></a>");
  const StoredTable& a = db.GetTable("A");
  const StoredTable& b = db.GetTable("B");
  ASSERT_EQ(a.row_count(), 1u);
  ASSERT_EQ(b.row_count(), 2u);
  int key = a.meta().ColumnIndex("A_id");
  int fk = b.meta().ColumnIndex("parent_A");
  EXPECT_EQ(b.rows()[0][fk], a.rows()[0][key]);
  EXPECT_EQ(b.rows()[1][fk], a.rows()[0][key]);
}

TEST(Shredder, OptionalAbsenceStoresNull) {
  map::Mapping m = MapText("type A = a[ x[ String ]?, y[ String ] ]");
  Database db = Shred(m, "<a><y>present</y></a>");
  const StoredTable& t = db.GetTable("A");
  EXPECT_TRUE(t.rows()[0][t.meta().ColumnIndex("x")].is_null());
  EXPECT_EQ(t.rows()[0][t.meta().ColumnIndex("y")], Value::Str("present"));
}

TEST(Shredder, UnionPicksMatchingAlternative) {
  map::Mapping m = MapText(
      "type A = a[ (B | C) ] type B = b[ String ] type C = c[ Integer ]");
  Database db = Shred(m, "<a><c>9</c></a>");
  EXPECT_EQ(db.GetTable("B").row_count(), 0u);
  EXPECT_EQ(db.GetTable("C").row_count(), 1u);
}

TEST(Shredder, UnionBacktrackingRollsBackRows) {
  // First alternative B = b[x?] matches <b> prefix but the document needs
  // B2 = b[x?, z]; greedy failure inside an alternative must not leave rows.
  map::Mapping m = MapText(
      "type A = a[ (B | B2) ] type B = b[ x[ String ]? ] "
      "type B2 = b[ x[ String ]?, z[ String ] ]");
  Database db = Shred(m, "<a><b><x>1</x><z>2</z></b></a>");
  EXPECT_EQ(db.GetTable("B").row_count(), 0u);
  EXPECT_EQ(db.GetTable("B2").row_count(), 1u);
}

TEST(Shredder, WildcardStoresTagName) {
  map::Mapping m = MapText("type A = a[ R* ] type R = r[ ~[ String ] ]");
  Database db = Shred(m, "<a><r><nyt>great</nyt></r><r><sun>meh</sun></r></a>");
  const StoredTable& r = db.GetTable("R");
  ASSERT_EQ(r.row_count(), 2u);
  int tilde = r.meta().ColumnIndex("tilde");
  EXPECT_EQ(r.rows()[0][tilde], Value::Str("nyt"));
  EXPECT_EQ(r.rows()[1][tilde], Value::Str("sun"));
}

TEST(Shredder, WildcardExclusionRespected) {
  map::Mapping m = MapText("type A = a[ W ] type W = ~!x[ String ]");
  Database db(MapText("type A = a[ W ] type W = ~!x[ String ]").catalog());
  auto doc = xml::ParseDocument("<a><x>v</x></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(ShredDocument(doc.value(), m, &db).ok());
}

TEST(Shredder, RepetitionBoundsEnforced) {
  map::Mapping m = MapText("type A = a[ B{1,2} ] type B = b[ String ]");
  {
    Database db(m.catalog());
    auto doc = xml::ParseDocument("<a/>");
    ASSERT_TRUE(doc.ok());
    EXPECT_FALSE(ShredDocument(doc.value(), m, &db).ok());
    EXPECT_EQ(db.TotalRows(), 0u);  // nothing leaked on failure
  }
  {
    Database db(m.catalog());
    auto doc = xml::ParseDocument("<a><b>1</b><b>2</b><b>3</b></a>");
    ASSERT_TRUE(doc.ok());
    EXPECT_FALSE(ShredDocument(doc.value(), m, &db).ok());
  }
}

TEST(Shredder, RejectsUnknownElements) {
  map::Mapping m = MapText("type A = a[ x[ String ] ]");
  Database db(m.catalog());
  auto doc = xml::ParseDocument("<a><x>1</x><intruder/></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(ShredDocument(doc.value(), m, &db).ok());
}

TEST(Shredder, RecursiveTypes) {
  map::Mapping m = MapText("type N = n[ v[ Integer ], N* ]");
  Database db = Shred(m, "<n><v>1</v><n><v>2</v></n><n><v>3</v></n></n>");
  const StoredTable& n = db.GetTable("N");
  ASSERT_EQ(n.row_count(), 3u);
  int fk = n.meta().ColumnIndex("parent_N");
  int present = 0;
  for (const auto& row : n.rows()) present += row[fk].is_null() ? 0 : 1;
  EXPECT_EQ(present, 2);  // two children reference the root
}

TEST(Shredder, MultipleDocumentsAccumulate) {
  map::Mapping m = MapText("type A = a[ x[ String ] ]");
  Database db(m.catalog());
  for (int i = 0; i < 3; ++i) {
    auto doc = xml::ParseDocument("<a><x>v</x></a>");
    ASSERT_TRUE(ShredDocument(doc.value(), m, &db).ok());
  }
  EXPECT_EQ(db.GetTable("A").row_count(), 3u);
}

TEST(Shredder, RejectsUndeclaredAttributes) {
  // Mirrors the validator: an element carrying an attribute the schema does
  // not declare must not shred (it would silently drop data).
  map::Mapping m = MapText("type A = a[ x[ String ] ]");
  Database db(m.catalog());
  auto doc = xml::ParseDocument("<a undeclared=\"v\"><x>1</x></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(ShredDocument(doc.value(), m, &db).ok());
  EXPECT_EQ(db.TotalRows(), 0u);
}

TEST(Shredder, AttributesRequiredWhenDeclared) {
  map::Mapping m = MapText("type A = a[ @k[ String ], x[ String ] ]");
  Database db(m.catalog());
  auto doc = xml::ParseDocument("<a><x>1</x></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(ShredDocument(doc.value(), m, &db).ok());
}

// ---- Reconstruction ----

void ExpectRoundTrip(const char* schema_text, const char* xml_text) {
  map::Mapping m = MapText(schema_text);
  Database db = Shred(m, xml_text);
  auto rebuilt = ReconstructDocument(&db, m);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  auto original = xml::ParseDocument(xml_text);
  EXPECT_EQ(xml::Serialize(original.value()), xml::Serialize(rebuilt.value()))
      << schema_text;
}

TEST(Reconstruct, ScalarAndAttribute) {
  ExpectRoundTrip("type A = a[ @k[ String ], x[ String ], y[ Integer ] ]",
                  "<a k=\"v\"><x>s</x><y>7</y></a>");
}

TEST(Reconstruct, OptionalPresentAndAbsent) {
  ExpectRoundTrip("type A = a[ x[ String ]?, y[ String ] ]",
                  "<a><x>1</x><y>2</y></a>");
  ExpectRoundTrip("type A = a[ x[ String ]?, y[ String ] ]", "<a><y>2</y></a>");
}

TEST(Reconstruct, OptionalGroup) {
  ExpectRoundTrip("type A = a[ (x[ String ], y[ String ])?, z[ String ] ]",
                  "<a><x>1</x><y>2</y><z>3</z></a>");
  ExpectRoundTrip("type A = a[ (x[ String ], y[ String ])?, z[ String ] ]",
                  "<a><z>3</z></a>");
}

TEST(Reconstruct, RepeatedChildrenKeepDocumentOrder) {
  ExpectRoundTrip("type A = a[ B* ] type B = b[ String ]",
                  "<a><b>1</b><b>2</b><b>3</b></a>");
}

TEST(Reconstruct, InterleavedUnionRepetition) {
  // Children from different alternatives must interleave by document order.
  ExpectRoundTrip(
      "type A = a[ (B | C)* ] type B = b[ String ] type C = c[ String ]",
      "<a><b>1</b><c>2</c><b>3</b></a>");
}

TEST(Reconstruct, WildcardTags) {
  ExpectRoundTrip("type A = a[ R* ] type R = r[ ~[ String ] ]",
                  "<a><r><nyt>x</nyt></r><r><sun>y</sun></r></a>");
}

TEST(Reconstruct, RecursiveNesting) {
  ExpectRoundTrip("type N = n[ v[ Integer ], N* ]",
                  "<n><v>1</v><n><v>2</v><n><v>3</v></n></n><n><v>4</v></n></n>");
}

TEST(Reconstruct, NestedSingletonStructure) {
  ExpectRoundTrip("type A = a[ bio[ birth[ String ], text[ String ] ] ]",
                  "<a><bio><birth>1970</birth><text>hi</text></bio></a>");
}

TEST(Reconstruct, SingleInstanceSubtree) {
  map::Mapping m = MapText("type A = a[ B* ] type B = b[ x[ String ] ]");
  Database db = Shred(m, "<a><b><x>first</x></b><b><x>second</x></b></a>");
  // Reconstruct just the second b (id 3: ids are assigned in document
  // order: a=1, b=2, b=3).
  xml::NodePtr holder = xml::Node::Element("h");
  ASSERT_TRUE(ReconstructInstance(&db, m, "B", 3, holder.get()).ok());
  EXPECT_EQ(xml::Serialize(*holder->children()[0], false),
            "<b><x>second</x></b>");
}

TEST(Reconstruct, UntypedDocumentViaAnyElementSchema) {
  // Section 3.2's universal type for untyped XML: AnyElement =
  // ~[(AnyElement | AnyScalar)*]. Its configuration is the STORED-style
  // overflow relation; any element-only document shreds into it and comes
  // back intact.
  map::Mapping m = MapText(
      "type Root = doc[ AnyElement* ] "
      "type AnyElement = ~[ (AnyElement | AnyScalar)* ] "
      "type AnyScalar = String");
  const char* text =
      "<doc><anything><nested>deep</nested><more>text</more></anything>"
      "<other/></doc>";
  Database db = Shred(m, text);
  EXPECT_GT(db.GetTable("AnyElement").row_count(), 3u);
  auto rebuilt = ReconstructDocument(&db, m);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  auto original = xml::ParseDocument(text);
  EXPECT_EQ(xml::Serialize(original.value()), xml::Serialize(rebuilt.value()));
}

TEST(Reconstruct, EmptyDatabaseFails) {
  map::Mapping m = MapText("type A = a[ String ]");
  Database db(m.catalog());
  EXPECT_FALSE(ReconstructDocument(&db, m).ok());
}

// ---- Id allocation under concurrency ----

TEST(DatabaseTest, NextIdIsUniqueAcrossThreads) {
  map::Mapping m = MapText("type A = a[ String ]");
  Database db(m.catalog());
  constexpr int kThreads = 8, kPerThread = 10000;
  std::vector<std::vector<int64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ids[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) ids[t].push_back(db.NextId());
    });
  }
  for (auto& t : threads) t.join();
  std::set<int64_t> unique;
  for (const auto& v : ids) unique.insert(v.begin(), v.end());
  // Every allocation distinct, and the range is dense: no id was ever
  // handed out twice or skipped.
  EXPECT_EQ(unique.size(), size_t{kThreads} * kPerThread);
  EXPECT_EQ(*unique.begin(), 1);
  EXPECT_EQ(*unique.rbegin(), int64_t{kThreads} * kPerThread);
}

// ---- DbRegistry ----

TEST(DbRegistry, PublishBumpsGenerationAndSwapsCurrent) {
  map::Mapping m = MapText("type A = a[ String ]");
  auto mapping = std::make_shared<const map::Mapping>(std::move(m));
  auto db1 = std::make_shared<Database>(mapping->catalog());
  DbRegistry registry(mapping, db1);
  EXPECT_EQ(registry.generation(), 1u);

  DbVersionPtr v1 = registry.Current();
  EXPECT_EQ(v1->generation, 1u);
  EXPECT_EQ(v1->db.get(), db1.get());

  auto db2 = std::make_shared<Database>(mapping->catalog());
  DbVersionPtr v2 = registry.Publish(mapping, db2);
  EXPECT_EQ(v2->generation, 2u);
  EXPECT_EQ(registry.generation(), 2u);
  EXPECT_EQ(registry.Current()->db.get(), db2.get());
  // The superseded version stays valid for whoever pinned it.
  EXPECT_EQ(v1->generation, 1u);
  EXPECT_EQ(v1->db.get(), db1.get());
}

TEST(DbRegistry, WaitForDrainReturnsOnceUnpinned) {
  map::Mapping m = MapText("type A = a[ String ]");
  auto mapping = std::make_shared<const map::Mapping>(std::move(m));
  DbRegistry registry(mapping,
                      std::make_shared<Database>(mapping->catalog()));
  DbVersionPtr v1 = registry.Current();
  registry.Publish(mapping, std::make_shared<Database>(mapping->catalog()));

  // A second pin (simulating an in-flight request) keeps the version from
  // draining within the timeout...
  DbVersionPtr pin = v1;
  double waited = DbRegistry::WaitForDrain(v1, /*timeout_ms=*/5);
  EXPECT_GE(waited, 5.0);

  // ...and dropping it lets the drain complete almost immediately.
  pin.reset();
  waited = DbRegistry::WaitForDrain(v1, /*timeout_ms=*/1000);
  EXPECT_LT(waited, 1000.0);
}

TEST(DbRegistry, ConcurrentReadersAlwaysSeeConsistentSnapshots) {
  map::Mapping m = MapText("type A = a[ String ]");
  auto mapping = std::make_shared<const map::Mapping>(std::move(m));
  DbRegistry registry(mapping,
                      std::make_shared<Database>(mapping->catalog()));
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        DbVersionPtr v = registry.Current();
        // A snapshot is never half-swapped and generations never move
        // backwards from any single reader's point of view.
        if (v->mapping == nullptr || v->db == nullptr || v->generation < last) {
          ++torn;
        }
        last = v->generation;
      }
    });
  }
  for (int i = 0; i < 100; ++i) {
    registry.Publish(mapping, std::make_shared<Database>(mapping->catalog()));
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn, 0);
  EXPECT_EQ(registry.generation(), 101u);
}

}  // namespace
}  // namespace legodb::store
