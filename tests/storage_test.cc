// Unit tests for the storage layer: memory tables, their columns and hash
// indexes (checked against an ordered-map reference), the shredder
// (optionals, unions, wildcards, backtracking, rollback), and the
// reconstructor (inverse mapping, ordering, presence of optional content).
#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <string>
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

// Cell (row, column) of a stored table, read through ReadRow.
Value At(const StoredTable& t, size_t row, int column) {
  auto r = t.ReadRow(row);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? (*r)[static_cast<size_t>(column)] : Value::MakeNull();
}

// ---- StoredTable / Database ----

TEST(StoredTable, InsertAndIndex) {
  rel::Table meta;
  meta.name = "T";
  rel::Column id, x;
  id.name = "T_id";
  x.name = "x";
  meta.columns = {id, x};
  StoredTable t(meta);
  t.Insert({Value::Int(1), Value::Str("a")});
  t.Insert({Value::Int(2), Value::Str("a")});
  t.Insert({Value::Int(3), Value::MakeNull()});
  auto index = t.GetOrBuildIndex(1);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->Find(Value::Str("a")).size(), 2u);
  // NULLs are not indexed.
  EXPECT_TRUE((*index)->Find(Value::MakeNull()).empty());
  for (int outside : {2, -1}) {
    auto missing = t.GetOrBuildIndex(outside);
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), Status::Code::kNotFound);
    EXPECT_NE(missing.status().message().find("table 'T'"), std::string::npos);
  }
}

TEST(StoredTable, InsertInvalidatesIndexes) {
  rel::Table meta;
  meta.name = "T";
  rel::Column id;
  id.name = "T_id";
  meta.columns = {id};
  StoredTable t(meta);
  t.Insert({Value::Int(1)});
  auto before = t.GetOrBuildIndex(rel::Table::kKeyColumn);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE((*before)->Find(Value::Int(2)).empty());
  t.Insert({Value::Int(2)});
  // The insert dropped the stale index; the rebuilt one sees the new row.
  auto after = t.GetOrBuildIndex(rel::Table::kKeyColumn);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->Find(Value::Int(2)).size(), 1u);
}

// ---- HashIndex ----

using PositionMap = std::map<Value, std::vector<int32_t>>;

// The positions HashIndex must report, from an ordered map: every non-null
// row of `column` (row list null) or the non-null, bound entries of `rows`.
PositionMap ReferencePositions(const ColumnVector& column,
                               const std::vector<int32_t>* rows) {
  PositionMap ref;
  size_t n = rows ? rows->size() : column.size();
  for (size_t i = 0; i < n; ++i) {
    int32_t r = rows ? (*rows)[i] : static_cast<int32_t>(i);
    if (r < 0 || column.is_null(static_cast<size_t>(r))) continue;
    ref[column.value(static_cast<size_t>(r))].push_back(
        static_cast<int32_t>(i));
  }
  return ref;
}

std::vector<int32_t> ToVector(std::span<const int32_t> s) {
  return std::vector<int32_t>(s.begin(), s.end());
}

// Every key of the reference finds exactly its positions, in order, through
// Find and (for integers) FindInt; every absent probe finds nothing.
void ExpectMatchesReference(const HashIndex& index, const PositionMap& ref,
                            const std::vector<Value>& absent_probes,
                            const std::string& context) {
  for (const auto& [key, positions] : ref) {
    EXPECT_EQ(ToVector(index.Find(key)), positions)
        << context << " key " << key.ToString();
    if (key.is_int()) {
      EXPECT_EQ(ToVector(index.FindInt(key.as_int())), positions)
          << context << " FindInt " << key.ToString();
    }
  }
  for (const Value& probe : absent_probes) {
    if (ref.count(probe) > 0) continue;
    EXPECT_TRUE(index.Find(probe).empty())
        << context << " absent " << probe.ToString();
    if (probe.is_int()) {
      EXPECT_TRUE(index.FindInt(probe.as_int()).empty())
          << context << " absent FindInt " << probe.ToString();
    }
  }
}

ColumnVector MakeColumn(const std::vector<Value>& values) {
  ColumnVector col;
  for (const Value& v : values) col.Append(v);
  return col;
}

TEST(HashIndexTest, MatchesMapReference) {
  std::mt19937_64 rng(20);
  auto pick = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  std::vector<std::pair<std::string, std::vector<Value>>> columns;

  std::vector<Value> ints;
  for (int i = 0; i < 5000; ++i) {
    int64_t roll = pick(0, 19);
    if (roll == 0) {
      ints.push_back(Value::MakeNull());
    } else if (roll == 1) {
      ints.push_back(Value::Int(INT64_MIN));
    } else if (roll == 2) {
      ints.push_back(Value::Int(INT64_MAX));
    } else {
      ints.push_back(Value::Int(pick(-300, 300)));
    }
  }
  columns.emplace_back("typed ints", ints);

  std::vector<Value> strings;
  for (int i = 0; i < 5000; ++i) {
    strings.push_back(pick(0, 15) == 0
                          ? Value::MakeNull()
                          : Value::Str("s" + std::to_string(pick(0, 400))));
  }
  columns.emplace_back("strings", strings);

  std::vector<Value> mixed;
  for (int i = 0; i < 3000; ++i) {
    switch (pick(0, 5)) {
      case 0: mixed.push_back(Value::Int(5)); break;
      case 1: mixed.push_back(Value::Str("5")); break;
      case 2: mixed.push_back(Value::MakeNull()); break;
      case 3: mixed.push_back(Value::Int(pick(-20, 20))); break;
      default: mixed.push_back(Value::Str(std::to_string(pick(-20, 20))));
    }
  }
  columns.emplace_back("mixed Int(5)/Str(\"5\")", mixed);

  columns.emplace_back("NULL only", std::vector<Value>(100, Value::MakeNull()));
  columns.emplace_back("empty", std::vector<Value>());
  columns.emplace_back("one key 10k times",
                       std::vector<Value>(10000, Value::Int(42)));

  const std::vector<Value> absent = {
      Value::MakeNull(), Value::Int(5),         Value::Str("5"),
      Value::Int(0),     Value::Int(-1),        Value::Int(301),
      Value::Int(-301),  Value::Int(INT64_MIN), Value::Int(INT64_MAX),
      Value::Str(""),    Value::Str("s401"),    Value::Int(42),
      Value::Str("42"),  Value::Int(1 << 20)};

  for (const auto& [name, values] : columns) {
    ColumnVector col = MakeColumn(values);
    HashIndex whole(col);
    EXPECT_EQ(whole.int_keys(), col.typed_int()) << name;
    ExpectMatchesReference(whole, ReferencePositions(col, nullptr), absent,
                           name + " (whole column)");

    // A build side's row list: unordered, with repeats and unbound lanes.
    std::vector<int32_t> rows;
    for (int i = 0; i < 4000; ++i) {
      if (values.empty() || pick(0, 9) == 0) {
        rows.push_back(-1);  // kUnboundRow
      } else {
        rows.push_back(static_cast<int32_t>(
            pick(0, static_cast<int64_t>(values.size()) - 1)));
      }
    }
    HashIndex build(col, rows);
    EXPECT_EQ(build.int_keys(), col.typed_int()) << name;
    ExpectMatchesReference(build, ReferencePositions(col, &rows), absent,
                           name + " (row list)");
  }
}

void ExpectSameColumn(const ColumnVector& want, const ColumnVector& got,
                      const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  ASSERT_EQ(want.typed_int(), got.typed_int()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want.null_mask()[i], got.null_mask()[i]) << context << " " << i;
    EXPECT_EQ(want.value(i), got.value(i)) << context << " " << i;
    if (want.typed_int()) {
      EXPECT_EQ(want.ints()[i], got.ints()[i]) << context << " " << i;
    }
  }
}

// A memory table's columns are the table. Appending a string to an int
// column and rolling it back must leave the column exactly as if it had
// only ever held the int rows, and equal to the decoded columns of a paged
// table after the same sequence.
TEST(StoredTable, ColumnStateAfterMixedKindRollback) {
  rel::Table meta;
  meta.name = "T";
  rel::Column id, x;
  id.name = "T_id";
  x.name = "x";
  meta.columns = {id, x};
  const std::vector<Row> int_rows = {{Value::Int(1), Value::Int(10)},
                                     {Value::Int(2), Value::MakeNull()},
                                     {Value::Int(3), Value::Int(-30)}};
  const Row string_row = {Value::Int(4), Value::Str("forty")};

  StoredTable ints_only(meta);
  StoredTable rolled_back(meta);
  auto backend = PagedBackend::Open(StorageOptions::Paged(512, 2));
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  StoredTable paged(meta, backend->get());
  for (const Row& row : int_rows) {
    ASSERT_TRUE(ints_only.Insert(row).ok());
    ASSERT_TRUE(rolled_back.Insert(row).ok());
    ASSERT_TRUE(paged.Insert(row).ok());
  }
  ASSERT_TRUE(rolled_back.Insert(string_row).ok());
  ASSERT_TRUE(paged.Insert(string_row).ok());
  auto mixed = rolled_back.GetOrBuildColumn(1);
  ASSERT_TRUE(mixed.ok());
  EXPECT_FALSE((*mixed)->typed_int());
  EXPECT_EQ((*mixed)->value(3), Value::Str("forty"));
  ASSERT_TRUE(rolled_back.RemoveLastRows(1).ok());
  ASSERT_TRUE(paged.RemoveLastRows(1).ok());

  for (int column : {0, 1}) {
    auto want = ints_only.GetOrBuildColumn(column);
    auto got = rolled_back.GetOrBuildColumn(column);
    auto decoded = paged.GetOrBuildColumn(column);
    ASSERT_TRUE(want.ok() && got.ok() && decoded.ok()) << column;
    EXPECT_TRUE((*want)->typed_int()) << column;
    const std::string name = meta.columns[column].name;
    ExpectSameColumn(**want, **got, name + " rolled back");
    ExpectSameColumn(**want, **decoded, name + " paged");
  }
}

TEST(DatabaseTest, CreatesAllTablesEmpty) {
  map::Mapping m = MapText("type A = a[ B* ] type B = b[ String ]");
  Database db(m.catalog());
  EXPECT_EQ(db.TotalRows(), 0u);
  ASSERT_EQ(db.size(), m.catalog().size());
  for (size_t i = 0; i < db.size(); ++i) {  // catalog order
    EXPECT_EQ(db.table(static_cast<int>(i)).meta().name,
              m.catalog().table(static_cast<int>(i)).name);
  }
  EXPECT_EQ(db.table(m.catalog().IndexOf("B")).meta().name, "B");
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
  const StoredTable& t = db.table(m.catalog().IndexOf("A"));
  ASSERT_EQ(t.row_count(), 1u);
  int xi = t.meta().ColumnIndex("x");
  int yi = t.meta().ColumnIndex("y");
  // Integer-looking strings canonicalize to Int (matching the evaluator).
  EXPECT_EQ(At(t, 0, xi), Value::Int(123));
  EXPECT_EQ(At(t, 0, yi), Value::Int(45));
}

TEST(Shredder, ParentForeignKeysLinkRows) {
  map::Mapping m = MapText("type A = a[ B* ] type B = b[ String ]");
  Database db = Shred(m, "<a><b>x</b><b>y</b></a>");
  const StoredTable& a = db.table(m.catalog().IndexOf("A"));
  const StoredTable& b = db.table(m.catalog().IndexOf("B"));
  ASSERT_EQ(a.row_count(), 1u);
  ASSERT_EQ(b.row_count(), 2u);
  int key = a.meta().ColumnIndex("A_id");
  int fk = b.meta().ColumnIndex("parent_A");
  EXPECT_EQ(At(b, 0, fk), At(a, 0, key));
  EXPECT_EQ(At(b, 1, fk), At(a, 0, key));
}

TEST(Shredder, OptionalAbsenceStoresNull) {
  map::Mapping m = MapText("type A = a[ x[ String ]?, y[ String ] ]");
  Database db = Shred(m, "<a><y>present</y></a>");
  const StoredTable& t = db.table(m.catalog().IndexOf("A"));
  EXPECT_TRUE(At(t, 0, t.meta().ColumnIndex("x")).is_null());
  EXPECT_EQ(At(t, 0, t.meta().ColumnIndex("y")), Value::Str("present"));
}

TEST(Shredder, UnionPicksMatchingAlternative) {
  map::Mapping m = MapText(
      "type A = a[ (B | C) ] type B = b[ String ] type C = c[ Integer ]");
  Database db = Shred(m, "<a><c>9</c></a>");
  EXPECT_EQ(db.table(m.catalog().IndexOf("B")).row_count(), 0u);
  EXPECT_EQ(db.table(m.catalog().IndexOf("C")).row_count(), 1u);
}

TEST(Shredder, UnionBacktrackingRollsBackRows) {
  // First alternative B = b[x?] matches <b> prefix but the document needs
  // B2 = b[x?, z]; greedy failure inside an alternative must not leave rows.
  map::Mapping m = MapText(
      "type A = a[ (B | B2) ] type B = b[ x[ String ]? ] "
      "type B2 = b[ x[ String ]?, z[ String ] ]");
  Database db = Shred(m, "<a><b><x>1</x><z>2</z></b></a>");
  EXPECT_EQ(db.table(m.catalog().IndexOf("B")).row_count(), 0u);
  EXPECT_EQ(db.table(m.catalog().IndexOf("B2")).row_count(), 1u);
}

TEST(Shredder, WildcardStoresTagName) {
  map::Mapping m = MapText("type A = a[ R* ] type R = r[ ~[ String ] ]");
  Database db = Shred(m, "<a><r><nyt>great</nyt></r><r><sun>meh</sun></r></a>");
  const StoredTable& r = db.table(m.catalog().IndexOf("R"));
  ASSERT_EQ(r.row_count(), 2u);
  int tilde = r.meta().ColumnIndex("tilde");
  EXPECT_EQ(At(r, 0, tilde), Value::Str("nyt"));
  EXPECT_EQ(At(r, 1, tilde), Value::Str("sun"));
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
  const StoredTable& n = db.table(m.catalog().IndexOf("N"));
  ASSERT_EQ(n.row_count(), 3u);
  int fk = n.meta().ColumnIndex("parent_N");
  int present = 0;
  for (size_t i = 0; i < n.row_count(); ++i) {
    present += At(n, i, fk).is_null() ? 0 : 1;
  }
  EXPECT_EQ(present, 2);  // two children reference the root
}

TEST(Shredder, MultipleDocumentsAccumulate) {
  map::Mapping m = MapText("type A = a[ x[ String ] ]");
  Database db(m.catalog());
  for (int i = 0; i < 3; ++i) {
    auto doc = xml::ParseDocument("<a><x>v</x></a>");
    ASSERT_TRUE(ShredDocument(doc.value(), m, &db).ok());
  }
  EXPECT_EQ(db.table(m.catalog().IndexOf("A")).row_count(), 3u);
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

TEST(Reconstruct, ForeignKeyNamedLikeTheKeyTakesASuffix) {
  // Table `parent` keys on parent_id, the name its foreign key to type `id`
  // would take too; the foreign key takes the first free suffix.
  const char* schema = "type id = r[ parent* ] type parent = p[ String ]";
  map::Mapping m = MapText(schema);
  ASSERT_GE(m.catalog().IndexOf("parent"), 0);
  const rel::Table* parent = &m.catalog().table(m.catalog().IndexOf("parent"));
  EXPECT_EQ(parent->columns[rel::Table::kKeyColumn].name, "parent_id");
  ASSERT_EQ(parent->foreign_keys.size(), 1u);
  EXPECT_EQ(parent->columns[parent->foreign_keys[0].column].name,
            "parent_id_2");
  ExpectRoundTrip(schema, "<r><p>x</p></r>");
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

TEST(Reconstruct, SlotNamedLikeTheKey) {
  // Element A_id would take the key's column name; it gets A_id_2.
  ExpectRoundTrip("type A = a[ A_id[ Integer ], B* ] type B = b[ String ]",
                  "<a><A_id>7</A_id><b>x</b><b>y</b></a>");
}

TEST(Reconstruct, SlotNamedLikeAForeignKey) {
  // Element parent_A would take B's foreign-key column name.
  ExpectRoundTrip(
      "type A = a[ B* ] type B = b[ parent_A[ String ], v[ String ] ]",
      "<a><b><parent_A>p</parent_A><v>1</v></b>"
      "<b><parent_A>q</parent_A><v>2</v></b></a>");
}

TEST(Reconstruct, SingleInstanceSubtree) {
  map::Mapping m = MapText("type A = a[ B* ] type B = b[ x[ String ] ]");
  Database db = Shred(m, "<a><b><x>first</x></b><b><x>second</x></b></a>");
  // Reconstruct just the second b (id 3: ids are assigned in document
  // order: a=1, b=2, b=3).
  xml::Document out;
  xml::Node* holder = out.CreateRoot("h");
  ASSERT_TRUE(ReconstructInstance(&db, m, "B", 3, holder).ok());
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
  EXPECT_GT(db.table(m.catalog().IndexOf("AnyElement")).row_count(), 3u);
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

// ---- Backtracking: what a failed match attempt leaves behind ----

// The tables of `m`'s concrete types, in name order.
std::vector<int> TablesByName(const map::Mapping& m) {
  std::vector<int> tables;
  for (const map::TypeMapping& tm : m.types()) {
    if (!tm.virtual_union) tables.push_back(tm.table);
  }
  return tables;
}

// Every stored row, table by table (in name order) and in row order. Key
// and foreign-key cells name the row their id keys ("B#1"), so the
// rendering does not depend on which ids failed match attempts used up.
std::string StoredRows(const map::Mapping& m, const Database& db) {
  std::map<int64_t, std::string> row_of;
  for (int table : TablesByName(m)) {
    const StoredTable& t = db.table(table);
    const std::string& name = t.meta().name;
    for (size_t i = 0; i < t.row_count(); ++i) {
      row_of[At(t, i, 0).as_int()] = name + "#" + std::to_string(i);
    }
  }
  std::string out;
  for (int table : TablesByName(m)) {
    const StoredTable& t = db.table(table);
    const std::string& name = t.meta().name;
    std::set<int> fks;
    for (const auto& fk : t.meta().foreign_keys) fks.insert(fk.column);
    for (size_t i = 0; i < t.row_count(); ++i) {
      out += name + "#" + std::to_string(i) + ":";
      for (size_t c = 1; c < t.meta().columns.size(); ++c) {
        const std::string& column = t.meta().columns[c].name;
        Value v = At(t, i, static_cast<int>(c));
        std::string cell = v.is_string() ? "'" + v.as_string() + "'"
                                         : v.ToString();
        if (fks.count(static_cast<int>(c)) && v.is_int()) {
          cell = row_of[v.as_int()];
        }
        out += " " + column + "=" + cell;
      }
      out += "\n";
    }
  }
  return out;
}

// Shreds `xml_text`, checks the stored rows against `rows`, and checks the
// document round-trips.
void ExpectRows(const char* schema_text, const char* xml_text,
                const std::string& rows) {
  map::Mapping m = MapText(schema_text);
  Database db = Shred(m, xml_text);
  EXPECT_EQ(StoredRows(m, db), rows) << schema_text << "\n" << xml_text;
  auto rebuilt = ReconstructDocument(&db, m);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  auto original = xml::ParseDocument(xml_text);
  EXPECT_EQ(xml::Serialize(original.value()), xml::Serialize(rebuilt.value()))
      << schema_text;
}

void ExpectNoMatch(const char* schema_text, const char* xml_text) {
  map::Mapping m = MapText(schema_text);
  Database db(m.catalog());
  auto doc = xml::ParseDocument(xml_text);
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(ShredDocument(doc.value(), m, &db).ok()) << xml_text;
  EXPECT_EQ(db.TotalRows(), 0u);
}

TEST(ShredBacktracking, HalfMatchedOptionalGroupLeavesItsSlotNull) {
  // The group fills its x, fails at y, and must take that x back: the
  // document's x belongs to the second x slot.
  ExpectRows("type A = a[ (x[ String ], y[ Integer ])?, x[ String ] ]",
             "<a><x>1</x></a>", "A#0: x=NULL y=NULL x_2=1\n");
  ExpectRows("type A = a[ (x[ String ], y[ Integer ])?, x[ String ] ]",
             "<a><x>1</x><y>2</y><x>3</x></a>", "A#0: x=1 y=2 x_2=3\n");
}

TEST(ShredBacktracking, FailedAlternativeLeavesNoAttributeMatched) {
  // B matches @k before failing at x; C does not declare k, so the
  // element's k is unmatched and the document does not shred.
  const char* in_body =
      "type A = a[ (B | C) ] type B = @k[ String ], x[ String ] "
      "type C = y[ String ]";
  ExpectRows(in_body, "<a k=\"v\"><x>1</x></a>",
             "A#0:\nB#0: k='v' x=1 parent_A=A#0\n");
  ExpectNoMatch(in_body, "<a k=\"v\"><y>1</y></a>");
  // The same through a virtual union, whose alternatives are tried
  // without a checkpoint of their own around them.
  const char* virtual_union =
      "type A = a[ U ] type U = (B | C) type B = @k[ String ], x[ String ] "
      "type C = y[ String ]";
  ExpectRows(virtual_union, "<a k=\"v\"><x>1</x></a>",
             "A#0:\nB#0: k='v' x=1 parent_A=A#0\n");
  ExpectNoMatch(virtual_union, "<a k=\"v\"><y>1</y></a>");
}

TEST(ShredBacktracking, AlternativesWithOverlappingFirstTags) {
  // Both alternatives start with <b>: only matching tells them apart.
  ExpectRows(
      "type A = a[ (B | B2)* ] type B = b[ x[ String ]? ] "
      "type B2 = b[ x[ String ]?, z[ String ] ]",
      "<a><b><x>1</x></b><b><x>2</x><z>3</z></b><b/><b><z>4</z></b></a>",
      "A#0:\n"
      "B#0: x=1 parent_A=A#0\n"
      "B#1: x=NULL parent_A=A#0\n"
      "B2#0: x=2 z=3 parent_A=A#0\n"
      "B2#1: x=NULL z=4 parent_A=A#0\n");
}

TEST(ShredBacktracking, NullableTypesAreNotSkipped) {
  // N and K can match without consuming an item: at <y>, or at the end of
  // the content, they must still be tried (and store a row).
  const char* schema =
      "type A = a[ N, K, y[ String ]? ] type N = x[ String ]? "
      "type K = @k[ String ]";
  ExpectRows(schema, "<a k=\"v\"><y>1</y></a>",
             "A#0: y=1\nK#0: k='v' parent_A=A#0\nN#0: x=NULL parent_A=A#0\n");
  ExpectRows(schema, "<a k=\"v\"/>",
             "A#0: y=NULL\nK#0: k='v' parent_A=A#0\n"
             "N#0: x=NULL parent_A=A#0\n");
  ExpectRows(schema, "<a k=\"v\"><x>2</x></a>",
             "A#0: y=NULL\nK#0: k='v' parent_A=A#0\nN#0: x=2 parent_A=A#0\n");
}

TEST(ShredBacktracking, WildcardBesideNamedTag) {
  // T is tried first, so <title> goes to T and every other tag to W.
  ExpectRows(
      "type A = a[ (T | W)* ] type T = title[ String ] type W = ~[ String ]",
      "<a><title>t</title><nyt>x</nyt><title>u</title></a>",
      "A#0:\nT#0: title='t' parent_A=A#0\nT#1: title='u' parent_A=A#0\n"
      "W#0: tilde='nyt' _data='x' parent_A=A#0\n");
  // Greedy: info takes <info>, the wildcard takes the rest.
  ExpectRows(
      "type A = a[ D* ] type D = d[ info[ String ]?, ~[ String ]? ]",
      "<a><d><info>i</info><w>x</w></d><d><w>y</w></d><d><info>j</info></d>"
      "</a>",
      "A#0:\nD#0: info='i' tilde='w' d='x' parent_A=A#0\n"
      "D#1: info=NULL tilde='w' d='y' parent_A=A#0\n"
      "D#2: info='j' tilde=NULL d=NULL parent_A=A#0\n");
}

TEST(Shredder, KeyIdsFollowDocumentPreOrder) {
  // Each instance's v is its position in document pre-order; B is tried
  // (and fails) before B2 on the first <b>, and the repetition ends with
  // failed attempts at every level.
  map::Mapping m = MapText(
      "type A = a[ v[ Integer ], (B | B2 | A)* ] "
      "type B = b[ v[ Integer ], x[ String ]? ] "
      "type B2 = b[ v[ Integer ], x[ String ]?, z[ String ] ]");
  Database db = Shred(
      m,
      "<a><v>1</v><b><v>2</v><x>p</x><z>q</z></b>"
      "<a><v>3</v><b><v>4</v></b><a><v>5</v></a></a><b><v>6</v></b></a>");
  std::map<int64_t, int64_t> v_by_id;
  for (size_t table = 0; table < db.size(); ++table) {
    const StoredTable& t = db.table(static_cast<int>(table));
    const int v = t.meta().ColumnIndex("v");
    for (size_t i = 0; i < t.row_count(); ++i) {
      const int64_t id = At(t, i, 0).as_int();
      EXPECT_TRUE(v_by_id.emplace(id, At(t, i, v).as_int()).second)
          << "duplicate id " << id;
    }
  }
  std::vector<int64_t> pre_order;
  for (const auto& [id, v] : v_by_id) pre_order.push_back(v);
  EXPECT_EQ(pre_order, (std::vector<int64_t>{1, 2, 3, 4, 5, 6}));
}

// The shredder compares element and attribute names by the document's name
// ids. A document whose name table lacks a tag the schema requires cannot
// match, and fails as any mismatch does, leaving nothing inserted.
TEST(Shredder, DocumentWithoutARequiredNameFails) {
  map::Mapping m = MapText("type A = a[ @k[ String ], x[ String ], y[ Integer ] ]");
  for (const char* text : {"<a k='1'><x>1</x></a>",          // no y at all
                           "<a k='1'><x>1</x><z>2</z></a>",  // z for y
                           "<a><x>1</x><y>2</y></a>"}) {     // no k
    auto doc = xml::ParseDocument(text);
    ASSERT_TRUE(doc.ok());
    Database db(m.catalog());
    Status st = ShredDocument(doc.value(), m, &db);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << text;
    EXPECT_EQ(st.message(), "document does not match the physical schema")
        << text;
    EXPECT_EQ(db.TotalRows(), 0u) << text;
  }
}

// Name ids are per document: the same content under a differently ordered
// name table (with names no node uses) shreds into the same rows.
TEST(Shredder, DifferentNameTablesShredIntoIdenticalRows) {
  map::Mapping m = MapText(
      "type A = a[ @k[ String ], B*, ~!a[ String ]* ] "
      "type B = b[ v[ Integer ], w[ String ]? ]");
  const char* text =
      "<a k='key'><b><v>1</v><w>x</w></b><b><v>2</v></b><t>tail</t></a>";
  auto parsed = xml::ParseDocument(text);
  ASSERT_TRUE(parsed.ok());

  xml::Document built;
  xml::Arena& arena = built.NewArena();
  for (const char* name : {"unused", "w", "t", "v", "k", "b", "a"}) {
    arena.Intern(name);
  }
  xml::Node* a = arena.NewElement(arena.Intern("a"));
  built.SetRoot(a);
  a->SetAttribute("k", "key");
  xml::Node* b1 = a->AddElement("b");
  b1->AddElement("v", "1");
  b1->AddElement("w", "x");
  a->AddElement("b")->AddElement("v", "2");
  a->AddElement("t", "tail");
  ASSERT_NE(built.FindName("a"), parsed->FindName("a"));
  ASSERT_EQ(xml::Serialize(built), xml::Serialize(*parsed));

  Database from_parsed(m.catalog());
  ASSERT_TRUE(ShredDocument(*parsed, m, &from_parsed).ok());
  Database from_built(m.catalog());
  ASSERT_TRUE(ShredDocument(built, m, &from_built).ok());
  EXPECT_EQ(from_parsed.TotalRows(), 4u);
  EXPECT_EQ(StoredRows(m, from_built), StoredRows(m, from_parsed));
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
