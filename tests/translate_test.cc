// Unit tests for the XQuery -> relational translation: join derivation,
// union expansion, wildcard tilde predicates, strict-projection NOT NULL
// filters, branch pruning, value joins, and publish block shapes.
#include <gtest/gtest.h>

#include <set>

#include "common/hash.h"
#include "core/transforms.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "pschema/pschema.h"
#include "translate/translate.h"
#include "xquery/parser.h"
#include "xschema/annotate.h"
#include "schema_fuzzer.h"
#include "xschema/schema_parser.h"

namespace legodb::xlat {
namespace {

map::Mapping MapOf(const xs::Schema& pschema) {
  auto mapping = map::MapSchema(pschema);
  EXPECT_TRUE(mapping.ok()) << mapping.status().ToString();
  return std::move(mapping).value();
}

map::Mapping MapText(const char* schema_text) {
  auto schema = xs::ParseSchema(schema_text);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return MapOf(ps::Normalize(schema.value()));
}

opt::RelQuery Translate(const map::Mapping& m, const char* query_text) {
  auto q = xq::ParseQuery(query_text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  auto rq = TranslateQuery(q.value(), m);
  EXPECT_TRUE(rq.ok()) << rq.status().ToString();
  return std::move(rq).value();
}

// The catalog name of `ref`'s column (an output or a filter) in block `b`.
template <typename Ref>
std::string ColumnName(const map::Mapping& m, const opt::QueryBlock& b,
                       const Ref& ref) {
  return m.catalog().table(b.rels[ref.rel].table).columns[ref.column].name;
}

bool SqlContains(const map::Mapping& m, const opt::RelQuery& rq,
                 const std::string& needle) {
  return rq.ToSql(m.catalog()).find(needle) != std::string::npos;
}

TEST(Translate, InlineColumnAccessNeedsNoJoin) {
  map::Mapping m = MapText("type A = a[ x[ String ] ]");
  opt::RelQuery rq = Translate(
      m, "FOR $v IN document(\"d\")/a RETURN $v/x");
  ASSERT_EQ(rq.blocks.size(), 1u);
  EXPECT_EQ(rq.blocks[0].rels.size(), 1u);
  EXPECT_EQ(ColumnName(m, rq.blocks[0], rq.blocks[0].output[0]),
            "x");
}

TEST(Translate, CrossingTypeRefAddsFkJoin) {
  map::Mapping m =
      MapText("type A = a[ B* ] type B = b[ x[ String ] ]");
  opt::RelQuery rq =
      Translate(m, "FOR $v IN document(\"d\")/a, $b IN $v/b RETURN $b/x");
  ASSERT_EQ(rq.blocks.size(), 1u);
  EXPECT_EQ(rq.blocks[0].rels.size(), 2u);
  ASSERT_EQ(rq.blocks[0].joins.size(), 1u);
  const opt::JoinEdge& join = rq.blocks[0].joins[0];
  EXPECT_EQ(join.left_column, rel::Table::kKeyColumn);
  EXPECT_EQ(join.right_column,
            m.catalog().table(m.GetType("B").table).ColumnIndex("parent_A"));
}

TEST(Translate, PredicateBecomesFilter) {
  map::Mapping m = MapText("type A = a[ x[ String ], y[ Integer ] ]");
  opt::RelQuery rq = Translate(
      m, "FOR $v IN document(\"d\")/a WHERE $v/y = 7 RETURN $v/x");
  ASSERT_EQ(rq.blocks.size(), 1u);
  ASSERT_EQ(rq.blocks[0].filters.size(), 1u);
  EXPECT_EQ(ColumnName(m, rq.blocks[0], rq.blocks[0].filters[0]),
            "y");
  EXPECT_EQ(rq.blocks[0].filters[0].value.int_value, 7);
}

TEST(Translate, NestedInlineContentUsesPrefixedColumn) {
  map::Mapping m =
      MapText("type A = a[ bio[ birthday[ String ] ] ]");
  opt::RelQuery rq = Translate(
      m, "FOR $v IN document(\"d\")/a RETURN $v/bio/birthday");
  EXPECT_EQ(ColumnName(m, rq.blocks[0], rq.blocks[0].output[0]),
            "bio_birthday");
}

TEST(Translate, AttributeStepResolves) {
  map::Mapping m = MapText("type A = a[ @type[ String ], x[ String ] ]");
  opt::RelQuery rq1 =
      Translate(m, "FOR $v IN document(\"d\")/a RETURN $v/@type");
  EXPECT_EQ(ColumnName(m, rq1.blocks[0], rq1.blocks[0].output[0]),
            "type");
  // Plain-name fallback, as the paper's Q1 writes $v/type.
  opt::RelQuery rq2 =
      Translate(m, "FOR $v IN document(\"d\")/a RETURN $v/type");
  EXPECT_EQ(ColumnName(m, rq2.blocks[0], rq2.blocks[0].output[0]),
            "type");
}

TEST(Translate, UnionBindingExpandsToUnionAll) {
  map::Mapping m = MapText(
      "type R = r[ S* ] type S = (S1 | S2) "
      "type S1 = s[ x[ String ], common[ String ] ] "
      "type S2 = s[ y[ String ], common[ String ] ]");
  opt::RelQuery rq = Translate(
      m, "FOR $v IN document(\"d\")/r/s RETURN $v/common");
  EXPECT_EQ(rq.blocks.size(), 2u);  // one block per alternative
}

TEST(Translate, BranchWithoutPredicatePathIsPruned) {
  map::Mapping m = MapText(
      "type R = r[ S* ] type S = (S1 | S2) "
      "type S1 = s[ x[ String ] ] type S2 = s[ y[ String ] ]");
  opt::RelQuery rq = Translate(
      m, "FOR $v IN document(\"d\")/r/s WHERE $v/x = c1 RETURN $v/x");
  ASSERT_EQ(rq.blocks.size(), 1u);
  EXPECT_EQ(rq.blocks[0].rels[1].table, m.catalog().IndexOf("S1"));
}

TEST(Translate, BranchWithoutReturnPathIsPruned) {
  map::Mapping m = MapText(
      "type R = r[ S* ] type S = (S1 | S2) "
      "type S1 = s[ x[ String ] ] type S2 = s[ y[ String ] ]");
  opt::RelQuery rq =
      Translate(m, "FOR $v IN document(\"d\")/r/s RETURN $v/y");
  ASSERT_EQ(rq.blocks.size(), 1u);
  EXPECT_EQ(rq.blocks[0].rels[1].table, m.catalog().IndexOf("S2"));
}

TEST(Translate, WildcardStepAddsTildePredicate) {
  map::Mapping m = MapText(
      "type Show = show[ Reviews* ] type Reviews = reviews[ ~[ String ] ]");
  opt::RelQuery rq = Translate(
      m, "FOR $v IN document(\"d\")/show RETURN $v/reviews/nyt");
  ASSERT_EQ(rq.blocks.size(), 1u);
  ASSERT_EQ(rq.blocks[0].filters.size(), 1u);
  EXPECT_EQ(ColumnName(m, rq.blocks[0], rq.blocks[0].filters[0]),
            "tilde");
  EXPECT_EQ(rq.blocks[0].filters[0].value.string_value, "nyt");
}

TEST(Translate, MaterializedWildcardSkipsExcludedBranch) {
  map::Mapping m = MapText(
      "type Show = show[ Reviews* ] "
      "type Reviews = reviews[ (Nyt | Other) ] "
      "type Nyt = nyt[ String ] type Other = ~!nyt[ String ]");
  opt::RelQuery rq = Translate(
      m, "FOR $v IN document(\"d\")/show RETURN $v/reviews/nyt");
  // Only the Nyt branch matches the literal step; no tilde filter needed.
  ASSERT_EQ(rq.blocks.size(), 1u);
  EXPECT_TRUE(SqlContains(m, rq, "Nyt"));
  EXPECT_TRUE(rq.blocks[0].filters.empty());
  // A non-nyt tag goes to the Other branch with a tilde predicate.
  opt::RelQuery rq2 = Translate(
      m, "FOR $v IN document(\"d\")/show RETURN $v/reviews/suntimes");
  ASSERT_EQ(rq2.blocks.size(), 1u);
  EXPECT_TRUE(SqlContains(m, rq2, "Other"));
  ASSERT_EQ(rq2.blocks[0].filters.size(), 1u);
  EXPECT_EQ(rq2.blocks[0].filters[0].value.string_value, "suntimes");
}

// Same-named siblings, several wildcards and an attribute sharing an
// element's name: routes come in body order, literal matches before
// wildcard matches, and the plain-name attribute fallback only applies when
// no element matched.
TEST(Translate, SiblingRoutesFollowBodyOrder) {
  auto output = [](const map::Mapping& m, const opt::QueryBlock& b) {
    return b.rels[b.output[0].rel].alias + "." + ColumnName(m, b, b.output[0]);
  };
  {
    map::Mapping m = MapText("type T = t[ a[ String ], a[ Integer ] ]");
    opt::RelQuery rq =
        Translate(m, "FOR $v IN document(\"d\")/t RETURN $v/a");
    ASSERT_EQ(rq.blocks.size(), 2u);
    EXPECT_EQ(output(m, rq.blocks[0]), "T#0.a");
    EXPECT_EQ(output(m, rq.blocks[1]), "T#0.a_2");
  }
  {
    map::Mapping m = MapText("type T = t[ ~[ String ], ~[ Integer ] ]");
    opt::RelQuery rq =
        Translate(m, "FOR $v IN document(\"d\")/t RETURN $v/x");
    ASSERT_EQ(rq.blocks.size(), 2u);
    const char* tags[] = {"tilde", "tilde_2"};
    const char* columns[] = {"T#0.t", "T#0.t_2"};
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(output(m, rq.blocks[i]), columns[i]);
      ASSERT_EQ(rq.blocks[i].filters.size(), 1u);
      EXPECT_EQ(ColumnName(m, rq.blocks[i], rq.blocks[i].filters[0]),
            tags[i]);
      EXPECT_EQ(rq.blocks[i].filters[0].value.string_value, "x");
    }
  }
  {
    map::Mapping m =
        MapText("type T = t[ a[ String ], ~[ Integer ], @a[ String ] ]");
    opt::RelQuery rq =
        Translate(m, "FOR $v IN document(\"d\")/t RETURN $v/a");
    ASSERT_EQ(rq.blocks.size(), 2u);
    EXPECT_EQ(output(m, rq.blocks[0]), "T#0.a");
    EXPECT_TRUE(rq.blocks[0].filters.empty());
    EXPECT_EQ(output(m, rq.blocks[1]), "T#0.t");
    ASSERT_EQ(rq.blocks[1].filters.size(), 1u);
    EXPECT_EQ(ColumnName(m, rq.blocks[1], rq.blocks[1].filters[0]),
            "tilde");
    EXPECT_EQ(rq.blocks[1].filters[0].value.string_value, "a");
  }
}

TEST(Translate, StrictProjectionAddsNotNull) {
  map::Mapping m = MapText("type A = a[ x[ String ]?, y[ String ] ]");
  opt::RelQuery rq =
      Translate(m, "FOR $v IN document(\"d\")/a RETURN $v/x");
  ASSERT_EQ(rq.blocks.size(), 1u);
  ASSERT_EQ(rq.blocks[0].filters.size(), 1u);
  EXPECT_TRUE(rq.blocks[0].filters[0].not_null);
  // Required columns need no NOT NULL filter.
  opt::RelQuery rq2 =
      Translate(m, "FOR $v IN document(\"d\")/a RETURN $v/y");
  EXPECT_TRUE(rq2.blocks[0].filters.empty());
}

TEST(Translate, ValueJoinBecomesJoinEdge) {
  map::Mapping m = MapText(
      "type R = r[ A*, B* ] type A = a[ n[ String ] ] "
      "type B = b[ n[ String ] ]");
  opt::RelQuery rq = Translate(
      m,
      "FOR $r IN document(\"d\")/r FOR $a IN $r/a, $b IN $r/b "
      "WHERE $a/n = $b/n RETURN $a/n");
  ASSERT_EQ(rq.blocks.size(), 1u);
  // Two FK joins (R->A, R->B) plus the value join on n.
  EXPECT_EQ(rq.blocks[0].joins.size(), 3u);
}

TEST(Translate, SubqueryWithWhereSharesBlock) {
  map::Mapping m = MapText(
      "type Show = show[ t[ String ], Episodes* ] "
      "type Episodes = episodes[ gd[ String ] ]");
  opt::RelQuery rq = Translate(
      m,
      "FOR $v IN document(\"d\")/show RETURN $v/t, "
      "FOR $e IN $v/episodes WHERE $e/gd = c1 RETURN $e/gd");
  ASSERT_EQ(rq.blocks.size(), 1u);
  EXPECT_EQ(rq.blocks[0].rels.size(), 2u);
  ASSERT_EQ(rq.blocks[0].joins.size(), 1u);
  EXPECT_FALSE(rq.blocks[0].joins[0].left_outer);  // inner: WHERE present
}

TEST(Translate, SubqueryWithoutWhereIsLeftOuter) {
  map::Mapping m = MapText(
      "type Show = show[ t[ String ], Episodes* ] "
      "type Episodes = episodes[ gd[ String ] ]");
  opt::RelQuery rq = Translate(
      m,
      "FOR $v IN document(\"d\")/show RETURN $v/t, "
      "FOR $e IN $v/episodes RETURN $e/gd");
  ASSERT_EQ(rq.blocks.size(), 1u);
  ASSERT_EQ(rq.blocks[0].joins.size(), 1u);
  EXPECT_TRUE(rq.blocks[0].joins[0].left_outer);
}

TEST(Translate, UnfilteredPublishScansEachTableOnce) {
  map::Mapping m = MapText(
      "type Show = show[ t[ String ], Aka*, Episodes* ] "
      "type Aka = aka[ String ] type Episodes = episodes[ n[ String ] ]");
  opt::RelQuery rq =
      Translate(m, "FOR $v IN document(\"d\")/show RETURN $v");
  EXPECT_TRUE(rq.publish);
  // One scan block per table: Show, Aka, Episodes.
  ASSERT_EQ(rq.blocks.size(), 3u);
  for (const auto& b : rq.blocks) {
    EXPECT_EQ(b.rels.size(), 1u);
    EXPECT_TRUE(b.joins.empty());
  }
}

TEST(Translate, FilteredPublishJoinsDescendantChains) {
  map::Mapping m = MapText(
      "type Show = show[ t[ String ], Aka* ] type Aka = aka[ String ]");
  opt::RelQuery rq = Translate(
      m, "FOR $v IN document(\"d\")/show WHERE $v/t = c1 RETURN $v");
  EXPECT_TRUE(rq.publish);
  ASSERT_EQ(rq.blocks.size(), 2u);  // main + Aka chain
  // The Aka block restricts by the show filter via the FK join.
  const opt::QueryBlock& aka_block = rq.blocks[1];
  EXPECT_EQ(aka_block.rels.back().table, m.catalog().IndexOf("Aka"));
  EXPECT_FALSE(aka_block.joins.empty());
  EXPECT_FALSE(aka_block.filters.empty());
}

TEST(Translate, SharedChildTablesDumpedOnceAcrossPartitions) {
  map::Mapping m = MapText(
      "type R = r[ S* ] type S = (S1 | S2) "
      "type S1 = s[ x[ String ], Aka* ] type S2 = s[ y[ String ], Aka* ] "
      "type Aka = aka[ String ]");
  opt::RelQuery rq = Translate(m, "FOR $v IN document(\"d\")/r/s RETURN $v");
  // Blocks: S1, Aka, S2 — Aka only once despite two partitions.
  int aka_blocks = 0;
  for (const auto& b : rq.blocks) {
    if (b.rels[0].table == m.catalog().IndexOf("Aka")) ++aka_blocks;
  }
  EXPECT_EQ(aka_blocks, 1);
}

TEST(Translate, RecursiveNavigationJoinsSameTableTwice) {
  map::Mapping m = MapText("type N = n[ v[ Integer ], N* ]");
  opt::RelQuery rq = Translate(
      m, "FOR $a IN document(\"d\")/n, $b IN $a/n RETURN $b/v");
  ASSERT_EQ(rq.blocks.size(), 1u);
  EXPECT_EQ(rq.blocks[0].rels.size(), 2u);
  EXPECT_EQ(rq.blocks[0].rels[0].table, m.catalog().IndexOf("N"));
  EXPECT_EQ(rq.blocks[0].rels[1].table, m.catalog().IndexOf("N"));
  EXPECT_NE(rq.blocks[0].rels[0].alias, rq.blocks[0].rels[1].alias);
}

TEST(Translate, ImpossibleBindingYieldsNoBlocks) {
  map::Mapping m = MapText("type A = a[ x[ String ] ]");
  opt::RelQuery rq =
      Translate(m, "FOR $v IN document(\"d\")/a/zzz RETURN $v/x");
  EXPECT_TRUE(rq.blocks.empty());
}

TEST(Translate, ImdbQ13ProducesSixWayJoin) {
  auto annotated =
      xs::AnnotateSchema(*imdb::Schema(), *imdb::Stats());
  map::Mapping m = MapOf(ps::Normalize(annotated));
  opt::RelQuery rq = Translate(m, imdb::QueryText("Q13"));
  ASSERT_GE(rq.blocks.size(), 1u);
  // imdb, show, actor, played, director, directed, aka = 7 rels.
  EXPECT_EQ(rq.blocks[0].rels.size(), 7u);
  EXPECT_GE(rq.blocks[0].joins.size(), 6u);
}

// Appends the path of every element or attribute under body node `t`
// (prefix `prefix`) to `out`, at most `depth` more steps deep, following
// type references into the referenced bodies. A wildcard element takes the
// step "w", which the golden below also offers wildcard materialization.
void CollectPaths(const xs::Schema& schema, const xs::Type& t,
                  const std::string& prefix, int depth,
                  std::vector<std::string>* out) {
  auto extend = [&](const std::string& step) {
    return prefix.empty() ? step : prefix + "/" + step;
  };
  switch (t.kind) {
    case xs::Type::Kind::kElement: {
      std::string path = extend(
          t.name.kind == xs::NameClass::Kind::kLiteral ? t.name.name : "w");
      out->push_back(path);
      if (depth > 1) CollectPaths(schema, *t.child, path, depth - 1, out);
      return;
    }
    case xs::Type::Kind::kAttribute:
      out->push_back(extend("@" + t.name.name));
      return;
    case xs::Type::Kind::kSequence:
    case xs::Type::Kind::kUnion:
      for (const auto& c : t.children) {
        CollectPaths(schema, *c, prefix, depth, out);
      }
      return;
    case xs::Type::Kind::kRepetition:
      CollectPaths(schema, *t.child, prefix, depth, out);
      return;
    case xs::Type::Kind::kTypeRef:
      CollectPaths(schema, *schema.Get(t.ref_name), prefix, depth, out);
      return;
    default:
      return;
  }
}

// Pins the translation of every element and attribute path, and a publish,
// of 32 generated schemas under AllInlined, AllOutlined and every single
// move from either with all transforms on: each query's SQL in order and
// every catalog column name. Recorded before body positions were named by
// schema node instead of by path strings.
TEST(TranslateGolden, GeneratedSchemasMatchRecordedDigest) {
  core::TransformOptions moves;
  moves.union_distribute = true;
  moves.union_to_options = true;
  moves.repetition_split = true;
  moves.repetition_merge = true;
  moves.wildcard_materialize = true;
  moves.wildcard_tags = {"w"};
  uint64_t digest = 0;
  int configs = 0;
  int blocks = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    xs::Schema schema = SchemaFuzzer(seed).Generate();
    const xs::Type& root = *schema.Get(schema.root_type());
    ASSERT_EQ(root.kind, xs::Type::Kind::kElement);
    std::vector<std::string> paths;
    CollectPaths(schema, *root.child, "", 4, &paths);
    std::set<std::string> seen;
    std::vector<xq::Query> queries;
    std::string head =
        "FOR $v IN document(\"d\")/" + root.name.name + " RETURN $v";
    for (const std::string& path : paths) {
      if (!seen.insert(path).second) continue;
      auto q = xq::ParseQuery(head + "/" + path);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      queries.push_back(std::move(q).value());
    }
    auto publish = xq::ParseQuery(head);
    ASSERT_TRUE(publish.ok());
    queries.push_back(std::move(publish).value());

    std::vector<xs::Schema> candidates;
    for (const xs::Schema& start :
         {ps::AllInlined(schema), ps::AllOutlined(schema)}) {
      candidates.push_back(start);
      for (const auto& t : core::EnumerateTransformations(start, moves)) {
        auto next = core::ApplyTransformation(start, t);
        if (next.ok()) candidates.push_back(std::move(next).value());
      }
    }
    for (const xs::Schema& config : candidates) {
      auto mapping = map::MapSchema(config);
      ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
      ++configs;
      for (const rel::Table& table : mapping->catalog().tables()) {
        for (const auto& col : table.columns) {
          digest = common::HashString(col.name, digest);
        }
      }
      for (const xq::Query& q : queries) {
        auto rq = TranslateQuery(q, *mapping);
        ASSERT_TRUE(rq.ok()) << rq.status().ToString();
        digest = common::HashString(rq->ToSql(mapping->catalog()), digest);
        blocks += static_cast<int>(rq->blocks.size());
      }
    }
  }
  EXPECT_EQ(configs, 502);
  EXPECT_EQ(blocks, 11703);
  EXPECT_EQ(digest, 0x1f16577888c897baull);
}

}  // namespace
}  // namespace legodb::xlat
