// Unit tests for the schema/type module: type construction and printing,
// the algebra-notation parser, schema operations, statistics, the document
// validator, and statistics annotation.
#include <gtest/gtest.h>

#include "imdb/imdb.h"
#include "xml/parser.h"
#include "xschema/annotate.h"
#include "xschema/fingerprint.h"
#include "xschema/schema.h"
#include "xschema/schema_parser.h"
#include "xschema/stats.h"
#include "xschema/stats_collector.h"
#include "xschema/type.h"
#include "xschema/validator.h"

namespace legodb::xs {
namespace {

// ---- Type construction & printing ----

TEST(Type, FactoriesNormalize) {
  // Sequences flatten; singleton sequences collapse; empties elide.
  TypePtr t = Type::Sequence(
      {Type::String(), Type::Sequence({Type::Integer(), Type::Empty()})});
  ASSERT_EQ(t->kind, Type::Kind::kSequence);
  EXPECT_EQ(t->children.size(), 2u);

  EXPECT_EQ(Type::Sequence({})->kind, Type::Kind::kEmpty);
  EXPECT_EQ(Type::Sequence({Type::String()})->kind, Type::Kind::kScalar);
  EXPECT_EQ(Type::Union({Type::Ref("A")})->kind, Type::Kind::kTypeRef);
}

TEST(Type, UnionFlattens) {
  TypePtr t = Type::Union(
      {Type::Ref("A"), Type::Union({Type::Ref("B"), Type::Ref("C")})});
  ASSERT_EQ(t->kind, Type::Kind::kUnion);
  EXPECT_EQ(t->children.size(), 3u);
}

TEST(Type, RepetitionOfOneIsIdentity) {
  TypePtr t = Type::Repetition(Type::Ref("A"), 1, 1);
  EXPECT_EQ(t->kind, Type::Kind::kTypeRef);
}

TEST(Type, ExpectedCountPrefersAnnotation) {
  TypePtr t = Type::Repetition(Type::Ref("A"), 0, kUnbounded, 3.5);
  EXPECT_DOUBLE_EQ(t->ExpectedCount(), 3.5);
  TypePtr u = Type::Repetition(Type::Ref("A"), 2, 10);
  EXPECT_DOUBLE_EQ(u->ExpectedCount(), 6.0);  // midpoint
  TypePtr v = Type::Repetition(Type::Ref("A"), 0, kUnbounded);
  EXPECT_DOUBLE_EQ(v->ExpectedCount(), Type::kDefaultUnboundedCount);
}

TEST(Type, NameClassMatching) {
  EXPECT_TRUE(NameClass::Literal("a").Matches("a"));
  EXPECT_FALSE(NameClass::Literal("a").Matches("b"));
  EXPECT_TRUE(NameClass::Any().Matches("anything"));
  EXPECT_TRUE(NameClass::AnyExcept("nyt").Matches("suntimes"));
  EXPECT_FALSE(NameClass::AnyExcept("nyt").Matches("nyt"));
}

TEST(Type, ToStringMatchesPaperNotation) {
  TypePtr show = Type::Element(
      "show", Type::Sequence({Type::Attribute("type", Type::String()),
                              Type::Element("title", Type::String()),
                              Type::Repetition(Type::Ref("Aka"), 1, 10),
                              Type::Union({Type::Ref("Movie"), Type::Ref("TV")})}));
  EXPECT_EQ(show->ToString(),
            "show[ @type[ String ], title[ String ], Aka{1,10}, "
            "(Movie | TV) ]");
}

TEST(Type, ToStringOccurrenceSugar) {
  TypePtr a = Type::Ref("A");
  EXPECT_EQ(Type::Repetition(a, 0, kUnbounded)->ToString(), "A*");
  EXPECT_EQ(Type::Repetition(a, 1, kUnbounded)->ToString(), "A+");
  EXPECT_EQ(Type::Repetition(a, 0, 1)->ToString(), "A?");
  EXPECT_EQ(Type::Repetition(a, 2, kUnbounded)->ToString(), "A{2,*}");
}

TEST(Type, EqualityRespectsStats) {
  TypePtr a = Type::String(ScalarStats{50, 0, 0, 100});
  TypePtr b = Type::String(ScalarStats{50, 0, 0, 999});
  EXPECT_FALSE(TypeEquals(a, b));
  EXPECT_TRUE(TypeEqualsIgnoringStats(a, b));
}

// ---- Schema parser ----

TEST(SchemaParser, ParsesImdbSchema) {
  auto schema = ParseSchema(imdb::SchemaText());
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(schema->root_type(), "IMDB");
  EXPECT_TRUE(schema->Has("Show"));
  EXPECT_TRUE(schema->Has("Movie"));
  EXPECT_TRUE(schema->Validate().ok());
}

TEST(SchemaParser, ScalarStatistics) {
  auto t = ParseType("Integer<#4,#1800,#2100,#300>");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->scalar_stats.size, 4);
  EXPECT_EQ((*t)->scalar_stats.min, 1800);
  EXPECT_EQ((*t)->scalar_stats.max, 2100);
  EXPECT_EQ((*t)->scalar_stats.distincts, 300);

  auto s = ParseType("String<#50,#34798>");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->scalar_stats.size, 50);
  EXPECT_EQ((*s)->scalar_stats.distincts, 34798);
}

TEST(SchemaParser, OccurrenceAnnotations) {
  auto t = ParseType("Review*<#10>");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->kind, Type::Kind::kRepetition);
  EXPECT_DOUBLE_EQ((*t)->avg_count, 10);
}

TEST(SchemaParser, UnionHasLowerPrecedenceThanSequence) {
  auto t = ParseType("a[ String ], b[ String ] | c[ String ]");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ((*t)->kind, Type::Kind::kUnion);
  EXPECT_EQ((*t)->children[0]->kind, Type::Kind::kSequence);
  EXPECT_EQ((*t)->children[1]->kind, Type::Kind::kElement);
}

TEST(SchemaParser, WildcardForms) {
  auto t = ParseType("~[ String ]");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->name.kind, NameClass::Kind::kAny);

  auto e = ParseType("~!nyt[ String ]");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->name.kind, NameClass::Kind::kAnyExcept);
  EXPECT_EQ((*e)->name.name, "nyt");

  auto tilde = ParseType("TILDE[ String ]");  // Appendix-B spelling
  ASSERT_TRUE(tilde.ok());
  EXPECT_EQ((*tilde)->name.kind, NameClass::Kind::kAny);
}

TEST(SchemaParser, ElementVsTypeRefDisambiguation) {
  auto t = ParseType("aka[ String ], Aka{1,10}");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->children[0]->kind, Type::Kind::kElement);
  EXPECT_EQ((*t)->children[1]->kind, Type::Kind::kRepetition);
  EXPECT_EQ((*t)->children[1]->child->ref_name, "Aka");
}

TEST(SchemaParser, EmptyContentForms) {
  EXPECT_EQ((*ParseType("()"))->kind, Type::Kind::kEmpty);
  EXPECT_EQ((*ParseType("a[ ]"))->child->kind, Type::Kind::kEmpty);
}

TEST(SchemaParser, LineComments) {
  auto schema = ParseSchema("// header comment\ntype A = a[ String ] // end");
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->Has("A"));
}

TEST(SchemaParser, Errors) {
  EXPECT_FALSE(ParseSchema("").ok());
  EXPECT_FALSE(ParseSchema("type = a[ String ]").ok());
  EXPECT_FALSE(ParseSchema("type A = a[ String").ok());
  EXPECT_FALSE(ParseSchema("type A = a[ String ] type A = b[ String ]").ok());
  EXPECT_FALSE(ParseType("a{2,1}").ok());  // bounds out of order
  EXPECT_FALSE(ParseType("@[ String ]").ok());
}

// Property: printing a parsed schema and re-parsing yields an equal schema.
class ParsePrintFixpointTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(ParsePrintFixpointTest, Holds) {
  auto schema1 = ParseSchema(GetParam());
  ASSERT_TRUE(schema1.ok()) << schema1.status().ToString();
  std::string printed = schema1->ToString();
  auto schema2 = ParseSchema(printed);
  ASSERT_TRUE(schema2.ok()) << schema2.status().ToString() << "\n" << printed;
  ASSERT_EQ(schema1->type_names(), schema2->type_names());
  for (const auto& name : schema1->type_names()) {
    EXPECT_TRUE(TypeEquals(schema1->Get(name), schema2->Get(name)))
        << name << ": " << schema1->Get(name)->ToString() << " vs "
        << schema2->Get(name)->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemas, ParsePrintFixpointTest,
    ::testing::Values(
        "type A = a[ String<#10,#5> ]",
        "type A = a[ @k[ String ], (B | C)* ] type B = b[ Integer ] "
        "type C = c[ String ]",
        "type R = r[ R? ]",  // recursive
        "type W = ~!x[ String ]{2,7}<#3>",
        "type Root = root[ x[ y[ z[ Integer<#4,#-5,#5,#11> ] ] ]? ]"));

TEST(ParsePrintFixpoint, ImdbSchema) {
  auto schema1 = ParseSchema(imdb::SchemaText());
  ASSERT_TRUE(schema1.ok());
  auto schema2 = ParseSchema(schema1->ToString());
  ASSERT_TRUE(schema2.ok()) << schema2.status().ToString();
  for (const auto& name : schema1->type_names()) {
    EXPECT_TRUE(TypeEquals(schema1->Get(name), schema2->Get(name))) << name;
  }
}

// ---- Schema operations ----

// The names of types `indexes`.
std::vector<std::string> Names(const Schema& schema,
                               const std::vector<int>& indexes) {
  std::vector<std::string> names;
  for (int i : indexes) names.push_back(schema.name(i));
  return names;
}

TEST(Schema, ReferencesResolveToIndexesInPreOrder) {
  auto schema = *ParseSchema(
      "type A = a[ B, C* ] type B = b[ String ] type C = c[ B? ]");
  EXPECT_EQ(schema.type_names(), (std::vector<std::string>{"A", "B", "C"}));
  EXPECT_EQ(schema.refs(0), (std::vector<int>{1, 2}));
  EXPECT_TRUE(schema.refs(1).empty());
  EXPECT_EQ(schema.refs(2), (std::vector<int>{1}));
  EXPECT_EQ(schema.IndexOf("C"), 2);
  EXPECT_EQ(schema.IndexOf("D"), -1);
  EXPECT_EQ(schema.root(), 0);
}

TEST(Schema, ForwardReferenceResolvesWhenDefined) {
  Schema schema;
  schema.Define("A", Type::Element("a", Type::Sequence({Type::Ref("B"),
                                                         Type::Ref("B")})));
  EXPECT_EQ(schema.refs(0), (std::vector<int>{-1, -1}));
  EXPECT_FALSE(schema.Validate().ok());
  EXPECT_EQ(schema.Define("B", Type::Element("b", Type::Ref("A"))), 1);
  EXPECT_EQ(schema.refs(0), (std::vector<int>{1, 1}));
  EXPECT_EQ(schema.refs(1), (std::vector<int>{0}));
  EXPECT_TRUE(schema.Validate().ok());
  // A root named before it is defined resolves the same way.
  Schema late;
  late.set_root_type("R");
  EXPECT_EQ(late.root(), -1);
  late.Define("X", Type::Element("x", Type::String()));
  late.Define("R", Type::Element("r", Type::Ref("X")));
  EXPECT_EQ(late.root(), 1);
  EXPECT_EQ(Names(late, late.ReachableFromRoot()),
            (std::vector<std::string>{"R", "X"}));
}

TEST(Schema, RedefiningDropsAndAddsReferences) {
  auto schema = *ParseSchema(
      "type A = a[ B ] type B = b[ String ] type C = c[ String ]");
  EXPECT_EQ(schema.Define("A", Type::Element("a", Type::String())), 0);
  EXPECT_TRUE(schema.refs(0).empty());
  EXPECT_EQ(Names(schema, schema.ReachableFromRoot()),
            (std::vector<std::string>{"A"}));
  schema.Redefine(0, Type::Element("a", Type::Sequence({Type::Ref("C"),
                                                        Type::Ref("B")})));
  EXPECT_EQ(schema.refs(0), (std::vector<int>{2, 1}));
  EXPECT_EQ(Names(schema, schema.ReachableFromRoot()),
            (std::vector<std::string>{"A", "C", "B"}));
  EXPECT_EQ(schema.size(), 3u);
}

TEST(Schema, UndefineShiftsLaterIndexes) {
  auto schema = *ParseSchema(
      "type A = a[ B, C, D ] type B = b[ C ] type C = c[ D? ] "
      "type D = d[ String ]");
  schema.Undefine(schema.IndexOf("B"));
  EXPECT_EQ(schema.type_names(), (std::vector<std::string>{"A", "C", "D"}));
  EXPECT_EQ(schema.refs(0), (std::vector<int>{-1, 1, 2}));
  EXPECT_EQ(schema.refs(1), (std::vector<int>{2}));
  EXPECT_EQ(schema.IndexOf("B"), -1);
  EXPECT_EQ(schema.IndexOf("D"), 2);
  EXPECT_EQ(schema.name_order(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(schema.Validate().ToString(),
            "InvalidArgument: type 'A' references undefined type 'B'");
  // Defining the name again resolves the dangling reference.
  EXPECT_EQ(schema.Define("B", Type::Element("b", Type::String())), 3);
  EXPECT_EQ(schema.refs(0), (std::vector<int>{3, 1, 2}));
  EXPECT_TRUE(schema.Validate().ok());
  // Undefining the root leaves it named but unresolved.
  schema.Undefine(0);
  EXPECT_EQ(schema.root(), -1);
  EXPECT_EQ(schema.Validate().ToString(),
            "InvalidArgument: root type 'A' is not defined");
}

TEST(Schema, ReachableAndGarbageCollect) {
  auto schema = *ParseSchema(
      "type A = a[ C, B ] type Z = z[ B ] type B = b[ String ] "
      "type C = c[ A? ]");
  EXPECT_EQ(Names(schema, schema.ReachableFromRoot()),
            (std::vector<std::string>{"A", "C", "B"}));
  schema.GarbageCollect();
  EXPECT_FALSE(schema.Has("Z"));
  EXPECT_EQ(schema.type_names(), (std::vector<std::string>{"A", "B", "C"}));
  EXPECT_EQ(schema.refs(0), (std::vector<int>{2, 1}));
  EXPECT_EQ(schema.refs(2), (std::vector<int>{0}));
  EXPECT_EQ(schema.root(), 0);
  EXPECT_EQ(schema.IndexOf("C"), 2);
  EXPECT_TRUE(schema.Validate().ok());
}

TEST(Schema, RecursionDetection) {
  auto schema = *ParseSchema(
      "type A = a[ B? ] type B = b[ C, A? ] type C = c[ String ] "
      "type D = d[ D* ] type E = e[ A ]");
  EXPECT_TRUE(schema.IsRecursive(schema.IndexOf("A")));
  EXPECT_TRUE(schema.IsRecursive(schema.IndexOf("B")));
  EXPECT_FALSE(schema.IsRecursive(schema.IndexOf("C")));
  EXPECT_TRUE(schema.IsRecursive(schema.IndexOf("D")));
  // E reaches the A/B cycle but is not on it.
  EXPECT_FALSE(schema.IsRecursive(schema.IndexOf("E")));
  EXPECT_FALSE(schema.IsRecursive(-1));
}

TEST(Schema, FreshTypeName) {
  auto schema = *ParseSchema("type A = a[ String ]");
  EXPECT_EQ(schema.FreshTypeName("B"), "B");
  EXPECT_EQ(schema.FreshTypeName("A"), "A_2");
}

TEST(Schema, ValidateCatchesDanglingRefs) {
  Schema schema;
  schema.Define("A", Type::Element("a", Type::Ref("Missing")));
  EXPECT_FALSE(schema.Validate().ok());
}

// ---- Statistics ----

TEST(Stats, ParseAppendixNotation) {
  auto stats = ParseStats(
      "([\"imdb\";\"show\"], STcnt(34798));\n"
      "([\"imdb\";\"show\";\"title\"], STsize(50));\n"
      "([\"imdb\";\"show\";\"year\"], STbase(1800,2100,300));\n");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->Count({"imdb", "show"}), 34798);
  EXPECT_EQ(stats->Size({"imdb", "show", "title"}), 50);
  const PathStat* year = stats->Find({"imdb", "show", "year"});
  ASSERT_NE(year, nullptr);
  ASSERT_TRUE(year->base.has_value());
  EXPECT_EQ(year->base->min, 1800);
  EXPECT_EQ(year->base->max, 2100);
  EXPECT_EQ(year->base->distincts, 300);
}

TEST(Stats, EntriesForSamePathMerge) {
  auto stats = ParseStats(
      "([\"a\"], STcnt(5)); ([\"a\"], STsize(10));");
  ASSERT_TRUE(stats.ok());
  const PathStat* s = stats->Find({"a"});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(*s->count, 5);
  EXPECT_EQ(*s->size, 10);
}

TEST(Stats, ParseFullAppendixA) {
  auto stats = ParseStats(imdb::StatsText());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->Count({"imdb", "actor", "played"}), 663144);
  EXPECT_EQ(stats->Count({"imdb", "show", "reviews"}), 11250);
  EXPECT_EQ(stats->Size({"imdb", "show", "reviews", "TILDE"}), 800);
}

TEST(Stats, PrintParseRoundTrip) {
  auto stats1 = ParseStats(imdb::StatsText());
  ASSERT_TRUE(stats1.ok());
  auto stats2 = ParseStats(stats1->ToString());
  ASSERT_TRUE(stats2.ok()) << stats2.status().ToString();
  EXPECT_EQ(stats1->size(), stats2->size());
  for (const auto& [path, stat] : stats1->entries()) {
    const PathStat* other = stats2->Find(path);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(stat.count, other->count);
    EXPECT_EQ(stat.base, other->base);
  }
}

TEST(Stats, ParseErrors) {
  EXPECT_FALSE(ParseStats("([\"a\"], STwhat(1));").ok());
  EXPECT_FALSE(ParseStats("([\"a\", STcnt(1));").ok());
  EXPECT_FALSE(ParseStats("([\"a\"], STbase(1,2));").ok());
}

// ---- Statistics collector ----

TEST(StatsCollector, CountsSizesAndRanges) {
  auto doc = xml::ParseDocument(
      "<imdb><show><title>ab</title><year>1993</year></show>"
      "<show><title>cdef</title><year>2001</year></show></imdb>");
  ASSERT_TRUE(doc.ok());
  StatsCollector collector;
  collector.AddDocument(doc.value());
  StatsSet stats = collector.Finish();

  EXPECT_EQ(stats.Count({"imdb"}), 1);
  EXPECT_EQ(stats.Count({"imdb", "show"}), 2);
  EXPECT_EQ(stats.Size({"imdb", "show", "title"}), 3);  // avg(2,4)
  const PathStat* year = stats.Find({"imdb", "show", "year"});
  ASSERT_NE(year, nullptr);
  ASSERT_TRUE(year->base.has_value());
  EXPECT_EQ(year->base->min, 1993);
  EXPECT_EQ(year->base->max, 2001);
  EXPECT_EQ(year->base->distincts, 2);
}

TEST(StatsCollector, AttributesAndTildeAggregate) {
  auto doc = xml::ParseDocument(
      "<r><rev source=\"x\"><nyt>t1</nyt></rev><rev><sun>t2</sun></rev></r>");
  ASSERT_TRUE(doc.ok());
  StatsCollector collector;
  collector.AddDocument(doc.value());
  StatsSet stats = collector.Finish();
  EXPECT_EQ(stats.Count({"r", "rev", "source"}), 1);
  EXPECT_EQ(stats.Count({"r", "rev", "nyt"}), 1);
  // TILDE aggregates all children of rev regardless of tag.
  EXPECT_EQ(stats.Count({"r", "rev", "TILDE"}), 2);
}

// ---- Validator ----

Schema ImdbSchema() {
  auto schema = imdb::Schema();
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

TEST(Validator, AcceptsGeneratedDocuments) {
  imdb::ImdbScale scale;
  scale.shows = 8;
  scale.directors = 3;
  scale.actors = 4;
  for (uint64_t seed : {1u, 2u, 3u}) {
    scale.seed = seed;
    xml::Document doc = imdb::Generate(scale);
    EXPECT_TRUE(ValidateDocument(doc, ImdbSchema()).ok()) << "seed " << seed;
  }
}

TEST(Validator, RejectsWrongRootName) {
  auto doc = xml::ParseDocument("<not_imdb/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(ValidateDocument(doc.value(), ImdbSchema()).ok());
}

TEST(Validator, RejectsMissingRequiredChild) {
  // show requires a title.
  auto doc = xml::ParseDocument(
      "<imdb><show type=\"Movie\"><year>1990</year>"
      "<box_office>1</box_office><video_sales>2</video_sales></show></imdb>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(ValidateDocument(doc.value(), ImdbSchema()).ok());
}

TEST(Validator, RejectsNonIntegerContent) {
  auto doc = xml::ParseDocument(
      "<imdb><show type=\"Movie\"><title>t</title><year>not_a_year</year>"
      "<box_office>1</box_office><video_sales>2</video_sales></show></imdb>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(ValidateDocument(doc.value(), ImdbSchema()).ok());
}

TEST(Validator, RejectsUndeclaredAttribute) {
  auto doc = xml::ParseDocument(
      "<imdb><show type=\"Movie\" extra=\"x\"><title>t</title>"
      "<year>1990</year><box_office>1</box_office>"
      "<video_sales>2</video_sales></show></imdb>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(ValidateDocument(doc.value(), ImdbSchema()).ok());
}

TEST(Validator, RepetitionBounds) {
  auto schema = *ParseSchema("type A = a[ b[ String ]{2,3} ]");
  auto ok = xml::ParseDocument("<a><b>1</b><b>2</b></a>");
  EXPECT_TRUE(ValidateDocument(*ok, schema).ok());
  auto too_few = xml::ParseDocument("<a><b>1</b></a>");
  EXPECT_FALSE(ValidateDocument(*too_few, schema).ok());
  auto too_many = xml::ParseDocument("<a><b>1</b><b>2</b><b>3</b><b>4</b></a>");
  EXPECT_FALSE(ValidateDocument(*too_many, schema).ok());
}

TEST(Validator, UnionAlternatives) {
  auto schema = *ParseSchema(
      "type A = a[ (B | C) ] type B = b[ String ] type C = c[ Integer ]");
  EXPECT_TRUE(
      ValidateDocument(*xml::ParseDocument("<a><b>x</b></a>"), schema).ok());
  EXPECT_TRUE(
      ValidateDocument(*xml::ParseDocument("<a><c>5</c></a>"), schema).ok());
  EXPECT_FALSE(
      ValidateDocument(*xml::ParseDocument("<a><d>5</d></a>"), schema).ok());
  EXPECT_FALSE(ValidateDocument(*xml::ParseDocument("<a/>"), schema).ok());
}

TEST(Validator, WildcardExclusion) {
  auto schema = *ParseSchema("type A = a[ ~!nyt[ String ] ]");
  EXPECT_TRUE(
      ValidateDocument(*xml::ParseDocument("<a><sun>x</sun></a>"), schema)
          .ok());
  EXPECT_FALSE(
      ValidateDocument(*xml::ParseDocument("<a><nyt>x</nyt></a>"), schema)
          .ok());
}

TEST(Validator, RecursiveType) {
  auto schema = *ParseSchema("type N = n[ v[ Integer ], N* ]");
  EXPECT_TRUE(ValidateDocument(
                  *xml::ParseDocument(
                      "<n><v>1</v><n><v>2</v></n><n><v>3</v></n></n>"),
                  schema)
                  .ok());
  EXPECT_FALSE(ValidateDocument(
                   *xml::ParseDocument("<n><n><v>2</v></n></n>"), schema)
                   .ok());
}

TEST(Validator, BacktracksOverOptionals) {
  // (b?, b) requires matching the optional lazily.
  auto schema = *ParseSchema("type A = a[ b[ String ]?, b[ String ] ]");
  EXPECT_TRUE(
      ValidateDocument(*xml::ParseDocument("<a><b>1</b></a>"), schema).ok());
  EXPECT_TRUE(
      ValidateDocument(*xml::ParseDocument("<a><b>1</b><b>2</b></a>"), schema)
          .ok());
  EXPECT_FALSE(ValidateDocument(*xml::ParseDocument("<a/>"), schema).ok());
}

// ---- Annotation ----

TEST(Annotate, WeavesStatisticsIntoImdbSchema) {
  auto schema = ImdbSchema();
  auto stats = *ParseStats(imdb::StatsText());
  Schema annotated = AnnotateSchema(schema, stats);

  // Show: show[ @type[...], title[ String<#50,#34798> ], ... ].
  TypePtr show = annotated.Get("Show");
  TypePtr title = show->child->children[1];  // after the @type attribute
  ASSERT_EQ(title->name.name, "title");
  EXPECT_EQ(title->child->scalar_stats.size, 50);
  EXPECT_EQ(title->child->scalar_stats.distincts, 34798);

  // IMDB: Show* gets avg occurrences 34798 (one imdb root).
  TypePtr imdb_body = annotated.Get("IMDB");
  TypePtr shows_rep = imdb_body->child->children[0];
  ASSERT_EQ(shows_rep->kind, Type::Kind::kRepetition);
  EXPECT_DOUBLE_EQ(shows_rep->avg_count, 34798);
}

TEST(Annotate, UnionBranchWeightsFromStatistics) {
  auto schema = ImdbSchema();
  auto stats = *ParseStats(imdb::StatsText());
  Schema annotated = AnnotateSchema(schema, stats);
  TypePtr show = annotated.Get("Show");
  const TypePtr& union_node = show->child->children.back();
  ASSERT_EQ(union_node->kind, Type::Kind::kUnion);
  // Movie: min singleton count 7000 (box_office); TV: 3500 (seasons).
  EXPECT_NEAR(union_node->children[0]->ref_weight, 7000.0 / 10500, 1e-9);
  EXPECT_NEAR(union_node->children[1]->ref_weight, 3500.0 / 10500, 1e-9);
}

TEST(Annotate, RepetitionAveragesAreBranchLocal) {
  auto schema = ImdbSchema();
  auto stats = *ParseStats(imdb::StatsText());
  Schema annotated = AnnotateSchema(schema, stats);
  // Episodes live in the TV branch; their average is per TV show, not per
  // show: 31250 episodes / (34798 * tv_weight).
  TypePtr tv = annotated.Get("TV");
  const TypePtr& episodes_rep = tv->children.back();
  ASSERT_EQ(episodes_rep->kind, Type::Kind::kRepetition);
  double tv_instances = 34798 * (3500.0 / 10500);
  EXPECT_NEAR(episodes_rep->avg_count, 31250 / tv_instances, 1e-6);
}

TEST(Annotate, CollectorDrivenAnnotationIsConsistent) {
  auto schema = ImdbSchema();
  imdb::ImdbScale scale;
  scale.shows = 30;
  scale.directors = 10;
  scale.actors = 15;
  xml::Document doc = imdb::Generate(scale);
  StatsCollector collector;
  collector.AddDocument(doc);
  Schema annotated = AnnotateSchema(schema, collector.Finish());
  // Title sizes/distincts must reflect the generated data.
  TypePtr title = annotated.Get("Show")->child->children[1];
  EXPECT_GT(title->child->scalar_stats.size, 0);
  EXPECT_GT(title->child->scalar_stats.distincts, 0);
  EXPECT_LE(title->child->scalar_stats.distincts, 30);
}

// ---- Schema fingerprints ----

TEST(Fingerprint, StableAcrossIdenticalParses) {
  auto a = ParseSchema(imdb::SchemaText());
  auto b = ParseSchema(imdb::SchemaText());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(FingerprintSchema(a.value()), FingerprintSchema(b.value()));
  EXPECT_EQ(FingerprintType(a->Get("Show")), FingerprintType(b->Get("Show")));
}

// Each type's body fingerprint is taken when the body is defined and
// travels with the type through every renumbering.
TEST(Fingerprint, StoredWithEachDefinition) {
  auto parsed = ParseSchema("type R = r[ A, B* ] type A = a[ String ] "
                            "type B = b[ Integer ] type Junk = j[ String ]");
  ASSERT_TRUE(parsed.ok());
  Schema s = parsed.value();
  auto expect_stored = [](const Schema& schema) {
    for (int i = 0; i < static_cast<int>(schema.size()); ++i) {
      EXPECT_EQ(schema.body_fingerprint(i), FingerprintType(schema.body(i)))
          << schema.name(i);
    }
  };
  expect_stored(s);
  s.Redefine(s.IndexOf("A"), Type::Element("a", Type::Integer()));
  s.Define("C", Type::Element("c", Type::String()));
  expect_stored(s);
  s.Undefine(s.IndexOf("A"));
  expect_stored(s);
  s.GarbageCollect();
  EXPECT_FALSE(s.Has("Junk"));
  expect_stored(s);
}

TEST(Fingerprint, SensitiveToStructureNamesAndStats) {
  auto base = ParseSchema("type R = r[ a[ String<#8,#100> ], B* ] "
                          "type B = b[ Integer<#4,#0,#9,#10> ]");
  ASSERT_TRUE(base.ok());
  uint64_t fp = FingerprintSchema(base.value());

  // A statistics-only change (distincts 100 -> 101) changes the print AND
  // the fingerprint: stats feed the cost model.
  auto stats = ParseSchema("type R = r[ a[ String<#8,#101> ], B* ] "
                           "type B = b[ Integer<#4,#0,#9,#10> ]");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(fp, FingerprintSchema(stats.value()));

  // A structural change (a -> a?) changes the fingerprint.
  auto opt = ParseSchema("type R = r[ a[ String<#8,#100> ]?, B* ] "
                         "type B = b[ Integer<#4,#0,#9,#10> ]");
  ASSERT_TRUE(opt.ok());
  EXPECT_NE(fp, FingerprintSchema(opt.value()));

  // A renamed type changes the fingerprint (names become relations).
  auto renamed = ParseSchema("type R = r[ a[ String<#8,#100> ], C* ] "
                             "type C = b[ Integer<#4,#0,#9,#10> ]");
  ASSERT_TRUE(renamed.ok());
  EXPECT_NE(fp, FingerprintSchema(renamed.value()));
}

TEST(Fingerprint, IgnoresUnreachableAndDeclarationOrder) {
  auto base = ParseSchema("type R = r[ A ] type A = a[ String ]");
  ASSERT_TRUE(base.ok());

  // An unreachable definition does not affect the fingerprint.
  Schema with_junk = base.value();
  with_junk.Define("Junk", Type::Element("junk", Type::String()));
  EXPECT_EQ(FingerprintSchema(base.value()), FingerprintSchema(with_junk));

  // Reordered declarations (same root) fingerprint identically.
  Schema reordered;
  reordered.Define("A", base->Get("A"));
  reordered.Define("R", base->Get("R"));
  reordered.set_root_type("R");
  EXPECT_EQ(FingerprintSchema(base.value()), FingerprintSchema(reordered));
}

}  // namespace
}  // namespace legodb::xs

