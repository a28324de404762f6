// Unit and property tests for the schema transformations of Section 4.1.
// The central property: every transformation (except the deliberately lossy
// union-to-options) preserves the set of valid documents.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/transforms.h"
#include "imdb/imdb.h"
#include "pschema/pschema.h"
#include "xml/parser.h"
#include "xschema/schema_parser.h"
#include "xschema/validator.h"

namespace legodb::core {
namespace {

using xs::ParseSchema;
using xs::Schema;
using Kind = TransformDescriptor::Kind;

Schema S(const char* text) {
  auto schema = ParseSchema(text);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return ps::Normalize(schema.value());
}

std::vector<TransformDescriptor> Enumerate(const Schema& s, bool all = true) {
  TransformOptions options;
  options.inline_types = all;
  options.outline_elements = all;
  options.union_distribute = all;
  options.union_to_options = all;
  options.repetition_split = all;
  options.repetition_merge = all;
  options.wildcard_materialize = all;
  options.wildcard_tags = {"nyt"};
  return EnumerateTransformations(s, options);
}

const TransformDescriptor* FindKind(const std::vector<TransformDescriptor>& ts,
                                    Kind kind) {
  for (const auto& t : ts) {
    if (t.kind == kind) return &t;
  }
  return nullptr;
}

// ---- Union distribution ----

TEST(UnionDistribute, PartitionsTheType) {
  Schema s = S("type R = r[ S* ] "
               "type S = s[ common[ String ], (M | T) ] "
               "type M = box[ Integer ] type T = seasons[ Integer ]");
  auto ts = Enumerate(s);
  const TransformDescriptor* t = FindKind(ts, Kind::kUnionDistribute);
  ASSERT_NE(t, nullptr);
  auto out = ApplyTransformation(s, *t);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->Has("S_Part"));
  EXPECT_TRUE(out->Has("S_Part_2"));
  // S becomes a virtual union; the alternatives' content is folded in.
  EXPECT_EQ(out->Get("S")->kind, xs::Type::Kind::kUnion);
  std::string part1 = out->Get("S_Part")->ToString();
  EXPECT_NE(part1.find("box"), std::string::npos);
  EXPECT_NE(part1.find("common"), std::string::npos);
  EXPECT_FALSE(out->Has("M"));  // folded into the part
}

TEST(UnionDistribute, MatchesPaperShowExample) {
  Schema s = ps::Normalize(*imdb::Schema());
  auto ts = Enumerate(s);
  const TransformDescriptor* t = nullptr;
  for (const auto& cand : ts) {
    if (cand.kind == Kind::kUnionDistribute &&
        cand.type_name == "Show") {
      t = &cand;
    }
  }
  ASSERT_NE(t, nullptr);
  auto out = ApplyTransformation(s, *t);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Show = (Show_Part | Show_Part_2), one with box_office, one with seasons.
  std::string p1 = out->Get("Show_Part")->ToString();
  std::string p2 = out->Get("Show_Part_2")->ToString();
  EXPECT_NE(p1.find("box_office"), std::string::npos);
  EXPECT_EQ(p1.find("seasons"), std::string::npos);
  EXPECT_NE(p2.find("seasons"), std::string::npos);
  EXPECT_EQ(p2.find("box_office"), std::string::npos);
}

// ---- Union to options ----

TEST(UnionToOptions, InlinesBranchesAsOptionals) {
  Schema s = S("type R = r[ (M | T) ] "
               "type M = box[ Integer ] type T = seasons[ Integer ]");
  auto ts = Enumerate(s);
  const TransformDescriptor* t = FindKind(ts, Kind::kUnionToOptions);
  ASSERT_NE(t, nullptr);
  auto out = ApplyTransformation(s, *t);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::string body = out->Get("R")->ToString();
  EXPECT_NE(body.find("box[ Integer ]?"), std::string::npos);
  EXPECT_NE(body.find("seasons[ Integer ]?"), std::string::npos);
  EXPECT_FALSE(out->Has("M"));
}

TEST(UnionToOptions, IsLossyButGeneralizes) {
  // (M | T) ⊂ (M?, T?): every document valid before stays valid after.
  Schema before = S("type R = r[ (M | T) ] "
                    "type M = box[ Integer ] type T = seasons[ Integer ]");
  auto ts = Enumerate(before);
  auto out = ApplyTransformation(
      before, *FindKind(ts, Kind::kUnionToOptions));
  ASSERT_TRUE(out.ok());
  auto doc_m = xml::ParseDocument("<r><box>1</box></r>");
  auto doc_both = xml::ParseDocument("<r><box>1</box><seasons>2</seasons></r>");
  EXPECT_TRUE(xs::ValidateDocument(doc_m.value(), before).ok());
  EXPECT_TRUE(xs::ValidateDocument(doc_m.value(), out.value()).ok());
  // The lossy direction: both branches together only valid AFTER.
  EXPECT_FALSE(xs::ValidateDocument(doc_both.value(), before).ok());
  EXPECT_TRUE(xs::ValidateDocument(doc_both.value(), out.value()).ok());
}

// ---- Repetition split / merge ----

TEST(RepetitionSplit, PeelsFirstOccurrence) {
  Schema s = S("type R = r[ Aka{1,10} ] type Aka = aka[ String ]");
  auto ts = Enumerate(s);
  const TransformDescriptor* t =
      FindKind(ts, Kind::kRepetitionSplit);
  ASSERT_NE(t, nullptr);
  auto out = ApplyTransformation(s, *t);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  std::string body = out->Get("R")->ToString();
  EXPECT_NE(body.find("aka[ String ], Aka{0,9}"), std::string::npos);
}

TEST(RepetitionSplit, UnboundedStaysUnbounded) {
  Schema s = S("type R = r[ Aka+ ] type Aka = aka[ String ]");
  auto ts = Enumerate(s);
  auto out = ApplyTransformation(
      s, *FindKind(ts, Kind::kRepetitionSplit));
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->Get("R")->ToString().find("aka[ String ], Aka*"),
            std::string::npos);
}

TEST(RepetitionSplit, NotOfferedForOptionalRepetitions) {
  Schema s = S("type R = r[ Aka{0,10} ] type Aka = aka[ String ]");
  auto ts = Enumerate(s);
  EXPECT_EQ(FindKind(ts, Kind::kRepetitionSplit), nullptr);
}

TEST(RepetitionMerge, InvertsSplit) {
  Schema s = S("type R = r[ Aka{1,10} ] type Aka = aka[ String ]");
  auto ts = Enumerate(s);
  auto split = ApplyTransformation(
      s, *FindKind(ts, Kind::kRepetitionSplit));
  ASSERT_TRUE(split.ok());
  auto ts2 = Enumerate(split.value());
  const TransformDescriptor* merge =
      FindKind(ts2, Kind::kRepetitionMerge);
  ASSERT_NE(merge, nullptr);
  auto back = ApplyTransformation(split.value(), *merge);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(
      xs::TypeEqualsIgnoringStats(back->Get("R"), s.Get("R")));
}

// ---- Wildcard materialization ----

TEST(WildcardMaterialize, SplitsTagFromRest) {
  Schema s = S("type R = r[ Rev* ] type Rev = rev[ ~[ String ] ]");
  auto ts = Enumerate(s);
  const TransformDescriptor* t =
      FindKind(ts, Kind::kWildcardMaterialize);
  ASSERT_NE(t, nullptr);
  auto out = ApplyTransformation(s, *t);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out->Has("Nyt"));
  ASSERT_TRUE(out->Has("OtherNyt"));
  EXPECT_EQ(out->Get("Nyt")->name.name, "nyt");
  EXPECT_EQ(out->Get("OtherNyt")->name.kind,
            xs::NameClass::Kind::kAnyExcept);
}

TEST(WildcardMaterialize, NotOfferedForExclusionWildcards) {
  Schema s = S("type R = r[ W ] type W = ~!x[ String ]");
  auto ts = Enumerate(s);
  EXPECT_EQ(FindKind(ts, Kind::kWildcardMaterialize), nullptr);
}

// ---- Enumeration hygiene ----

TEST(Enumeration, RespectsOptionFlags) {
  Schema s = ps::Normalize(*imdb::Schema());
  TransformOptions none;
  none.inline_types = false;
  none.outline_elements = false;
  EXPECT_TRUE(EnumerateTransformations(s, none).empty());
}

TEST(Enumeration, RootTypeNeverDistributed) {
  Schema s = S("type R = (A | B) type A = a[ String ] type B = b[ String ]");
  auto ts = Enumerate(s);
  EXPECT_EQ(FindKind(ts, Kind::kUnionDistribute), nullptr);
}

TEST(Enumeration, DescriptionsAreInformative) {
  Schema s = ps::Normalize(*imdb::Schema());
  std::set<std::string> signatures;
  for (const auto& t : Enumerate(s)) {
    EXPECT_FALSE(t.Describe(s).empty());
    EXPECT_FALSE(t.Signature().empty());
    // Signatures are a stable identity: distinct descriptors, distinct keys.
    EXPECT_TRUE(signatures.insert(t.Signature()).second) << t.Signature();
  }
}

// ---- The preservation property ----
//
// For every applicable transformation (except union-to-options, which only
// guarantees one direction), documents valid under the original schema are
// valid under the transformed schema and vice versa. We check the forward
// direction on generated IMDB documents and the structure of candidates.
TEST(Preservation, AllTransformationsPreserveImdbValidity) {
  Schema s = ps::Normalize(*imdb::Schema());
  imdb::ImdbScale scale;
  scale.shows = 8;
  scale.directors = 3;
  scale.actors = 4;
  xml::Document doc = imdb::Generate(scale);
  ASSERT_TRUE(xs::ValidateDocument(doc, s).ok());

  int applied = 0;
  for (const auto& t : Enumerate(s)) {
    auto out = ApplyTransformation(s, t);
    if (!out.ok()) continue;  // some enumerated moves can be inapplicable
    ++applied;
    EXPECT_TRUE(ps::CheckPhysical(out.value()).ok()) << t.Describe(s);
    EXPECT_TRUE(xs::ValidateDocument(doc, out.value()).ok())
        << t.Describe(s) << "\n"
        << out->ToString();
  }
  EXPECT_GT(applied, 10);
}

TEST(Preservation, ChainsOfTransformationsPreserveValidity) {
  // Apply five transformations in sequence, checking validity after each.
  Schema s = ps::Normalize(*imdb::Schema());
  imdb::ImdbScale scale;
  scale.shows = 6;
  scale.directors = 2;
  scale.actors = 3;
  scale.seed = 99;
  xml::Document doc = imdb::Generate(scale);
  for (int step = 0; step < 5; ++step) {
    auto ts = Enumerate(s);
    ASSERT_FALSE(ts.empty());
    // Pick a deterministic but varied candidate.
    const TransformDescriptor& t = ts[(step * 7) % ts.size()];
    auto out = ApplyTransformation(s, t);
    if (!out.ok()) continue;
    std::string desc = t.Describe(s);
    s = std::move(out).value();
    ASSERT_TRUE(xs::ValidateDocument(doc, s).ok())
        << "after step " << step << ": " << desc;
  }
}

}  // namespace
}  // namespace legodb::core
