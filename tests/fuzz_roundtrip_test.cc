// Property tests over randomly generated schemas and documents:
//  - generated documents validate against their schema,
//  - schema print -> parse is a fixpoint,
//  - for each derived configuration (normalized / all-inlined /
//    all-outlined / each single move of the normalized schema, and each
//    merge of a split), shred -> reconstruct is the identity on both the
//    memory and the paged backend,
//  - the generated schemas offer union distribution and merges,
//  - transformations preserve validity of the generated documents,
//  - a hand-written schema round-trips through every single move kind.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/transforms.h"
#include "mapping/mapping.h"
#include "pschema/pschema.h"
#include "schema_fuzzer.h"
#include "storage/database.h"
#include "storage/reconstruct.h"
#include "storage/shredder.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xschema/schema.h"
#include "xschema/schema_parser.h"
#include "xschema/validator.h"

namespace legodb {
namespace {

using xs::Schema;
using Kind = core::TransformDescriptor::Kind;

class FuzzRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzRoundTrip, GeneratedDocumentsValidate) {
  SchemaFuzzer fuzzer(GetParam());
  Schema schema = fuzzer.Generate();
  ASSERT_TRUE(schema.Validate().ok()) << schema.ToString();
  xml::Document doc = fuzzer.GenerateDocument(schema);
  Status st = xs::ValidateDocument(doc, schema);
  EXPECT_TRUE(st.ok()) << st.ToString() << "\nschema:\n"
                       << schema.ToString() << "\ndoc:\n"
                       << xml::Serialize(doc);
}

TEST_P(FuzzRoundTrip, PrintParseFixpoint) {
  SchemaFuzzer fuzzer(GetParam());
  Schema schema = fuzzer.Generate();
  auto reparsed = xs::ParseSchema(schema.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << schema.ToString();
  for (const auto& name : schema.type_names()) {
    EXPECT_TRUE(xs::TypeEquals(schema.Get(name), reparsed->Get(name)))
        << name;
  }
}

// The single moves both transformation tests apply: the search's default
// inline/outline plus union distribution and repetition split and merge,
// whose distributed and ordinal-suffixed layouts the shredder and
// reconstructor must resolve.
core::TransformOptions SingleMoves() {
  core::TransformOptions options;
  options.union_distribute = true;
  options.repetition_split = true;
  options.repetition_merge = true;
  return options;
}

// Shreds `doc` into `config`'s mapping, once into memory and once into
// small pages behind an 8-page pool, and expects both reconstructions to
// serialize back to `original`.
void ExpectRoundTrip(const Schema& config, const xml::Document& doc,
                     const std::string& original, const std::string& label) {
  SCOPED_TRACE(label + "\nconfig:\n" + config.ToString());
  ASSERT_TRUE(ps::CheckPhysical(config).ok());
  auto mapping = map::MapSchema(config);
  ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
  for (const store::StorageOptions& storage :
       {store::StorageOptions::Memory(),
        store::StorageOptions::Paged(512, 8)}) {
    store::Database db(mapping->catalog(), storage);
    SCOPED_TRACE(db.paged() ? "paged" : "memory");
    Status st = store::ShredDocument(doc, mapping.value(), &db);
    ASSERT_TRUE(st.ok()) << st.ToString() << "\ndoc:\n" << original;
    auto rebuilt = store::ReconstructDocument(&db, mapping.value());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(original, xml::Serialize(rebuilt.value()));
  }
}

// Round-trips every single move of `normalized` that applies, and every
// merge of each split it makes; returns how many of each kind it ran.
std::map<Kind, int> RoundTripSingleMoves(const Schema& normalized,
                                         const xml::Document& doc,
                                         const std::string& original) {
  std::map<Kind, int> ran;
  for (const auto& t :
       core::EnumerateTransformations(normalized, SingleMoves())) {
    auto out = core::ApplyTransformation(normalized, t);
    if (!out.ok()) continue;
    ++ran[t.kind];
    ExpectRoundTrip(out.value(), doc, original, t.Describe(normalized));
    if (t.kind != Kind::kRepetitionSplit) continue;
    for (const auto& m :
         core::EnumerateTransformations(out.value(), SingleMoves())) {
      if (m.kind != Kind::kRepetitionMerge) continue;
      auto merged = core::ApplyTransformation(out.value(), m);
      if (!merged.ok()) continue;
      ++ran[m.kind];
      ExpectRoundTrip(merged.value(), doc, original, m.Describe(out.value()));
    }
  }
  return ran;
}

TEST_P(FuzzRoundTrip, ShredReconstructIdentityAcrossConfigs) {
  SchemaFuzzer fuzzer(GetParam());
  Schema schema = fuzzer.Generate();
  xml::Document doc = fuzzer.GenerateDocument(schema);
  std::string original = xml::Serialize(doc);

  Schema normalized = ps::Normalize(schema);
  ExpectRoundTrip(normalized, doc, original, "normalized");
  ExpectRoundTrip(ps::AllInlined(schema), doc, original, "all inlined");
  ExpectRoundTrip(ps::AllOutlined(schema), doc, original, "all outlined");
  RoundTripSingleMoves(normalized, doc, original);
}

// Over the seeds the suite runs, the generated schemas put unions of refs
// in non-root types, so union distribution (and a merge of a split) is
// enumerated and round-tripped, not only the inline/outline moves.
TEST(FuzzMoveCoverage, SeedsOneToThirtyTwoDistributeAndMerge) {
  std::map<Kind, int> ran;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SchemaFuzzer fuzzer(seed);
    Schema schema = fuzzer.Generate();
    xml::Document doc = fuzzer.GenerateDocument(schema);
    const std::string original = xml::Serialize(doc);
    for (const auto& [kind, n] :
         RoundTripSingleMoves(ps::Normalize(schema), doc, original)) {
      ran[kind] += n;
    }
  }
  std::printf("round-tripped: %d inline, %d outline, %d distribute, %d split, "
              "%d merge\n",
              ran[Kind::kInline], ran[Kind::kOutline],
              ran[Kind::kUnionDistribute], ran[Kind::kRepetitionSplit],
              ran[Kind::kRepetitionMerge]);
  EXPECT_GT(ran[Kind::kUnionDistribute], 0);
  EXPECT_GT(ran[Kind::kRepetitionMerge], 0);
}

TEST_P(FuzzRoundTrip, TransformationsPreserveValidity) {
  SchemaFuzzer fuzzer(GetParam());
  Schema schema = fuzzer.Generate();
  xml::Document doc = fuzzer.GenerateDocument(schema);
  Schema normalized = ps::Normalize(schema);
  ASSERT_TRUE(xs::ValidateDocument(doc, normalized).ok());

  for (const auto& t :
       core::EnumerateTransformations(normalized, SingleMoves())) {
    auto out = core::ApplyTransformation(normalized, t);
    if (!out.ok()) continue;
    EXPECT_TRUE(xs::ValidateDocument(doc, out.value()).ok())
        << t.Describe(normalized) << "\nbefore:\n"
        << normalized.ToString() << "\nafter:\n"
        << out->ToString() << "\ndoc:\n"
        << xml::Serialize(doc);
  }
}

// The generated schemas rarely offer union distribution or a merge, so one
// hand-written schema covers them: a distributable union in S, a splittable
// S{1,3}, and two wildcard siblings whose steps are "~" and "~#2".
TEST(SingleMoveRoundTrip, DistributedSplitMergedAndOrdinalLayouts) {
  auto parsed = xs::ParseSchema(
      "type R = r[ S{1,3}, ~[ String ], ~[ Integer ] ] "
      "type S = s[ common[ String ], (M | T) ] "
      "type M = box[ Integer ] type T = seasons[ Integer ]");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Schema normalized = ps::Normalize(parsed.value());
  auto doc = xml::ParseDocument(
      "<r><s><common>a</common><box>1</box></s>"
      "<s><common>b</common><seasons>2</seasons></s><p>x</p><q>3</q></r>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const std::string original = xml::Serialize(doc.value());

  std::set<core::TransformDescriptor::Kind> kinds;
  for (const auto& t :
       core::EnumerateTransformations(normalized, SingleMoves())) {
    auto out = core::ApplyTransformation(normalized, t);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    kinds.insert(t.kind);
    ExpectRoundTrip(out.value(), doc.value(), original,
                    t.Describe(normalized));
    if (t.kind != core::TransformDescriptor::Kind::kRepetitionSplit) continue;
    // Merging the split back exercises the merge move.
    for (const auto& m :
         core::EnumerateTransformations(out.value(), SingleMoves())) {
      if (m.kind != core::TransformDescriptor::Kind::kRepetitionMerge) {
        continue;
      }
      auto merged = core::ApplyTransformation(out.value(), m);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      kinds.insert(m.kind);
      ExpectRoundTrip(merged.value(), doc.value(), original,
                      m.Describe(out.value()));
    }
  }
  EXPECT_TRUE(kinds.count(core::TransformDescriptor::Kind::kUnionDistribute));
  EXPECT_TRUE(kinds.count(core::TransformDescriptor::Kind::kRepetitionSplit));
  EXPECT_TRUE(kinds.count(core::TransformDescriptor::Kind::kRepetitionMerge));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRoundTrip,
                         ::testing::Range<uint64_t>(1, 33));

}  // namespace
}  // namespace legodb
