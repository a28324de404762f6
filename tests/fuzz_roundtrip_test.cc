// Property tests over randomly generated schemas and documents:
//  - generated documents validate against their schema,
//  - schema print -> parse is a fixpoint,
//  - for each derived configuration (normalized / all-inlined /
//    all-outlined), shred -> reconstruct is the identity,
//  - transformations preserve validity of the generated documents.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/transforms.h"
#include "mapping/mapping.h"
#include "pschema/pschema.h"
#include "schema_fuzzer.h"
#include "storage/reconstruct.h"
#include "storage/shredder.h"
#include "xml/writer.h"
#include "xschema/schema.h"
#include "xschema/schema_parser.h"
#include "xschema/validator.h"

namespace legodb {
namespace {

using xs::Schema;

class FuzzRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzRoundTrip, GeneratedDocumentsValidate) {
  SchemaFuzzer fuzzer(GetParam());
  Schema schema = fuzzer.Generate();
  ASSERT_TRUE(schema.Validate().ok()) << schema.ToString();
  xml::Document doc;
  doc.root = fuzzer.GenerateDocument(schema);
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

TEST_P(FuzzRoundTrip, ShredReconstructIdentityAcrossConfigs) {
  SchemaFuzzer fuzzer(GetParam());
  Schema schema = fuzzer.Generate();
  xml::Document doc;
  doc.root = fuzzer.GenerateDocument(schema);
  std::string original = xml::Serialize(doc);

  const Schema configs[] = {ps::Normalize(schema), ps::AllInlined(schema),
                            ps::AllOutlined(schema)};
  for (const Schema& config : configs) {
    ASSERT_TRUE(ps::CheckPhysical(config).ok()) << config.ToString();
    auto mapping = map::MapSchema(config);
    ASSERT_TRUE(mapping.ok()) << mapping.status().ToString();
    store::Database db(mapping->catalog());
    Status st = store::ShredDocument(doc, mapping.value(), &db);
    ASSERT_TRUE(st.ok()) << st.ToString() << "\nconfig:\n"
                         << config.ToString() << "\ndoc:\n"
                         << original;
    auto rebuilt = store::ReconstructDocument(&db, mapping.value());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(original, xml::Serialize(rebuilt.value()))
        << "config:\n"
        << config.ToString();
  }
}

TEST_P(FuzzRoundTrip, TransformationsPreserveValidity) {
  SchemaFuzzer fuzzer(GetParam());
  Schema schema = fuzzer.Generate();
  xml::Document doc;
  doc.root = fuzzer.GenerateDocument(schema);
  Schema normalized = ps::Normalize(schema);
  ASSERT_TRUE(xs::ValidateDocument(doc, normalized).ok());

  core::TransformOptions options;
  options.union_distribute = true;
  options.repetition_split = true;
  options.repetition_merge = true;
  for (const auto& t : core::EnumerateTransformations(normalized, options)) {
    auto out = core::ApplyTransformation(normalized, t);
    if (!out.ok()) continue;
    EXPECT_TRUE(xs::ValidateDocument(doc, out.value()).ok())
        << t.Describe(normalized) << "\nbefore:\n"
        << normalized.ToString() << "\nafter:\n"
        << out->ToString() << "\ndoc:\n"
        << xml::Serialize(doc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRoundTrip,
                         ::testing::Range<uint64_t>(1, 33));

}  // namespace
}  // namespace legodb
