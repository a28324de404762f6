// Schema explorer: walks through the paper's Section-4.1 rewritings one by
// one on the IMDB schema, printing the schema and the derived relational
// configuration before and after each, plus the costs of a probe workload.
// Useful for understanding what each transformation does to the storage.
//
//   ./examples/schema_explorer
#include <cstdio>

#include "core/cost.h"
#include "core/transforms.h"
#include "imdb/imdb.h"
#include "mapping/mapping.h"
#include "pschema/pschema.h"
#include "xschema/annotate.h"

using namespace legodb;

namespace {

void Show(const char* title, const xs::Schema& schema,
          const core::Workload& probe) {
  std::printf("---- %s ----\n%s\n", title, schema.ToString().c_str());
  auto mapping = map::MapSchema(schema);
  if (!mapping.ok()) {
    std::printf("(mapping failed: %s)\n\n",
                mapping.status().ToString().c_str());
    return;
  }
  std::printf("%zu tables, %.1f MB estimated data\n",
              mapping->catalog().size(),
              mapping->catalog().TotalBytes() / 1e6);
  auto cost = core::CostSchema(schema, probe, opt::CostParams{});
  if (cost.ok()) {
    std::printf("probe workload cost: %.1f\n", cost->total);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  auto raw = imdb::Schema();
  auto stats = imdb::Stats();
  if (!raw.ok() || !stats.ok()) return 1;
  xs::Schema annotated = xs::AnnotateSchema(raw.value(), stats.value());
  xs::Schema base = ps::Normalize(annotated);

  core::Workload probe;
  for (const char* q : {"Q1", "Q4", "Q16"}) {
    if (!probe.Add(q, imdb::QueryText(q), 1.0).ok()) return 1;
  }

  Show("initial physical schema PS0 (normalized Appendix B)", base, probe);

  // Enumerate one applicable instance of each structural rewriting and show
  // its effect.
  struct Case {
    core::TransformDescriptor::Kind kind;
    const char* title;
  };
  Case cases[] = {
      {core::TransformDescriptor::Kind::kInline, "inlining (one step)"},
      {core::TransformDescriptor::Kind::kUnionDistribute,
       "union distribution (Show -> Show_Part | Show_Part_2)"},
      {core::TransformDescriptor::Kind::kUnionToOptions,
       "union to options (lossy: branches become nullable columns)"},
      {core::TransformDescriptor::Kind::kWildcardMaterialize,
       "wildcard materialization (~ == nyt | ~!nyt)"},
  };
  for (const Case& c : cases) {
    core::TransformOptions options;
    options.inline_types = c.kind == core::TransformDescriptor::Kind::kInline;
    options.outline_elements = false;
    options.union_distribute =
        c.kind == core::TransformDescriptor::Kind::kUnionDistribute;
    options.union_to_options =
        c.kind == core::TransformDescriptor::Kind::kUnionToOptions;
    options.wildcard_materialize =
        c.kind == core::TransformDescriptor::Kind::kWildcardMaterialize;
    options.wildcard_tags = {"nyt"};
    bool applied = false;
    for (const auto& t : core::EnumerateTransformations(base, options)) {
      if (t.kind != c.kind) continue;
      auto out = core::ApplyTransformation(base, t);
      if (!out.ok()) continue;
      std::printf("==== %s ====\napplied: %s\n\n", c.title,
                  t.Describe(base).c_str());
      Show("resulting schema", out.value(), probe);
      applied = true;
      break;
    }
    if (!applied) std::printf("==== %s ====\n(not applicable)\n\n", c.title);
  }
  return 0;
}
