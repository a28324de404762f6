#ifndef LEGODB_CORE_TRANSFORMS_H_
#define LEGODB_CORE_TRANSFORMS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "pschema/pschema.h"
#include "xschema/schema.h"

namespace legodb::core {

// One applicable schema rewriting (Section 4.1), reified as a lightweight
// descriptor: transform kind + target type name + position parameters.
// Enumeration produces only descriptors — no candidate schema is built
// until a descriptor is applied — so the search can enumerate, dedupe, and
// schedule candidate moves cheaply and materialize schemas on demand.
struct TransformDescriptor {
  enum class Kind {
    kInline,               // elide a named type into its single use
    kOutline,              // give a nested element its own named type
    kUnionDistribute,      // (a,(b|c)) == (a,b | a,c) + distribution across
                           // the element: partitions the type (Fig. 4(c))
    kUnionToOptions,       // (t1|t2) ⊂ (t1?,t2?): inline union branches as
                           // nullable columns (lossy, from [19])
    kRepetitionSplit,      // a+ == a,a*: inline the first occurrence
    kRepetitionMerge,      // inverse of split
    kWildcardMaterialize,  // ~ == tag | ~!tag: partition wildcard content
  };

  Kind kind;
  std::string type_name;   // the type whose body is rewritten (or inlined)
  ps::NodePath path;       // position inside the body (kind-dependent)
  std::string tag;         // kWildcardMaterialize: tag to materialize

  // Compact canonical form, e.g. "outline:Show.0.2" — a stable identity
  // for logs, dedupe keys, and metrics.
  std::string Signature() const;

  // Human-readable description resolved against the schema the descriptor
  // was enumerated from (element names are looked up on demand rather than
  // stored in every descriptor).
  std::string Describe(const xs::Schema& schema) const;
};

// Which rewritings the search may propose. The paper's greedy prototype
// explores inlining/outlining; the other rewritings are explored separately
// (Section 5.4), which the per-figure benchmarks replicate.
struct TransformOptions {
  bool inline_types = true;
  bool outline_elements = true;
  bool union_distribute = false;
  bool union_to_options = false;
  bool repetition_split = false;
  bool repetition_merge = false;
  bool wildcard_materialize = false;
  // Candidate tags for wildcard materialization (taken from workload paths).
  std::vector<std::string> wildcard_tags;
};

// Descriptors of all single transformations applicable to `schema` (a
// p-schema). Cheap: no candidate schemas are materialized.
std::vector<TransformDescriptor> EnumerateTransformations(
    const xs::Schema& schema, const TransformOptions& options);

// Applies one descriptor; the result is normalized back to a p-schema.
StatusOr<xs::Schema> ApplyTransformation(const xs::Schema& schema,
                                         const TransformDescriptor& t);

}  // namespace legodb::core

#endif  // LEGODB_CORE_TRANSFORMS_H_
