#ifndef LEGODB_PSCHEMA_PSCHEMA_H_
#define LEGODB_PSCHEMA_PSCHEMA_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "xschema/schema.h"

namespace legodb::ps {

// --- Stratification (the paper's Figure 9) -------------------------------
//
// A schema is *physical* (a p-schema) when every named type body is a
// physical-type expression:
//   - scalars, attributes, literal/wildcard elements over physical content,
//     and sequences thereof are allowed inline;
//   - repetitions other than {0,1} may contain ONLY type references or
//     unions of type references;
//   - unions may contain ONLY type references;
//   - optionals ({0,1}) may contain physical content (mapped to nullable
//     columns) or type references.
// This guarantees the fixed mapping rel(ps) of Section 3.2 applies.

// Returns OK iff `schema` satisfies the stratified grammar.
Status CheckPhysical(const xs::Schema& schema);

// Rewrites `schema` into an equivalent p-schema by outlining the minimal set
// of sub-terms (every offending repetition/union operand gets a fresh named
// type). This is the constructive proof of the paper's claim that any XML
// Schema has an equivalent physical schema.
//
// Only the types whose bodies change are redefined: a body that is already
// physical keeps its nodes, and a rewritten one shares every subtree the
// rewrite left alone. The result never holds one inner node (element,
// attribute, sequence, union, repetition) at two positions, within a body
// or across bodies, because the mapper names body positions by node.
xs::Schema Normalize(xs::Schema schema);

// --- Initial configurations for the greedy search (Section 5.2) ----------

// All elements outlined (except base types): every nested element inside a
// type body becomes its own named type. Starting point of `greedy-so`.
xs::Schema AllOutlined(const xs::Schema& schema);

// All elements inlined except multi-valued ones (and recursive/shared
// types). Starting point of `greedy-si`. When `flatten_unions` is set,
// unions over element structures are first rewritten into sequences of
// optionals (the paper's "from union to options" rewriting), matching the
// ALL-INLINED configuration of Figure 4(a).
xs::Schema AllInlined(const xs::Schema& schema, bool flatten_unions = true);

// --- Primitive rewrites shared by the search -------------------------------

// A node position inside a type body: child indices from the body root.
// (For kElement/kAttribute/kRepetition nodes the single child is index 0.)
using NodePath = std::vector<int>;

// A copy of `type` whose inner nodes are all new (leaves stay shared). A
// rewrite that places a subtree at a second position of a schema places a
// copy: the mapper names body positions by node.
xs::TypePtr CopyNodes(const xs::TypePtr& type);

// Returns the node at `path` in `type`, or nullptr if out of range.
xs::TypePtr NodeAt(const xs::TypePtr& type, const NodePath& path);

// Replaces the node at `path` with `replacement`, rebuilding the spine.
xs::TypePtr ReplaceAt(const xs::TypePtr& type, const NodePath& path,
                      xs::TypePtr replacement);

// Outlines the element at `path` inside type `type_name`: the element moves
// to a fresh named type and is replaced by a reference to it. Returns the
// new schema and the generated type name via `out_new_type`.
StatusOr<xs::Schema> OutlineAt(const xs::Schema& schema,
                               const std::string& type_name,
                               const NodePath& path,
                               std::string* out_new_type = nullptr);

// Inlines (elides) named type `type_name`: its single reference is replaced
// by its body and the definition is removed. Fails if the type is the root,
// recursive, referenced more than once, or referenced from a non-inlinable
// position (inside a union or a repetition other than {0,1}).
StatusOr<xs::Schema> InlineType(const xs::Schema& schema,
                                const std::string& type_name);

// Candidate enumeration for the greedy search's move set.
struct OutlineCandidate {
  std::string type_name;
  NodePath path;
  std::string element_name;  // display only
};
std::vector<OutlineCandidate> EnumerateOutlineCandidates(
    const xs::Schema& schema);
std::vector<std::string> EnumerateInlineCandidates(const xs::Schema& schema);

}  // namespace legodb::ps

#endif  // LEGODB_PSCHEMA_PSCHEMA_H_
