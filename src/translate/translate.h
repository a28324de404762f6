#ifndef LEGODB_TRANSLATE_TRANSLATE_H_
#define LEGODB_TRANSLATE_TRANSLATE_H_

#include <vector>

#include "common/status.h"
#include "mapping/mapping.h"
#include "optimizer/plan.h"
#include "xquery/ast.h"

namespace legodb::xlat {

// Translates an XQuery (the supported FLWR subset) into relational query
// blocks against the relational configuration of `mapping` — the
// Query/Schema Translation module of Figure 7.
//
// Semantics (mirroring xquery::EvaluateOnDocument):
//  - each FOR variable binds to a named type; when a binding resolves to a
//    union of types (a union-distributed schema), the query splits into one
//    block per combination of alternatives (UNION ALL);
//  - path steps that stay inside one type's inlined content become column
//    accesses; steps that cross a type reference become foreign-key joins;
//  - steps through wildcard positions add equality predicates on the
//    `tilde` tag-name column;
//  - WHERE predicates become filters (constants) or join edges (path=path);
//    a block whose predicate path cannot exist in its union alternative is
//    pruned;
//  - return paths that cross type references use left outer joins (a
//    missing value yields NULL, like the DOM evaluator); nested FLWR return
//    items translate into the same block — left outer when they have no
//    WHERE clause, inner otherwise;
//  - a bare `$v` return item marks a publish query: the result contains one
//    block per table reachable from the variable's type (the variable's own
//    table plus each descendant), each block joining the binding context
//    down to that table and outputting all its columns. This is the
//    outer-union document-reconstruction strategy.
//
// Known approximations (documented in DESIGN.md): predicate paths that
// cross multi-valued type references use regular joins rather than
// semi-joins, so existential duplicates can arise; FOR bindings to inlined
// optional elements do not filter absent rows.
StatusOr<opt::RelQuery> TranslateQuery(const xq::Query& query,
                                       const map::Mapping& mapping);

// The mapped types one translation read, by index, in reading order and
// possibly repeated.
struct TypeReads {
  // The types the result stands on: the root, each type a path step moved
  // into (and each one it joined on the way) and each type a publish walk
  // visited. The result depends on their bodies, names, instance counts
  // and parent links (through their tables' statistics and foreign keys).
  std::vector<int> used;
  // The types a path step looked into for an entry (map::Mapping::Step's
  // `read`), virtual unions and hops included, whether or not one matched.
  // For those not also used, the result depends only on their names and
  // entries: the entries' element names, hops and union alternatives.
  std::vector<int> entered;
};

// As above, and records in `reads` the mapped types the translation read.
// A configuration that agrees with this one on everything those types
// contribute translates `query` to the same blocks over tables with the
// same statistics.
StatusOr<opt::RelQuery> TranslateQuery(const xq::Query& query,
                                       const map::Mapping& mapping,
                                       TypeReads* reads);

}  // namespace legodb::xlat

#endif  // LEGODB_TRANSLATE_TRANSLATE_H_
