#ifndef LEGODB_XQUERY_EVALUATOR_H_
#define LEGODB_XQUERY_EVALUATOR_H_

#include <map>
#include <string>
#include <string_view>

#include "common/status.h"
#include "xml/dom.h"
#include "xquery/ast.h"
#include "xquery/result.h"

namespace legodb::xq {

// Evaluates a query directly over the XML document tree. This is the
// reference ("ground truth") semantics used to validate the relational
// translation: shred + SQL execution must return the same rows.
//
// Result-shaping semantics (matched exactly by the relational translator):
//  - FOR clauses iterate; a binding with no matches contributes no rows.
//  - WHERE predicates are existential equality over path matches; integer
//    text compares numerically.
//  - Each return path item contributes one column; multiple matches expand
//    into multiple rows (cartesian with the other items); zero matches
//    yield NULL.
//  - A bare `$v` return item publishes the serialized subtree as a string.
//  - A nested FLWR return item joins its rows with the outer row; if it has
//    a WHERE clause it filters the outer row (inner join), otherwise an
//    outer row with no inner matches keeps NULLs (left outer join).
//
// `params` binds the symbolic constants (c1, c2, ...).
StatusOr<ResultSet> EvaluateOnDocument(
    const Query& query, const xml::Document& doc,
    const std::map<std::string, Value>& params = {});

// Canonical scalar value of an XML text: integers parse as Int, everything
// else is Str.
Value CanonicalValue(std::string_view text);

// Column labels a query produces (also used by the relational executor).
std::vector<std::string> QueryLabels(const Query& query);

}  // namespace legodb::xq

#endif  // LEGODB_XQUERY_EVALUATOR_H_
