#ifndef LEGODB_XQUERY_AST_H_
#define LEGODB_XQUERY_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace legodb::xq {

// A path expression rooted at a bound variable: $v/episode/guest_director.
struct PathExpr {
  std::string var;                 // without the '$'
  std::vector<std::string> steps;  // element/attribute names

  std::string ToString() const;
};

// A literal or symbolic constant. Symbolic constants (the paper's c1, c2,
// ...) stand for an unknown equality-lookup value: the optimizer costs them
// via distinct-value selectivity, and executions bind them via a parameter
// map.
struct Constant {
  enum class Kind { kSymbol, kInt, kString };
  Kind kind = Kind::kSymbol;
  std::string symbol;
  int64_t int_value = 0;
  std::string string_value;

  static Constant Symbol(std::string name);
  static Constant Int(int64_t v);
  static Constant Str(std::string v);
  std::string ToString() const;
  bool operator==(const Constant&) const = default;
};

// Comparison operators supported in WHERE clauses.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

// Renders the operator ("=", "!=", "<", ...).
const char* CompareOpName(CompareOp op);
// Applies the operator. Equality is exact typed equality; ordered
// comparisons require both operands non-null and of the same kind —
// mixed-kind or NULL operands satisfy no comparison (including !=).
bool ApplyCompare(CompareOp op, const Value& lhs, const Value& rhs);

// A comparison predicate: path <op> constant, or path = path (value join;
// joins support equality only).
struct Predicate {
  PathExpr lhs;
  CompareOp op = CompareOp::kEq;
  bool rhs_is_path = false;
  Constant rhs_const;
  PathExpr rhs_path;

  std::string ToString() const;
};

// FOR $var IN document("...")/a/b   or   FOR $var IN $w/c/d
struct ForBinding {
  std::string var;
  bool from_document = false;
  std::string source_var;          // when !from_document
  std::vector<std::string> steps;

  std::string ToString() const;
};

struct Query;

// One item of a RETURN clause.
struct ReturnItem {
  enum class Kind {
    kPath,      // $v/title  (or bare $v: publish the whole subtree)
    kSubquery,  // a nested FLWR correlated on outer variables
    kElement,   // <result> items </result> constructor
  };
  Kind kind = Kind::kPath;
  PathExpr path;
  std::shared_ptr<Query> subquery;
  std::string element_name;
  std::vector<ReturnItem> children;
};

// A FLWR query in the supported subset: one or more FOR clauses, an optional
// conjunctive WHERE of equality predicates, and a RETURN of paths, nested
// FLWRs and element constructors. Covers Q1-Q20 of the paper's Appendix C.
struct Query {
  std::vector<ForBinding> fors;
  std::vector<Predicate> where;
  std::vector<ReturnItem> ret;

  std::string ToString() const;

  // All return items flattened (element constructors transparent),
  // depth-first. Subqueries are NOT entered.
  std::vector<const ReturnItem*> FlatReturnItems() const;

  // True if any (recursively reachable) return item publishes a whole
  // variable subtree (bare `$v` path with no steps).
  bool IsPublish() const;
};

}  // namespace legodb::xq

#endif  // LEGODB_XQUERY_AST_H_
