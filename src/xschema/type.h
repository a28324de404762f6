#ifndef LEGODB_XSCHEMA_TYPE_H_
#define LEGODB_XSCHEMA_TYPE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace legodb::xs {

// Scalar data types of the XML Query Algebra subset the paper uses.
enum class ScalarKind { kString, kInteger };

// Statistics attached to scalar occurrences, per the paper's p-schema
// annotations: String<#size,#distincts> and
// Integer<#size,#min,#max,#distincts>, mirroring Appendix A's STsize/STbase.
struct ScalarStats {
  // Average stored size in bytes (string length; 4/8 for integers).
  double size = 0;
  // Value range, meaningful for integers (STbase min/max).
  int64_t min = 0;
  int64_t max = 0;
  // Number of distinct values; 0 means unknown.
  int64_t distincts = 0;

  bool operator==(const ScalarStats&) const = default;
};

// An element name pattern: a literal tag, the wildcard '~' (any name), or
// '~!a' (any name except `a`), following the paper's Section 4.1 notation.
struct NameClass {
  enum class Kind { kLiteral, kAny, kAnyExcept };

  static NameClass Literal(std::string name) {
    return NameClass{Kind::kLiteral, std::move(name)};
  }
  static NameClass Any() { return NameClass{Kind::kAny, ""}; }
  static NameClass AnyExcept(std::string name) {
    return NameClass{Kind::kAnyExcept, std::move(name)};
  }

  bool is_wildcard() const { return kind != Kind::kLiteral; }
  bool Matches(std::string_view tag) const;
  // Renders as the paper writes it: "show", "~", "~!nyt".
  std::string ToString() const;

  Kind kind = Kind::kLiteral;
  std::string name;

  bool operator==(const NameClass&) const = default;
};

struct Type;
// Types are immutable and shared: schema rewrites rebuild only the path from
// the root of a type expression to the modified node, sharing the rest.
using TypePtr = std::shared_ptr<const Type>;

// Sentinel for unbounded repetition ({n,*}).
inline constexpr uint32_t kUnbounded = std::numeric_limits<uint32_t>::max();

// A type expression in the XML Query Algebra notation of the paper
// (Section 2 / Appendix B):
//
//   t ::= ()                          empty content
//       | String | Integer            scalars (with statistics)
//       | name [ t ]                  element (name may be a wildcard)
//       | @name [ t ]                 attribute
//       | t , t                       sequence
//       | t | t                       union
//       | t {m,n}                     repetition (?, *, + are sugar)
//       | T                           reference to a named type
struct Type {
  enum class Kind {
    kEmpty,
    kScalar,
    kElement,
    kAttribute,
    kSequence,
    kUnion,
    kRepetition,
    kTypeRef,
  };

  // --- Factories (the only way to build types). ---
  static TypePtr Empty();
  static TypePtr Scalar(ScalarKind kind, ScalarStats stats = {});
  static TypePtr String(ScalarStats stats = {});
  static TypePtr Integer(ScalarStats stats = {});
  static TypePtr Element(NameClass name, TypePtr content);
  static TypePtr Element(const std::string& name, TypePtr content);
  static TypePtr Attribute(std::string name, TypePtr content);
  // Flattens nested sequences and elides empties; returns Empty() for zero
  // items and the single item for one.
  static TypePtr Sequence(std::vector<TypePtr> items);
  // Flattens nested unions; returns the single alternative for one.
  static TypePtr Union(std::vector<TypePtr> alternatives);
  // `avg_count` is the paper's *<#count> annotation: average number of
  // occurrences per parent instance (0 = unknown, estimated from bounds).
  static TypePtr Repetition(TypePtr item, uint32_t min, uint32_t max,
                            double avg_count = 0);
  static TypePtr Optional(TypePtr item);  // {0,1}
  static TypePtr Ref(std::string type_name);
  // A reference carrying a relative branch weight (used when the reference
  // is a union alternative; weights derive from path statistics).
  static TypePtr RefWeighted(std::string type_name, double weight);

  Kind kind = Kind::kEmpty;

  // kScalar
  ScalarKind scalar_kind = ScalarKind::kString;
  ScalarStats scalar_stats;

  // kElement (name) / kAttribute (name.name is the attribute name)
  NameClass name;

  // kElement, kAttribute: content; kRepetition: repeated item.
  TypePtr child;

  // kSequence (items), kUnion (alternatives)
  std::vector<TypePtr> children;

  // kRepetition
  uint32_t min_occurs = 1;
  uint32_t max_occurs = 1;
  double avg_count = 0;

  // kTypeRef
  std::string ref_name;
  // Relative branch weight when this ref is a union alternative (0 =
  // unknown; the mapping then splits branches evenly).
  double ref_weight = 0;

  // --- Queries ---
  bool is_optional_rep() const {
    return kind == Kind::kRepetition && min_occurs == 0 && max_occurs == 1;
  }
  // Expected number of occurrences of a repetition per parent: the stats
  // annotation when present, else the midpoint of the bounds (unbounded
  // repetitions default to kDefaultUnboundedCount).
  double ExpectedCount() const;

  // Renders in the paper's notation, e.g. "show [ @type[ String ], Aka{1,10} ]".
  std::string ToString() const;

  static constexpr double kDefaultUnboundedCount = 10.0;
};

// Deep structural equality (statistics included).
bool TypeEquals(const TypePtr& a, const TypePtr& b);

// Deep structural equality ignoring statistics annotations.
bool TypeEqualsIgnoringStats(const TypePtr& a, const TypePtr& b);

}  // namespace legodb::xs

#endif  // LEGODB_XSCHEMA_TYPE_H_
