#ifndef LEGODB_MAPPING_MAPPING_H_
#define LEGODB_MAPPING_MAPPING_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/catalog.h"
#include "xschema/schema.h"

namespace legodb::map {

// Path steps inside a type body use element names verbatim, "@name" for
// attributes, and "~" for wildcard elements. When the same step repeats
// among siblings (e.g. two wildcard elements in one sequence), later
// occurrences carry an ordinal suffix: "~", "~#2", "~#3", ... so slot
// coordinates stay unambiguous.
using RelPath = std::vector<std::string>;

// Strips the "#k" ordinal suffix from a path step.
std::string BaseStep(const std::string& step);

// A scalar (or wildcard-tag) position inside a type body that maps to a
// column of the type's table.
struct Slot {
  RelPath path;          // from the body root, including the root element
  std::string column;    // column name in the table
  // The body node whose value the slot holds: the element or attribute
  // directly around the scalar, the wildcard element itself for a tilde
  // slot, or null for a scalar directly at the body root. It is a node of
  // the Mapping's own schema, so it lives as long as the Mapping; the
  // shredder and reconstructor walk that schema and find slots by it.
  const xs::Type* node = nullptr;
  bool is_tilde = false;  // the tag-name column of a wildcard element
  // For tilde slots: the wildcard's name class ('~' or '~!a'), needed to
  // decide whether a literal query step can match this position.
  xs::NameClass wildcard_name;
  xs::TypePtr scalar;    // scalar type (nullptr for tilde slots)
  bool optional = false;  // sits under at least one optional
  double presence = 1.0;  // probability the column is non-null
};

// A reference to another named type inside a type body: becomes a
// parent/child table relationship with a foreign key in the child.
struct ChildRef {
  RelPath path;            // where the reference sits in the body
  std::string type_name;   // referenced (child) type
  double expected_per_parent = 1;  // average child rows per parent row
  bool optional = false;           // may be absent for a given parent
  uint32_t min_occurs = 1;
  uint32_t max_occurs = 1;
  bool in_union = false;  // reference is a union alternative
};

// How one named type maps to the relational configuration.
struct TypeMapping {
  std::string type_name;
  // Table name (same as type name); empty for virtual types.
  std::string table;
  // A type whose body is purely a union of type references (e.g.
  // `type Show = (Show_Part1 | Show_Part2)`) materializes no table of its
  // own; variables bound to it expand to the alternatives.
  bool virtual_union = false;
  std::vector<std::string> union_alternatives;  // when virtual_union

  std::vector<Slot> slots;
  std::vector<ChildRef> children;

  // Estimated number of instances (rows) of this type.
  double instance_count = 0;

  // Foreign keys of this type's table: (column, effective parent type).
  struct ParentLink {
    std::string fk_column;
    std::string parent_type;
    double expected_per_parent = 1;
  };
  std::vector<ParentLink> parents;

  // Column positions in this type's table, as the mapper lays it out: the
  // key first, then one column per slot in `slots` order, then one foreign
  // key per link in `parents` order. The lookups return -1 when no slot is
  // owned by `node` (or no link names `parent_type`).
  static constexpr int kKeyColumn = 0;
  int SlotColumn(const xs::Type* node, bool tilde) const;
  int ParentColumn(const std::string& parent_type) const;
};

// The full fixed mapping rel(ps) of Section 3.2: one relation per
// (non-virtual) named type, a key column per relation, a foreign key per
// parent type, a column per physical-type subelement — plus the translated
// statistics, packaged as a relational catalog.
class Mapping {
 public:
  const rel::Catalog& catalog() const { return catalog_; }
  const TypeMapping* FindType(const std::string& name) const;
  const TypeMapping& GetType(const std::string& name) const;
  const std::map<std::string, TypeMapping>& types() const { return types_; }
  const xs::Schema& schema() const { return schema_; }

  // Entry element names of a type: the tags its instances can start with
  // ("*" for wildcard). Descends through virtual unions.
  std::vector<std::string> EntryNames(const std::string& type_name) const;

 private:
  friend class Mapper;
  rel::Catalog catalog_;
  std::map<std::string, TypeMapping> types_;
  xs::Schema schema_;
};

// Maps a p-schema (must pass ps::CheckPhysical) to its relational
// configuration, translating the XML statistics into table/column
// statistics along the way.
StatusOr<Mapping> MapSchema(const xs::Schema& pschema);

}  // namespace legodb::map

#endif  // LEGODB_MAPPING_MAPPING_H_
