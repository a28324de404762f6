#ifndef LEGODB_MAPPING_MAPPING_H_
#define LEGODB_MAPPING_MAPPING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/catalog.h"
#include "xschema/schema.h"

namespace legodb::map {

// A position inside a type body is named by its schema node: the element
// or attribute that owns it, or null at the body root. The nodes belong to
// the Mapping's own schema, so they live as long as the Mapping; shredding,
// reconstruction, query translation and update costing all find slots and
// references by them.

// A scalar (or wildcard-tag) position inside a type body that maps to a
// column of the type's table (TypeMapping::ColumnOf).
struct Slot {
  // The body node whose value the slot holds: the element or attribute
  // directly around the scalar, the wildcard element itself for a tilde
  // slot, or null for a scalar directly at the body root.
  const xs::Type* node = nullptr;
  bool is_tilde = false;  // the tag-name column of a wildcard element
  xs::TypePtr scalar;    // scalar type (nullptr for tilde slots)
  bool optional = false;  // sits under at least one optional
  double presence = 1.0;  // probability the column is non-null
};

// A reference to another named type inside a type body: becomes a
// parent/child table relationship with a foreign key in the child.
struct ChildRef {
  // The innermost element or attribute around the reference, or null at
  // the body root.
  const xs::Type* node = nullptr;
  int type = -1;  // the referenced (child) type's index
  double expected_per_parent = 1;  // average child rows per parent row
  bool optional = false;           // may be absent for a given parent
  uint32_t min_occurs = 1;
  uint32_t max_occurs = 1;
  bool in_union = false;  // reference is a union alternative
};

// How one named type maps to the relational configuration.
struct TypeMapping {
  std::string type_name;
  // The type's body in the Mapping's schema, and the fingerprint the
  // schema stored for it (xs::Schema::body_fingerprint).
  const xs::Type* body = nullptr;
  uint64_t body_fingerprint = 0;
  // Its table's catalog index (named after the type); -1 when virtual.
  int table = -1;
  // A type whose body is purely a union of type references (e.g.
  // `type Show = (Show_Part1 | Show_Part2)`) materializes no table of its
  // own; variables bound to it expand to the alternatives.
  bool virtual_union = false;
  std::vector<int> union_alternatives;  // type indexes, when virtual_union

  std::vector<Slot> slots;
  // One per type reference in the body, in body order.
  std::vector<ChildRef> children;

  // How a path enters an instance of this type, in the order entry tries
  // them: the body's top-level elements that hold a slot, in body order,
  // then in `children` order those that hold only references and the
  // references at the body root, through which a path enters the
  // referenced type instead (`hop`).
  struct Entry {
    const xs::Type* node = nullptr;  // top-level element; null for a hop
    int hop = -1;                    // the hop's type index
  };
  std::vector<Entry> entries;

  // Estimated number of instances (rows) of this type.
  double instance_count = 0;

  // The effective parent types' indexes, one per foreign key of this
  // type's table.
  std::vector<int> parents;

  // The slot owned by `node` (the tag slot of a wildcard when `tilde`), or
  // null.
  const Slot* FindSlot(const xs::Type* node, bool tilde) const;

  // Column positions in this type's table, as the mapper lays it out: the
  // key first (rel::Table::kKeyColumn), then one column per slot in `slots`
  // order, then one foreign key per entry of `parents`. ColumnOf takes one
  // of `slots`; the lookups return -1 when no slot is owned by `node` (or
  // `parents` does not hold type `parent`).
  int ColumnOf(const Slot& slot) const {
    return rel::Table::kKeyColumn + 1 + static_cast<int>(&slot - slots.data());
  }
  int SlotColumn(const xs::Type* node, bool tilde) const;
  int ParentColumn(int parent) const;
};

// One way a path step proceeds from a body position: to position `node` of
// `type`, after entering the non-virtual types in `entered` in order (each
// referenced from the one before, the first from the starting type; empty
// when the step stays in the starting type's inlined content). `tilde` is
// the tag slot of the wildcard the step matched, whose column must then
// equal the step.
struct Move {
  std::vector<const TypeMapping*> entered;
  const TypeMapping* type = nullptr;
  const xs::Type* node = nullptr;
  const Slot* tilde = nullptr;
};

// The full fixed mapping rel(ps) of Section 3.2: one relation per
// (non-virtual) named type, a key column per relation, a foreign key per
// parent type, a column per physical-type subelement — plus the translated
// statistics, packaged as a relational catalog.
//
// The mapped types are the schema's types reachable from its root, numbered
// once in name order: a type's index is its position in types(), and every
// link between mapped types (ChildRef::type, union_alternatives,
// Entry::hop, parents) is such an index. Names remain for display, DDL and
// SQL; a column's name lives only in the catalog.
class Mapping {
 public:
  const rel::Catalog& catalog() const { return catalog_; }
  const std::vector<TypeMapping>& types() const { return types_; }
  const TypeMapping& type(int index) const { return types_[index]; }
  // The index of `tm`, which must be one of types().
  int Index(const TypeMapping& tm) const {
    return static_cast<int>(&tm - types_.data());
  }
  // The root type's index.
  int root() const { return root_; }
  // Entry points by name: the type named `name`, or null (GetType aborts).
  const TypeMapping* FindType(const std::string& name) const;
  const TypeMapping& GetType(const std::string& name) const;
  const xs::Schema& schema() const { return schema_; }

  // The navigator that query translation and update costing share.
  //
  // The position the first step `step` of a document() path names: the
  // root type's first top-level element with that literal tag, or null
  // when there is none or it holds no content.
  const xs::Type* RootPosition(const std::string& step) const;
  // Appends to `out` every way step `step` proceeds from position `at` (an
  // element or attribute node) of non-virtual type `tm`, in route order: elements named `step` in body
  // order, then wildcards that admit it in body order, then (when no
  // element matched) an attribute of that name, then entries into each
  // type referenced at `at`, in `children` order. An "@name" step only
  // reaches the attribute. Only positions holding content are reached.
  // When `read` is given, the index of every type the step looked into
  // (each one entered, virtual unions and hops included, whether or not it
  // admitted the step) is appended to it.
  void Step(const TypeMapping& tm, const xs::Type* at, const std::string& step,
            std::vector<Move>* out, std::vector<int>* read = nullptr) const;

 private:
  friend class Mapper;
  // Appends the entries of type `type` (virtual unions expanded) that
  // admit `step`, having entered `entered` before it.
  void Enter(int type, const std::string& step,
             std::vector<const TypeMapping*>* entered, int depth,
             std::vector<Move>* out, std::vector<int>* read) const;

  rel::Catalog catalog_;
  std::vector<TypeMapping> types_;  // sorted by type_name
  int root_ = -1;
  xs::Schema schema_;
};

// Maps a p-schema (must pass ps::CheckPhysical) to its relational
// configuration, translating the XML statistics into table/column
// statistics along the way.
StatusOr<Mapping> MapSchema(const xs::Schema& pschema);

}  // namespace legodb::map

#endif  // LEGODB_MAPPING_MAPPING_H_
