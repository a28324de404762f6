#ifndef LEGODB_XSCHEMA_SCHEMA_H_
#define LEGODB_XSCHEMA_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "xschema/type.h"

namespace legodb::xs {

// A named collection of type definitions with a designated root type,
// mirroring the paper's `type T = ...` declarations (Appendix B). The first
// defined type is the root unless overridden.
//
// The types form one table in declaration order; a type's index is its
// position there. Each type keeps the indexes its body's type references
// resolve to, in pre-order (a node, its child, then its children), -1 for
// an undefined name, and its body's fingerprint (xs::FingerprintType). Only
// the mutating calls resolve and hash: Define also patches earlier
// references to a new name, Undefine and GarbageCollect renumber.
// Const methods are pure reads, safe from concurrent threads. Names stay
// for display and for names arriving from outside (IndexOf, Has, Find,
// Get).
class Schema {
 public:
  // Defines or replaces a named type and returns its index. The first
  // definition becomes the root.
  int Define(const std::string& name, TypePtr type);
  void Redefine(int index, TypePtr type);
  // Removes a type (used when inlining elides one): later types move down
  // one index, and references to it read as undefined.
  void Undefine(int index);

  // The index of `name`, or -1.
  int IndexOf(const std::string& name) const;
  bool Has(const std::string& name) const { return IndexOf(name) >= 0; }
  // The body of `name`; when undefined, Find returns null and Get aborts.
  TypePtr Find(const std::string& name) const;
  TypePtr Get(const std::string& name) const;

  size_t size() const { return types_.size(); }
  const std::string& name(int index) const { return types_[index].name; }
  const TypePtr& body(int index) const { return types_[index].body; }
  const std::vector<int>& refs(int index) const { return types_[index].refs; }
  // FingerprintType(body(index)), computed when the body was defined.
  uint64_t body_fingerprint(int index) const {
    return types_[index].fingerprint;
  }
  // Type indexes sorted by name.
  const std::vector<int>& name_order() const { return by_name_; }

  const std::string& root_type() const { return root_type_; }
  // The root's index, or -1 while the root type is undefined.
  int root() const { return root_; }
  void set_root_type(std::string name);

  // Names in declaration order (stable across rewrites; new types append).
  std::vector<std::string> type_names() const;

  // Generates a type name not yet in use, derived from `base`
  // (e.g. "Review", "Review_2", ...).
  std::string FreshTypeName(const std::string& base) const;

  // Types reachable from the root via type references, in depth-first
  // pre-order (the root first).
  std::vector<int> ReachableFromRoot() const;

  // Drops definitions not reachable from the root.
  void GarbageCollect();

  // True if type `index` participates in a reference cycle (recursive
  // type); false for -1.
  bool IsRecursive(int index) const;

  // Verifies every type reference resolves and the root is defined.
  Status Validate() const;

  // Renders all definitions in the paper's notation.
  std::string ToString() const;

 private:
  struct TypeDef {
    std::string name;
    TypePtr body;
    std::vector<int> refs;
    uint64_t fingerprint = 0;
  };

  // Marks in `seen` (and appends to `order`, if given) the types reachable
  // from `index` (none for -1) not yet seen, in pre-order.
  void Visit(int index, std::vector<char>* seen, std::vector<int>* order) const;
  // Keeps the types `keep` marks, renumbering every index.
  void Compact(const std::vector<char>& keep);

  std::string root_type_;
  int root_ = -1;
  std::vector<TypeDef> types_;
  std::vector<int> by_name_;
};

}  // namespace legodb::xs

#endif  // LEGODB_XSCHEMA_SCHEMA_H_
