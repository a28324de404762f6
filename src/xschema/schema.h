#ifndef LEGODB_XSCHEMA_SCHEMA_H_
#define LEGODB_XSCHEMA_SCHEMA_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "xschema/type.h"

namespace legodb::xs {

// A named collection of type definitions with a designated root type,
// mirroring the paper's `type T = ...` declarations (Appendix B). The first
// defined type is the root unless overridden.
class Schema {
 public:
  Schema() = default;

  // Defines or replaces a named type. The first definition becomes the root.
  void Define(const std::string& name, TypePtr type);
  // Removes a type definition (used when inlining elides a type).
  void Undefine(const std::string& name);

  bool Has(const std::string& name) const { return types_.count(name) > 0; }
  // Returns nullptr if not defined.
  TypePtr Find(const std::string& name) const;
  // Aborts if not defined.
  TypePtr Get(const std::string& name) const;

  const std::string& root_type() const { return root_type_; }
  void set_root_type(std::string name) { root_type_ = std::move(name); }

  // Declaration order (stable across rewrites; new types append).
  const std::vector<std::string>& type_names() const { return type_names_; }

  size_t size() const { return types_.size(); }

  // Generates a type name not yet in use, derived from `base`
  // (e.g. "Review", "Review_2", ...).
  std::string FreshTypeName(const std::string& base) const;

  // All type names referenced (via kTypeRef) from the body of `type`.
  static std::vector<std::string> ReferencedTypes(const TypePtr& type);

  // Types reachable from the root via type references (includes the root).
  std::vector<std::string> ReachableFromRoot() const;

  // Drops definitions not reachable from the root.
  void GarbageCollect();

  // True if `name` participates in a reference cycle (recursive type).
  bool IsRecursive(const std::string& name) const;

  // Verifies every type reference resolves and the root is defined.
  Status Validate() const;

  // Renders all definitions in the paper's notation.
  std::string ToString() const;

 private:
  std::string root_type_;
  std::vector<std::string> type_names_;
  std::map<std::string, TypePtr> types_;
};

}  // namespace legodb::xs

#endif  // LEGODB_XSCHEMA_SCHEMA_H_
