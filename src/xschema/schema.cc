#include "xschema/schema.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/check.h"

namespace legodb::xs {

void Schema::Define(const std::string& name, TypePtr type) {
  LEGODB_CHECK(type != nullptr, "Schema::Define: null type");
  if (!types_.count(name)) type_names_.push_back(name);
  types_[name] = std::move(type);
  if (root_type_.empty()) root_type_ = name;
}

void Schema::Undefine(const std::string& name) {
  types_.erase(name);
  type_names_.erase(std::remove(type_names_.begin(), type_names_.end(), name),
                    type_names_.end());
}

TypePtr Schema::Find(const std::string& name) const {
  auto it = types_.find(name);
  return it == types_.end() ? nullptr : it->second;
}

TypePtr Schema::Get(const std::string& name) const {
  TypePtr t = Find(name);
  LEGODB_CHECK(t != nullptr, "Schema::Get: undefined type");
  return t;
}

std::string Schema::FreshTypeName(const std::string& base) const {
  if (!Has(base)) return base;
  for (int i = 2;; ++i) {
    std::string candidate = base + "_" + std::to_string(i);
    if (!Has(candidate)) return candidate;
  }
}

std::vector<std::string> Schema::ReferencedTypes(const TypePtr& type) {
  std::vector<std::string> refs;
  std::function<void(const TypePtr&)> walk = [&](const TypePtr& t) {
    if (!t) return;
    if (t->kind == Type::Kind::kTypeRef) refs.push_back(t->ref_name);
    if (t->child) walk(t->child);
    for (const auto& c : t->children) walk(c);
  };
  walk(type);
  return refs;
}

std::vector<std::string> Schema::ReachableFromRoot() const {
  std::vector<std::string> order;
  std::set<std::string> visited;
  std::function<void(const std::string&)> visit = [&](const std::string& n) {
    if (!visited.insert(n).second) return;
    if (!Has(n)) return;
    order.push_back(n);
    for (const auto& ref : ReferencedTypes(Get(n))) visit(ref);
  };
  if (!root_type_.empty()) visit(root_type_);
  return order;
}

void Schema::GarbageCollect() {
  auto reachable = ReachableFromRoot();
  std::set<std::string> keep(reachable.begin(), reachable.end());
  std::vector<std::string> to_remove;
  for (const auto& name : type_names_) {
    if (!keep.count(name)) to_remove.push_back(name);
  }
  for (const auto& name : to_remove) Undefine(name);
}

bool Schema::IsRecursive(const std::string& name) const {
  // DFS from `name`; recursive iff we can get back to `name`.
  std::set<std::string> visited;
  std::function<bool(const std::string&)> visit =
      [&](const std::string& n) -> bool {
    if (!Has(n)) return false;
    for (const auto& ref : ReferencedTypes(Get(n))) {
      if (ref == name) return true;
      if (visited.insert(ref).second && visit(ref)) return true;
    }
    return false;
  };
  return visit(name);
}

Status Schema::Validate() const {
  if (root_type_.empty()) {
    return Status::InvalidArgument("schema has no root type");
  }
  if (!Has(root_type_)) {
    return Status::InvalidArgument("root type '" + root_type_ +
                                   "' is not defined");
  }
  for (const auto& name : type_names_) {
    for (const auto& ref : ReferencedTypes(Get(name))) {
      if (!Has(ref)) {
        return Status::InvalidArgument("type '" + name +
                                       "' references undefined type '" + ref +
                                       "'");
      }
    }
  }
  return Status::OK();
}

std::string Schema::ToString() const {
  std::string out;
  for (const auto& name : type_names_) {
    out += "type " + name + " = " + Get(name)->ToString() + "\n";
  }
  return out;
}

}  // namespace legodb::xs
