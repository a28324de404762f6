#include "xschema/schema.h"

#include <algorithm>

#include "common/check.h"
#include "xschema/fingerprint.h"

namespace legodb::xs {

namespace {

// Appends the type references in `t`, in pre-order.
void RefNodes(const Type& t, std::vector<const Type*>* out) {
  if (t.kind == Type::Kind::kTypeRef) out->push_back(&t);
  if (t.child) RefNodes(*t.child, out);
  for (const auto& c : t.children) RefNodes(*c, out);
}

}  // namespace

int Schema::Define(const std::string& name, TypePtr type) {
  int index = IndexOf(name);
  if (index < 0) {
    index = static_cast<int>(types_.size());
    types_.push_back(TypeDef{name, nullptr, {}});
    by_name_.insert(std::lower_bound(by_name_.begin(), by_name_.end(), name,
                                     [&](int i, const std::string& n) {
                                       return types_[i].name < n;
                                     }),
                    index);
    // Earlier references to `name` resolve now.
    for (int i = 0; i < index; ++i) {
      const std::vector<int>& refs = types_[i].refs;
      if (std::count(refs.begin(), refs.end(), -1)) Redefine(i, types_[i].body);
    }
    if (root_type_.empty()) root_type_ = name;
    if (root_type_ == name) root_ = index;
  }
  Redefine(index, std::move(type));
  return index;
}

void Schema::Redefine(int index, TypePtr type) {
  LEGODB_CHECK(type != nullptr, "Schema: null type");
  TypeDef& def = types_[index];
  std::vector<const Type*> old_refs;
  std::vector<const Type*> new_refs;
  if (def.body) RefNodes(*def.body, &old_refs);
  RefNodes(*type, &new_refs);
  def.refs.resize(new_refs.size());
  for (size_t i = 0; i < new_refs.size(); ++i) {
    // A resolved reference node the old body had at the same position
    // keeps its index: rewrites rebuild bodies around the nodes they leave
    // alone.
    if (i >= old_refs.size() || new_refs[i] != old_refs[i] || def.refs[i] < 0) {
      def.refs[i] = IndexOf(new_refs[i]->ref_name);
    }
  }
  def.fingerprint = FingerprintType(type);
  def.body = std::move(type);
}

void Schema::Undefine(int index) {
  std::vector<char> keep(types_.size(), 1);
  keep[index] = 0;
  Compact(keep);
}

void Schema::Compact(const std::vector<char>& keep) {
  std::vector<int> to(types_.size(), -1);
  int n = 0;
  for (size_t i = 0; i < types_.size(); ++i) {
    if (!keep[i]) continue;
    if (static_cast<size_t>(n) != i) types_[n] = std::move(types_[i]);
    to[i] = n++;
  }
  types_.resize(n);
  for (TypeDef& def : types_) {
    for (int& r : def.refs) r = r < 0 ? -1 : to[r];
  }
  std::erase_if(by_name_, [&](int i) { return !keep[i]; });
  for (int& i : by_name_) i = to[i];
  root_ = root_ < 0 ? -1 : to[root_];
}

int Schema::IndexOf(const std::string& name) const {
  auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [&](int i, const std::string& n) { return types_[i].name < n; });
  return it != by_name_.end() && types_[*it].name == name ? *it : -1;
}

TypePtr Schema::Find(const std::string& name) const {
  int index = IndexOf(name);
  return index < 0 ? nullptr : types_[index].body;
}

TypePtr Schema::Get(const std::string& name) const {
  TypePtr t = Find(name);
  LEGODB_CHECK(t != nullptr, "Schema::Get: undefined type");
  return t;
}

void Schema::set_root_type(std::string name) {
  root_type_ = std::move(name);
  root_ = IndexOf(root_type_);
}

std::vector<std::string> Schema::type_names() const {
  std::vector<std::string> names;
  for (const TypeDef& def : types_) names.push_back(def.name);
  return names;
}

std::string Schema::FreshTypeName(const std::string& base) const {
  if (!Has(base)) return base;
  for (int i = 2;; ++i) {
    std::string candidate = base + "_" + std::to_string(i);
    if (!Has(candidate)) return candidate;
  }
}

void Schema::Visit(int index, std::vector<char>* seen,
                   std::vector<int>* order) const {
  if (index < 0 || (*seen)[index]) return;
  (*seen)[index] = 1;
  if (order) order->push_back(index);
  for (int r : types_[index].refs) Visit(r, seen, order);
}

std::vector<int> Schema::ReachableFromRoot() const {
  std::vector<int> order;
  std::vector<char> seen(types_.size(), 0);
  Visit(root_, &seen, &order);
  return order;
}

void Schema::GarbageCollect() {
  std::vector<char> keep(types_.size(), 0);
  Visit(root_, &keep, nullptr);
  Compact(keep);
}

bool Schema::IsRecursive(int index) const {
  // Recursive iff `index` is reachable from its own references.
  if (index < 0) return false;
  std::vector<char> seen(types_.size(), 0);
  for (int r : types_[index].refs) Visit(r, &seen, nullptr);
  return seen[index];
}

Status Schema::Validate() const {
  if (root_type_.empty()) {
    return Status::InvalidArgument("schema has no root type");
  }
  if (root_ < 0) {
    return Status::InvalidArgument("root type '" + root_type_ +
                                   "' is not defined");
  }
  for (const TypeDef& def : types_) {
    auto it = std::find(def.refs.begin(), def.refs.end(), -1);
    if (it == def.refs.end()) continue;
    std::vector<const Type*> refs;
    RefNodes(*def.body, &refs);
    return Status::InvalidArgument("type '" + def.name +
                                   "' references undefined type '" +
                                   refs[it - def.refs.begin()]->ref_name + "'");
  }
  return Status::OK();
}

std::string Schema::ToString() const {
  std::string out;
  for (const TypeDef& def : types_) {
    out += "type " + def.name + " = " + def.body->ToString() + "\n";
  }
  return out;
}

}  // namespace legodb::xs
