#include "xschema/fingerprint.h"

#include <vector>

#include "common/hash.h"

namespace legodb::xs {

using common::HashCombine;
using common::HashDouble;
using common::HashInt;
using common::HashString;
using common::Mix64;

namespace {

uint64_t HashNameClass(const NameClass& name, uint64_t h) {
  h = HashInt(static_cast<int64_t>(name.kind), h);
  return HashCombine(h, HashString(name.name));
}

uint64_t HashNode(const TypePtr& t, uint64_t h) {
  if (!t) return HashInt(-1, h);
  h = HashInt(static_cast<int64_t>(t->kind), h);
  switch (t->kind) {
    case Type::Kind::kEmpty:
      break;
    case Type::Kind::kScalar:
      h = HashInt(static_cast<int64_t>(t->scalar_kind), h);
      h = HashDouble(t->scalar_stats.size, h);
      h = HashInt(t->scalar_stats.min, h);
      h = HashInt(t->scalar_stats.max, h);
      h = HashInt(t->scalar_stats.distincts, h);
      break;
    case Type::Kind::kElement:
    case Type::Kind::kAttribute:
      h = HashNameClass(t->name, h);
      h = HashNode(t->child, h);
      break;
    case Type::Kind::kSequence:
    case Type::Kind::kUnion:
      h = HashInt(static_cast<int64_t>(t->children.size()), h);
      for (const auto& c : t->children) h = HashNode(c, h);
      break;
    case Type::Kind::kRepetition:
      h = HashInt(t->min_occurs, h);
      h = HashInt(t->max_occurs, h);
      h = HashDouble(t->avg_count, h);
      h = HashNode(t->child, h);
      break;
    case Type::Kind::kTypeRef:
      h = HashCombine(h, HashString(t->ref_name));
      h = HashDouble(t->ref_weight, h);
      break;
  }
  return h;
}

}  // namespace

uint64_t FingerprintType(const TypePtr& type) {
  return Mix64(HashNode(type, /*h=*/0x7073636865666d61ull));
}

uint64_t FingerprintSchema(const Schema& schema) {
  std::vector<char> reachable(schema.size(), 0);
  for (int t : schema.ReachableFromRoot()) reachable[t] = 1;
  uint64_t h = HashString(schema.root_type());
  for (int t : schema.name_order()) {
    if (!reachable[t]) continue;
    h = HashCombine(h, HashString(schema.name(t)));
    h = HashCombine(h, schema.body_fingerprint(t));
  }
  return Mix64(h);
}

}  // namespace legodb::xs
