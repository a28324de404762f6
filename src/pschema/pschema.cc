#include "pschema/pschema.h"

#include <algorithm>
#include <cctype>
#include <functional>

#include "common/check.h"

namespace legodb::ps {

using xs::Schema;
using xs::Type;
using xs::TypePtr;

namespace {

bool IsRefOrUnionOfRefs(const TypePtr& t) {
  if (t->kind == Type::Kind::kTypeRef) return true;
  if (t->kind != Type::Kind::kUnion) return false;
  for (const auto& alt : t->children) {
    if (alt->kind != Type::Kind::kTypeRef) return false;
  }
  return true;
}

Status CheckPhysicalType(const std::string& owner, const TypePtr& t) {
  switch (t->kind) {
    case Type::Kind::kEmpty:
    case Type::Kind::kScalar:
    case Type::Kind::kTypeRef:
      return Status::OK();
    case Type::Kind::kElement:
    case Type::Kind::kAttribute:
      return CheckPhysicalType(owner, t->child);
    case Type::Kind::kSequence: {
      for (const auto& c : t->children) {
        LEGODB_RETURN_IF_ERROR(CheckPhysicalType(owner, c));
      }
      return Status::OK();
    }
    case Type::Kind::kUnion: {
      for (const auto& alt : t->children) {
        if (alt->kind != Type::Kind::kTypeRef) {
          return Status::InvalidArgument(
              "type '" + owner +
              "': union alternative is not a type reference: " +
              alt->ToString());
        }
      }
      return Status::OK();
    }
    case Type::Kind::kRepetition: {
      if (t->is_optional_rep()) {
        // Optionals may hold physical content (nullable columns) or refs.
        return CheckPhysicalType(owner, t->child);
      }
      if (!IsRefOrUnionOfRefs(t->child)) {
        return Status::InvalidArgument(
            "type '" + owner +
            "': repetition content is not a type reference: " +
            t->child->ToString());
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

// Derives a readable type name from the content being outlined.
std::string SuggestTypeName(const TypePtr& t) {
  std::function<std::string(const TypePtr&)> first_name =
      [&](const TypePtr& n) -> std::string {
    switch (n->kind) {
      case Type::Kind::kElement:
        if (n->name.kind == xs::NameClass::Kind::kLiteral) {
          return n->name.name;
        }
        return "any";
      case Type::Kind::kAttribute:
        return n->name.name;
      case Type::Kind::kSequence:
      case Type::Kind::kUnion:
        return n->children.empty() ? "" : first_name(n->children[0]);
      case Type::Kind::kRepetition:
        return first_name(n->child);
      case Type::Kind::kTypeRef:
        return n->ref_name;
      case Type::Kind::kScalar:
        return n->scalar_kind == xs::ScalarKind::kInteger ? "int" : "string";
      default:
        return "";
    }
  };
  std::string base = first_name(t);
  if (base.empty()) base = "T";
  base[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(base[0])));
  return base;
}

// `t` with each direct child replaced by `f(child)`: the content of an
// element, attribute or repetition, the items of a sequence, the
// alternatives of a union. `t` itself comes back when `f` returned every
// child unchanged, and leaves always do, so a rewrite shares every subtree
// it leaves alone.
template <typename F>
TypePtr MapChildren(const TypePtr& t, const F& f) {
  switch (t->kind) {
    case Type::Kind::kElement:
    case Type::Kind::kAttribute:
    case Type::Kind::kRepetition: {
      TypePtr child = f(t->child);
      if (child == t->child) return t;
      if (t->kind == Type::Kind::kElement) {
        return Type::Element(t->name, std::move(child));
      }
      if (t->kind == Type::Kind::kAttribute) {
        return Type::Attribute(t->name.name, std::move(child));
      }
      return Type::Repetition(std::move(child), t->min_occurs, t->max_occurs,
                              t->avg_count);
    }
    case Type::Kind::kSequence:
    case Type::Kind::kUnion: {
      // Filled from the first child `f` changed on.
      std::vector<TypePtr> children;
      for (size_t i = 0; i < t->children.size(); ++i) {
        TypePtr c = f(t->children[i]);
        if (children.empty()) {
          if (c == t->children[i]) continue;
          children.reserve(t->children.size());
          children.assign(t->children.begin(), t->children.begin() + i);
        }
        children.push_back(std::move(c));
      }
      if (children.empty()) return t;
      return t->kind == Type::Kind::kSequence
                 ? Type::Sequence(std::move(children))
                 : Type::Union(std::move(children));
    }
    default:
      return t;
  }
}

// Appends the inner (non-leaf) nodes of `t`.
void InnerNodes(const Type& t, std::vector<const Type*>* out) {
  if (!t.child && t.children.empty()) return;
  out->push_back(&t);
  if (t.child) InnerNodes(*t.child, out);
  for (const auto& c : t.children) InnerNodes(*c, out);
}

// Gives every type whose body shares an inner node with an earlier type's
// body, or holds one node twice, a copy of its body. The rewrites copy what
// they duplicate (CopyNodes), so only an input built with shared subtrees
// meets the slow path; Normalize ends with this pass.
void Unshare(Schema* s) {
  std::vector<const Type*> nodes;
  for (int t = 0; t < static_cast<int>(s->size()); ++t) {
    InnerNodes(*s->body(t), &nodes);
  }
  std::sort(nodes.begin(), nodes.end());
  if (std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end()) return;
  // Rare: walk the types again, copying each body that meets a node seen
  // before (in its own body or an earlier one).
  std::vector<const Type*> seen;
  for (int t = 0; t < static_cast<int>(s->size()); ++t) {
    std::vector<const Type*> own;
    InnerNodes(*s->body(t), &own);
    std::sort(own.begin(), own.end());
    bool shared = std::adjacent_find(own.begin(), own.end()) != own.end();
    for (const Type* n : own) {
      shared = shared || std::binary_search(seen.begin(), seen.end(), n);
    }
    if (shared) {
      s->Redefine(t, CopyNodes(s->body(t)));
      own.clear();
      InnerNodes(*s->body(t), &own);
    }
    seen.insert(seen.end(), own.begin(), own.end());
    std::sort(seen.begin(), seen.end());
  }
}

std::string OutlineInto(Schema* schema, TypePtr body) {
  std::string name = schema->FreshTypeName(SuggestTypeName(body));
  schema->Define(name, std::move(body));
  return name;
}

// Rewrites `t` so unions and non-optional repetitions contain only refs;
// outlined bodies are themselves normalized first (bottom-up).
TypePtr NormalizeType(const TypePtr& t, Schema* schema) {
  return MapChildren(t, [&](const TypePtr& c) {
    TypePtr child = NormalizeType(c, schema);
    const bool outline =
        t->kind == Type::Kind::kUnion
            ? child->kind != Type::Kind::kTypeRef
            : t->kind == Type::Kind::kRepetition && !t->is_optional_rep() &&
                  !IsRefOrUnionOfRefs(child);
    return outline ? Type::Ref(OutlineInto(schema, child)) : child;
  });
}

// Context describing whether a type-reference position permits inlining:
// inlinable iff the reference sits under sequences / elements / optionals
// only (Section 4.1's conditions).
struct RefOccurrence {
  int owner;  // type whose body holds the reference
  bool inlinable;
};

// The occurrences of references to each type, by the referenced type's
// index; with a `target`, those to `target` only, from the bodies whose
// references name it.
std::vector<std::vector<RefOccurrence>> CollectRefOccurrences(
    const Schema& schema, int target = -1) {
  std::vector<std::vector<RefOccurrence>> occ(schema.size());
  for (int owner = 0; owner < static_cast<int>(schema.size()); ++owner) {
    const std::vector<int>& refs = schema.refs(owner);
    if (target >= 0 &&
        std::find(refs.begin(), refs.end(), target) == refs.end()) {
      continue;
    }
    // The walk meets the references in pre-order, as refs() lists them.
    const int* next_ref = refs.data();
    std::function<void(const TypePtr&, bool)> walk = [&](const TypePtr& t,
                                                         bool inlinable) {
      switch (t->kind) {
        case Type::Kind::kTypeRef:
          if (*next_ref >= 0 && (target < 0 || *next_ref == target)) {
            occ[*next_ref].push_back(RefOccurrence{owner, inlinable});
          }
          ++next_ref;
          break;
        case Type::Kind::kElement:
        case Type::Kind::kAttribute:
          walk(t->child, inlinable);
          break;
        case Type::Kind::kSequence:
          for (const auto& c : t->children) walk(c, inlinable);
          break;
        case Type::Kind::kUnion:
          for (const auto& c : t->children) walk(c, false);
          break;
        case Type::Kind::kRepetition:
          walk(t->child, inlinable && t->is_optional_rep());
          break;
        default:
          break;
      }
    };
    walk(schema.body(owner), /*inlinable=*/true);
  }
  return occ;
}

// Replaces every reference to `target` in `t` with `body`.
TypePtr SubstituteRef(const TypePtr& t, const std::string& target,
                      const TypePtr& body) {
  if (t->kind == Type::Kind::kTypeRef) return t->ref_name == target ? body : t;
  return MapChildren(
      t, [&](const TypePtr& c) { return SubstituteRef(c, target, body); });
}

// Union over element structure -> sequence of optionals ("from union to
// options", Section 4.1). Applied recursively. Branch presence statistics
// default to 1/#alternatives.
TypePtr FlattenUnions(const TypePtr& t) {
  if (t->kind != Type::Kind::kUnion) return MapChildren(t, FlattenUnions);
  // Branch presence: statistics-derived ref weights when available.
  double sum = 0;
  bool weighted = true;
  for (const auto& c : t->children) {
    if (c->kind != Type::Kind::kTypeRef || c->ref_weight <= 0) {
      weighted = false;
      break;
    }
    sum += c->ref_weight;
  }
  std::vector<TypePtr> items;
  for (const auto& c : t->children) {
    double presence = weighted && sum > 0
                          ? c->ref_weight / sum
                          : 1.0 / static_cast<double>(t->children.size());
    items.push_back(Type::Repetition(FlattenUnions(c), 0, 1, presence));
  }
  return Type::Sequence(std::move(items));
}

// A type referenced more than once from one body (e.g. `a[ B, c[ B* ] ]`)
// would make the child table's parent FK ambiguous: reconstruction could
// not tell which position a child row belongs to. Later references get an
// aliased type with a copy of the body, so each reference position owns a
// distinct table and each body position a distinct node. Recursive targets
// are skipped (aliasing would unfold the cycle forever); their
// reconstruction ambiguity is inherent.
Schema DisambiguateRepeatedRefs(Schema s) {
  std::vector<int> work(s.size());
  for (size_t i = 0; i < work.size(); ++i) work[i] = static_cast<int>(i);
  int guard = 0;
  while (!work.empty() && guard++ < 4096) {
    const int type = work.back();
    work.pop_back();
    // Most bodies reference each type at most once; they need no walk.
    const std::vector<int>& targets = s.refs(type);
    bool repeated = false;
    for (size_t i = 0; i < targets.size() && !repeated; ++i) {
      repeated = targets[i] >= 0 &&
                 std::find(targets.begin(), targets.begin() + i, targets[i]) !=
                     targets.begin() + i;
    }
    if (!repeated) continue;
    // Copies: aliases defined during the walk may move the table.
    const TypePtr body = s.body(type);
    const std::vector<int> refs = s.refs(type);
    size_t next_ref = 0;
    std::vector<int> seen(s.size(), 0);
    std::function<TypePtr(const TypePtr&)> walk =
        [&](const TypePtr& t) -> TypePtr {
      if (t->kind != Type::Kind::kTypeRef) return MapChildren(t, walk);
      const int target = refs[next_ref++];
      if (target < 0 || ++seen[target] == 1 || target == type ||
          s.IsRecursive(target)) {
        return t;
      }
      std::string alias = s.FreshTypeName(t->ref_name);
      work.push_back(s.Define(alias, CopyNodes(s.body(target))));
      return Type::RefWeighted(alias, t->ref_weight);
    };
    TypePtr rewritten = walk(body);
    if (rewritten != body) s.Redefine(type, std::move(rewritten));
  }
  return s;
}

}  // namespace

TypePtr CopyNodes(const TypePtr& t) {
  switch (t->kind) {
    case Type::Kind::kElement:
      return Type::Element(t->name, CopyNodes(t->child));
    case Type::Kind::kAttribute:
      return Type::Attribute(t->name.name, CopyNodes(t->child));
    case Type::Kind::kRepetition:
      return Type::Repetition(CopyNodes(t->child), t->min_occurs,
                              t->max_occurs, t->avg_count);
    case Type::Kind::kSequence:
    case Type::Kind::kUnion: {
      std::vector<TypePtr> children;
      children.reserve(t->children.size());
      for (const auto& c : t->children) children.push_back(CopyNodes(c));
      return t->kind == Type::Kind::kSequence
                 ? Type::Sequence(std::move(children))
                 : Type::Union(std::move(children));
    }
    default:
      return t;
  }
}

Status CheckPhysical(const Schema& schema) {
  LEGODB_RETURN_IF_ERROR(schema.Validate());
  for (int t = 0; t < static_cast<int>(schema.size()); ++t) {
    LEGODB_RETURN_IF_ERROR(CheckPhysicalType(schema.name(t), schema.body(t)));
  }
  return Status::OK();
}

Schema Normalize(Schema out) {
  // Newly outlined types append already normalized. A body that is
  // already physical keeps its definition; NormalizeType would return it
  // as it is. The body is copied: outlining may move the table.
  const int n = static_cast<int>(out.size());
  for (int t = 0; t < n; ++t) {
    if (CheckPhysicalType(out.name(t), out.body(t)).ok()) continue;
    const TypePtr body = out.body(t);
    out.Redefine(t, NormalizeType(body, &out));
  }
  out = DisambiguateRepeatedRefs(std::move(out));
  Unshare(&out);
  LEGODB_DCHECK(CheckPhysical(out).ok(),
                "Normalize produced a non-physical schema");
  return out;
}

Schema AllOutlined(const Schema& schema) {
  Schema out = schema;
  // Outline every element strictly inside a type body. The body's own root
  // element (if any) stays, since the named type denotes it.
  std::function<TypePtr(const TypePtr&, bool)> walk =
      [&](const TypePtr& t, bool is_body_root) -> TypePtr {
    // Attributes always stay with their element.
    if (t->kind == Type::Kind::kAttribute) return t;
    TypePtr rebuilt =
        MapChildren(t, [&](const TypePtr& c) { return walk(c, false); });
    if (t->kind != Type::Kind::kElement || is_body_root) return rebuilt;
    return Type::Ref(OutlineInto(&out, std::move(rebuilt)));
  };
  const int n = static_cast<int>(out.size());
  for (int t = 0; t < n; ++t) {
    const TypePtr body = out.body(t);
    out.Redefine(t, walk(body, /*is_body_root=*/true));
  }
  return Normalize(std::move(out));
}

Schema AllInlined(const Schema& schema, bool flatten_unions) {
  Schema out = Normalize(schema);
  if (flatten_unions) {
    for (int t = 0; t < static_cast<int>(out.size()); ++t) {
      out.Redefine(t, FlattenUnions(out.body(t)));
    }
    out = Normalize(std::move(out));
  }
  // Inline to fixpoint.
  while (true) {
    std::vector<std::string> candidates = EnumerateInlineCandidates(out);
    if (candidates.empty()) break;
    bool progressed = false;
    for (const auto& name : candidates) {
      auto next = InlineType(out, name);
      if (next.ok()) {
        out = std::move(next).value();
        progressed = true;
        break;  // candidate list is stale after a rewrite
      }
    }
    if (!progressed) break;
  }
  out.GarbageCollect();
  // Inlining can fold several references to the same shared type into one
  // body; re-normalize so repeated references get disambiguated.
  return Normalize(std::move(out));
}

TypePtr NodeAt(const TypePtr& type, const NodePath& path) {
  TypePtr cur = type;
  for (int idx : path) {
    if (!cur) return nullptr;
    if (cur->child) {
      if (idx != 0) return nullptr;
      cur = cur->child;
    } else if (idx >= 0 && static_cast<size_t>(idx) < cur->children.size()) {
      cur = cur->children[idx];
    } else {
      return nullptr;
    }
  }
  return cur;
}

TypePtr ReplaceAt(const TypePtr& type, const NodePath& path,
                  TypePtr replacement) {
  if (path.empty()) return replacement;
  const int idx = path[0];
  const size_t n = type->child ? 1 : type->children.size();
  LEGODB_CHECK(idx >= 0 && static_cast<size_t>(idx) < n,
               "node path index out of range");
  const NodePath rest(path.begin() + 1, path.end());
  int i = 0;
  return MapChildren(type, [&](const TypePtr& c) {
    return i++ == idx ? ReplaceAt(c, rest, replacement) : c;
  });
}

StatusOr<Schema> OutlineAt(const Schema& schema, const std::string& type_name,
                           const NodePath& path, std::string* out_new_type) {
  const int type = schema.IndexOf(type_name);
  if (type < 0) return Status::NotFound("type '" + type_name + "' not defined");
  const TypePtr body = schema.body(type);
  TypePtr node = NodeAt(body, path);
  if (!node) return Status::InvalidArgument("bad node path");
  if (node->kind != Type::Kind::kElement) {
    return Status::InvalidArgument("can only outline elements");
  }
  if (path.empty()) {
    return Status::InvalidArgument("cannot outline the body root element");
  }
  Schema out = schema;
  std::string new_name = OutlineInto(&out, node);
  out.Redefine(type, ReplaceAt(body, path, Type::Ref(new_name)));
  if (out_new_type) *out_new_type = new_name;
  return out;
}

StatusOr<Schema> InlineType(const Schema& schema,
                            const std::string& type_name) {
  if (type_name == schema.root_type()) {
    return Status::InvalidArgument("cannot inline the root type");
  }
  const int type = schema.IndexOf(type_name);
  if (type < 0) {
    return Status::NotFound("type '" + type_name + "' not defined");
  }
  if (schema.IsRecursive(type)) {
    return Status::InvalidArgument("cannot inline recursive type '" +
                                   type_name + "'");
  }
  const std::vector<RefOccurrence> occurrences =
      CollectRefOccurrences(schema, type)[type];
  if (occurrences.empty()) {
    return Status::InvalidArgument("type '" + type_name + "' is unreferenced");
  }
  if (occurrences.size() != 1) {
    return Status::InvalidArgument("type '" + type_name +
                                   "' is shared; cannot inline");
  }
  const RefOccurrence& occ = occurrences[0];
  if (!occ.inlinable) {
    return Status::InvalidArgument(
        "type '" + type_name +
        "' is referenced inside a union or repetition; cannot inline");
  }
  Schema out = schema;
  out.Redefine(occ.owner, SubstituteRef(schema.body(occ.owner), type_name,
                                        schema.body(type)));
  out.Undefine(type);
  return out;
}

std::vector<OutlineCandidate> EnumerateOutlineCandidates(
    const Schema& schema) {
  std::vector<OutlineCandidate> candidates;
  for (int type = 0; type < static_cast<int>(schema.size()); ++type) {
    const std::string& name = schema.name(type);
    std::function<void(const TypePtr&, NodePath*)> walk = [&](const TypePtr& t,
                                                              NodePath* path) {
      // Record element nodes strictly below the body root.
      if (t->kind == Type::Kind::kElement && !path->empty()) {
        candidates.push_back(
            OutlineCandidate{name, *path, t->name.ToString()});
      }
      if (t->child) {
        path->push_back(0);
        walk(t->child, path);
        path->pop_back();
      }
      for (size_t i = 0; i < t->children.size(); ++i) {
        path->push_back(static_cast<int>(i));
        walk(t->children[i], path);
        path->pop_back();
      }
    };
    NodePath path;
    walk(schema.body(type), &path);
  }
  return candidates;
}

std::vector<std::string> EnumerateInlineCandidates(const Schema& schema) {
  std::vector<std::string> result;
  const auto occurrences = CollectRefOccurrences(schema);
  for (int type = 0; type < static_cast<int>(schema.size()); ++type) {
    if (type == schema.root()) continue;
    const std::vector<RefOccurrence>& occ = occurrences[type];
    if (occ.size() != 1 || !occ[0].inlinable) continue;
    if (schema.IsRecursive(type)) continue;
    result.push_back(schema.name(type));
  }
  return result;
}

}  // namespace legodb::ps
