#include "core/transforms.h"

#include <cctype>
#include <functional>

#include "common/failpoint.h"

namespace legodb::core {

using ps::NodePath;
using xs::Schema;
using xs::Type;
using xs::TypePtr;

namespace {

bool IsUnionOfRefs(const TypePtr& t) {
  if (!t || t->kind != Type::Kind::kUnion) return false;
  for (const auto& alt : t->children) {
    if (alt->kind != Type::Kind::kTypeRef) return false;
  }
  return true;
}

// Visits every node of a type body with its path.
void VisitNodes(const TypePtr& t, NodePath* path,
                const std::function<void(const TypePtr&, const NodePath&)>& fn) {
  fn(t, *path);
  if (t->child) {
    path->push_back(0);
    VisitNodes(t->child, path, fn);
    path->pop_back();
  }
  for (size_t i = 0; i < t->children.size(); ++i) {
    path->push_back(static_cast<int>(i));
    VisitNodes(t->children[i], path, fn);
    path->pop_back();
  }
}

// The number of type references in `t`.
size_t CountRefs(const Type& t) {
  size_t n = t.kind == Type::Kind::kTypeRef ? 1 : 0;
  if (t.child) n += CountRefs(*t.child);
  for (const auto& c : t.children) n += CountRefs(*c);
  return n;
}

std::string Capitalized(std::string s) {
  if (!s.empty()) {
    s[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(s[0])));
  }
  return s;
}

std::string PathStr(const NodePath& path) {
  std::string out;
  for (int i : path) out += "." + std::to_string(i);
  return out.empty() ? "<root>" : out;
}

const char* KindName(TransformDescriptor::Kind kind) {
  switch (kind) {
    case TransformDescriptor::Kind::kInline: return "inline";
    case TransformDescriptor::Kind::kOutline: return "outline";
    case TransformDescriptor::Kind::kUnionDistribute: return "distribute";
    case TransformDescriptor::Kind::kUnionToOptions: return "options";
    case TransformDescriptor::Kind::kRepetitionSplit: return "split";
    case TransformDescriptor::Kind::kRepetitionMerge: return "merge";
    case TransformDescriptor::Kind::kWildcardMaterialize: return "wildcard";
  }
  return "?";
}

}  // namespace

std::string TransformDescriptor::Signature() const {
  std::string out = std::string(KindName(kind)) + ":" + type_name;
  for (int i : path) out += "." + std::to_string(i);
  if (!tag.empty()) out += "'" + tag;
  return out;
}

std::string TransformDescriptor::Describe(const xs::Schema& schema) const {
  switch (kind) {
    case Kind::kInline:
      return "inline type " + type_name;
    case Kind::kOutline: {
      TypePtr body = schema.Find(type_name);
      TypePtr node = body ? ps::NodeAt(body, path) : nullptr;
      std::string element =
          node && node->kind == Type::Kind::kElement ? node->name.ToString()
                                                     : PathStr(path);
      return "outline element " + element + " from " + type_name;
    }
    case Kind::kUnionDistribute:
      return "distribute union in " + type_name + " at " + PathStr(path);
    case Kind::kUnionToOptions:
      return "union-to-options in " + type_name + " at " + PathStr(path);
    case Kind::kRepetitionSplit: {
      TypePtr body = schema.Find(type_name);
      TypePtr node = body ? ps::NodeAt(body, path) : nullptr;
      std::string repeated =
          node && node->kind == Type::Kind::kRepetition && node->child &&
                  node->child->kind == Type::Kind::kTypeRef
              ? node->child->ref_name
              : PathStr(path);
      return "split repetition of " + repeated + " in " + type_name;
    }
    case Kind::kRepetitionMerge: {
      std::string repeated = PathStr(path);
      TypePtr body = schema.Find(type_name);
      if (body && !path.empty()) {
        NodePath seq_path(path.begin(), path.end() - 1);
        size_t idx = static_cast<size_t>(path.back());
        TypePtr seq = ps::NodeAt(body, seq_path);
        if (seq && seq->kind == Type::Kind::kSequence &&
            idx + 1 < seq->children.size() &&
            seq->children[idx + 1]->kind == Type::Kind::kRepetition &&
            seq->children[idx + 1]->child->kind == Type::Kind::kTypeRef) {
          repeated = seq->children[idx + 1]->child->ref_name;
        }
      }
      return "merge repetition of " + repeated + " in " + type_name;
    }
    case Kind::kWildcardMaterialize:
      return "materialize wildcard tag '" + tag + "' in " + type_name;
  }
  return Signature();
}

std::vector<TransformDescriptor> EnumerateTransformations(
    const Schema& schema, const TransformOptions& options) {
  std::vector<TransformDescriptor> out;

  if (options.inline_types) {
    for (const auto& name : ps::EnumerateInlineCandidates(schema)) {
      TransformDescriptor t;
      t.kind = TransformDescriptor::Kind::kInline;
      t.type_name = name;
      out.push_back(std::move(t));
    }
  }
  if (options.outline_elements) {
    for (const auto& cand : ps::EnumerateOutlineCandidates(schema)) {
      TransformDescriptor t;
      t.kind = TransformDescriptor::Kind::kOutline;
      t.type_name = cand.type_name;
      t.path = cand.path;
      out.push_back(std::move(t));
    }
  }

  bool want_structural = options.union_distribute || options.union_to_options ||
                         options.repetition_split ||
                         options.repetition_merge ||
                         options.wildcard_materialize;
  if (!want_structural) return out;

  for (int type : schema.ReachableFromRoot()) {
    const std::string& name = schema.name(type);
    // The visit meets the references in pre-order, as refs() lists them:
    // the references under `node` start at refs[next_ref].
    const std::vector<int>& refs = schema.refs(type);
    size_t next_ref = 0;
    NodePath path;
    VisitNodes(schema.body(type), &path, [&](const TypePtr& node,
                                             const NodePath& p) {
      // Union rewritings.
      if (IsUnionOfRefs(node)) {
        if (options.union_distribute && !p.empty() && type != schema.root()) {
          TransformDescriptor t;
          t.kind = TransformDescriptor::Kind::kUnionDistribute;
          t.type_name = name;
          t.path = p;
          out.push_back(std::move(t));
        }
        if (options.union_to_options) {
          bool ok = true;
          for (size_t i = 0; i < node->children.size(); ++i) {
            if (schema.IsRecursive(refs[next_ref + i])) ok = false;
          }
          if (ok) {
            TransformDescriptor t;
            t.kind = TransformDescriptor::Kind::kUnionToOptions;
            t.type_name = name;
            t.path = p;
            out.push_back(std::move(t));
          }
        }
      }
      // Repetition split: a{m,n} with m >= 1 over a type reference.
      if (options.repetition_split && node->kind == Type::Kind::kRepetition &&
          node->min_occurs >= 1 && !(node->min_occurs == 1 && node->max_occurs == 1) &&
          node->child->kind == Type::Kind::kTypeRef &&
          !schema.IsRecursive(refs[next_ref])) {
        TransformDescriptor t;
        t.kind = TransformDescriptor::Kind::kRepetitionSplit;
        t.type_name = name;
        t.path = p;
        out.push_back(std::move(t));
      }
      // Repetition merge: (X, C{0,n}) where X == body(C).
      if (options.repetition_merge && node->kind == Type::Kind::kSequence) {
        size_t ref_at = next_ref;  // the references before item i + 1
        for (size_t i = 0; i + 1 < node->children.size(); ++i) {
          const TypePtr& x = node->children[i];
          const TypePtr& rep = node->children[i + 1];
          ref_at += CountRefs(*x);
          if (rep->kind != Type::Kind::kRepetition || rep->min_occurs != 0 ||
              rep->is_optional_rep() ||
              rep->child->kind != Type::Kind::kTypeRef || refs[ref_at] < 0 ||
              !xs::TypeEqualsIgnoringStats(x, schema.body(refs[ref_at]))) {
            continue;
          }
          TransformDescriptor t;
          t.kind = TransformDescriptor::Kind::kRepetitionMerge;
          t.type_name = name;
          t.path = p;
          t.path.push_back(static_cast<int>(i));
          out.push_back(std::move(t));
        }
      }
      // Wildcard materialization (only plain '~' wildcards).
      if (options.wildcard_materialize &&
          node->kind == Type::Kind::kElement &&
          node->name.kind == xs::NameClass::Kind::kAny) {
        for (const auto& tag : options.wildcard_tags) {
          TransformDescriptor t;
          t.kind = TransformDescriptor::Kind::kWildcardMaterialize;
          t.type_name = name;
          t.path = p;
          t.tag = tag;
          out.push_back(std::move(t));
        }
      }
      if (node->kind == Type::Kind::kTypeRef) ++next_ref;
    });
  }
  return out;
}

namespace {

StatusOr<Schema> ApplyUnionDistribute(const Schema& schema,
                                      const TransformDescriptor& t) {
  const int type = schema.IndexOf(t.type_name);
  if (type < 0) return Status::NotFound("type " + t.type_name);
  const TypePtr body = schema.body(type);
  TypePtr node = ps::NodeAt(body, t.path);
  if (!IsUnionOfRefs(node)) {
    return Status::InvalidArgument("no union of refs at path");
  }
  Schema out = schema;
  std::vector<TypePtr> part_refs;
  std::vector<std::string> alt_names;
  for (const auto& alt : node->children) {
    // Part_i: the body with the union narrowed to this alternative. The
    // parts after the first get their own nodes.
    TypePtr part_body = ps::ReplaceAt(body, t.path, alt);
    if (!part_refs.empty()) part_body = ps::CopyNodes(part_body);
    std::string part_name = out.FreshTypeName(t.type_name + "_Part");
    out.Define(part_name, std::move(part_body));
    part_refs.push_back(Type::Ref(part_name));
    alt_names.push_back(alt->ref_name);
  }
  out.Redefine(type, Type::Union(std::move(part_refs)));
  // Fold each alternative's content into its part when possible (the
  // paper's worked example inlines Movie/TV into Show_Part1/Show_Part2).
  for (const auto& alt_name : alt_names) {
    auto inlined = ps::InlineType(out, alt_name);
    if (inlined.ok()) out = std::move(inlined).value();
  }
  out.GarbageCollect();
  return ps::Normalize(std::move(out));
}

StatusOr<Schema> ApplyUnionToOptions(const Schema& schema,
                                     const TransformDescriptor& t) {
  const int type = schema.IndexOf(t.type_name);
  if (type < 0) return Status::NotFound("type " + t.type_name);
  const TypePtr body = schema.body(type);
  TypePtr node = ps::NodeAt(body, t.path);
  if (!IsUnionOfRefs(node)) {
    return Status::InvalidArgument("no union of refs at path");
  }
  std::vector<TypePtr> options;
  double presence = 1.0 / static_cast<double>(node->children.size());
  for (const auto& alt : node->children) {
    TypePtr alt_body = schema.Find(alt->ref_name);
    if (!alt_body) return Status::NotFound("type " + alt->ref_name);
    options.push_back(
        Type::Repetition(ps::CopyNodes(alt_body), 0, 1, presence));
  }
  Schema out = schema;
  out.Redefine(type,
               ps::ReplaceAt(body, t.path, Type::Sequence(std::move(options))));
  out.GarbageCollect();
  return ps::Normalize(std::move(out));
}

StatusOr<Schema> ApplyRepetitionSplit(const Schema& schema,
                                      const TransformDescriptor& t) {
  const int type = schema.IndexOf(t.type_name);
  if (type < 0) return Status::NotFound("type " + t.type_name);
  const TypePtr body = schema.body(type);
  TypePtr node = ps::NodeAt(body, t.path);
  if (!node || node->kind != Type::Kind::kRepetition ||
      node->min_occurs < 1 || node->child->kind != Type::Kind::kTypeRef) {
    return Status::InvalidArgument("no splittable repetition at path");
  }
  TypePtr cbody = schema.Find(node->child->ref_name);
  if (!cbody) return Status::NotFound("type " + node->child->ref_name);
  uint32_t rest_max =
      node->max_occurs == xs::kUnbounded ? xs::kUnbounded : node->max_occurs - 1;
  double rest_avg = node->avg_count > 1 ? node->avg_count - 1 : 0;
  TypePtr rest = Type::Repetition(node->child, node->min_occurs - 1, rest_max,
                                  rest_avg);
  TypePtr replacement =
      Type::Sequence({ps::CopyNodes(cbody), std::move(rest)});
  Schema out = schema;
  out.Redefine(type, ps::ReplaceAt(body, t.path, std::move(replacement)));
  out.GarbageCollect();
  return ps::Normalize(std::move(out));
}

StatusOr<Schema> ApplyRepetitionMerge(const Schema& schema,
                                      const TransformDescriptor& t) {
  const int type = schema.IndexOf(t.type_name);
  if (type < 0) return Status::NotFound("type " + t.type_name);
  const TypePtr body = schema.body(type);
  if (t.path.empty()) return Status::InvalidArgument("bad merge path");
  NodePath seq_path(t.path.begin(), t.path.end() - 1);
  size_t idx = static_cast<size_t>(t.path.back());
  TypePtr seq = ps::NodeAt(body, seq_path);
  if (!seq || seq->kind != Type::Kind::kSequence ||
      idx + 1 >= seq->children.size()) {
    return Status::InvalidArgument("no mergeable sequence at path");
  }
  const TypePtr& x = seq->children[idx];
  const TypePtr& rep = seq->children[idx + 1];
  if (rep->kind != Type::Kind::kRepetition ||
      rep->child->kind != Type::Kind::kTypeRef) {
    return Status::InvalidArgument("no repetition after merge position");
  }
  TypePtr cbody = schema.Find(rep->child->ref_name);
  if (!cbody || !xs::TypeEqualsIgnoringStats(x, cbody)) {
    return Status::InvalidArgument("merge candidate does not match type body");
  }
  uint32_t new_max =
      rep->max_occurs == xs::kUnbounded ? xs::kUnbounded : rep->max_occurs + 1;
  std::vector<TypePtr> children = seq->children;
  children.erase(children.begin() + static_cast<ptrdiff_t>(idx));
  children[idx] = Type::Repetition(rep->child, rep->min_occurs + 1, new_max,
                                   rep->avg_count + 1);
  Schema out = schema;
  out.Redefine(type,
               ps::ReplaceAt(body, seq_path, Type::Sequence(std::move(children))));
  return ps::Normalize(std::move(out));
}

StatusOr<Schema> ApplyWildcardMaterialize(const Schema& schema,
                                          const TransformDescriptor& t) {
  const int type = schema.IndexOf(t.type_name);
  if (type < 0) return Status::NotFound("type " + t.type_name);
  const TypePtr body = schema.body(type);
  TypePtr node = ps::NodeAt(body, t.path);
  if (!node || node->kind != Type::Kind::kElement ||
      node->name.kind != xs::NameClass::Kind::kAny) {
    return Status::InvalidArgument("no plain wildcard element at path");
  }
  Schema out = schema;
  std::string tagged_name = out.FreshTypeName(Capitalized(t.tag));
  out.Define(tagged_name, Type::Element(t.tag, node->child));
  std::string other_name = out.FreshTypeName("Other" + Capitalized(t.tag));
  out.Define(other_name, Type::Element(xs::NameClass::AnyExcept(t.tag),
                                       ps::CopyNodes(node->child)));
  TypePtr replacement =
      Type::Union({Type::Ref(tagged_name), Type::Ref(other_name)});
  out.Redefine(type, ps::ReplaceAt(body, t.path, std::move(replacement)));
  return ps::Normalize(std::move(out));
}

}  // namespace

StatusOr<Schema> ApplyTransformation(const Schema& schema,
                                     const TransformDescriptor& t) {
  LEGODB_FAILPOINT("transforms.apply");
  switch (t.kind) {
    case TransformDescriptor::Kind::kInline: {
      // Re-normalize: inlining can duplicate references to shared types.
      LEGODB_ASSIGN_OR_RETURN(xs::Schema out,
                              ps::InlineType(schema, t.type_name));
      return ps::Normalize(std::move(out));
    }
    case TransformDescriptor::Kind::kOutline:
      return ps::OutlineAt(schema, t.type_name, t.path);
    case TransformDescriptor::Kind::kUnionDistribute:
      return ApplyUnionDistribute(schema, t);
    case TransformDescriptor::Kind::kUnionToOptions:
      return ApplyUnionToOptions(schema, t);
    case TransformDescriptor::Kind::kRepetitionSplit:
      return ApplyRepetitionSplit(schema, t);
    case TransformDescriptor::Kind::kRepetitionMerge:
      return ApplyRepetitionMerge(schema, t);
    case TransformDescriptor::Kind::kWildcardMaterialize:
      return ApplyWildcardMaterialize(schema, t);
  }
  return Status::Internal("unknown transformation");
}

}  // namespace legodb::core
