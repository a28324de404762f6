#include "storage/reconstruct.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "mapping/program.h"
#include "obs/obs.h"

namespace legodb::store {
namespace {

using map::BodyOp;
using map::Mapping;
using map::TypeMapping;
using map::TypeProgram;
using xs::Type;

// Where one parent->child reference finds its children: the child type,
// the hash index on its foreign key to the parent's type, and its keys.
struct ChildLink {
  int type;
  const HashIndex* fk_index;
  const ColumnVector* keys;
};

// A concrete type's reconstruct program beyond its body (map::TypeProgram),
// resolved on first use: its table's columns, per type-ref or union op the
// links its children are found through (virtual unions flattened), and per
// literal element or attribute op its name, interned in the document built.
struct ReconstructType {
  std::vector<const ColumnVector*> columns;
  std::vector<ChildLink> links;
  std::vector<uint32_t> link_begin;  // op i's links: [link_begin[i], [i+1])
  std::vector<xml::NameId> names;    // by op; kNoName for other ops

  std::span<const ChildLink> Links(uint32_t op) const {
    return {links.data() + link_begin[op],
            link_begin[op + 1] - link_begin[op]};
  }
};

class Reconstructor {
 public:
  // Builds into `arena`, the arena of the document being built.
  Reconstructor(Database* db, const Mapping& mapping, xml::Arena* arena)
      : db_(db),
        arena_(arena),
        programs_(map::CompileTypes(mapping)),
        types_(programs_.size()) {}

  // Emits row `row` of concrete type `type`'s table.
  Status EmitInstance(int type, size_t row, xml::Node* parent) {
    LEGODB_ASSIGN_OR_RETURN(const ReconstructType* rt, Resolve(type));
    Ctx ctx;
    ctx.rt = rt;
    ctx.row = row;
    ctx.self_id = rt->columns[rel::Table::kKeyColumn]->value(row).as_int();
    return EmitBody(programs_[type], 0, ctx, parent, /*under_optional=*/false);
  }

  // Finds a row of concrete type `type` by key id.
  StatusOr<size_t> FindRow(int type, int64_t id) {
    StoredTable& table = db_->table(programs_[type].tm->table);
    LEGODB_ASSIGN_OR_RETURN(const HashIndex* index,
                            table.GetOrBuildIndex(rel::Table::kKeyColumn));
    std::span<const int32_t> hits = index->FindInt(id);
    if (hits.empty()) {
      return Status::NotFound("no row with id " + std::to_string(id));
    }
    return static_cast<size_t>(hits[0]);
  }

  // Concrete type `type`'s program, resolving it on first use.
  StatusOr<const ReconstructType*> Resolve(int type) {
    std::unique_ptr<ReconstructType>& slot = types_[type];
    if (slot) return slot.get();
    const TypeProgram& p = programs_[type];
    auto rt = std::make_unique<ReconstructType>();
    StoredTable& table = db_->table(p.tm->table);
    for (size_t c = 0; c < table.meta().columns.size(); ++c) {
      LEGODB_ASSIGN_OR_RETURN(const ColumnVector* cv,
                              table.GetOrBuildColumn(static_cast<int>(c)));
      rt->columns.push_back(cv);
    }
    rt->link_begin.reserve(p.ops.size() + 1);
    rt->names.reserve(p.ops.size());
    for (const BodyOp& op : p.ops) {
      rt->link_begin.push_back(static_cast<uint32_t>(rt->links.size()));
      const Type& t = *op.type;
      const bool named = t.kind == Type::Kind::kAttribute ||
                         (t.kind == Type::Kind::kElement &&
                          !t.name.is_wildcard());
      rt->names.push_back(named ? arena_->Intern(t.name.name)
                                : xml::kNoName);
      if (op.type->kind == Type::Kind::kTypeRef) {
        LEGODB_RETURN_IF_ERROR(AddLinks(type, op.ref, 0, &rt->links));
      } else if (op.type->kind == Type::Kind::kUnion) {
        for (uint32_t kid : p.Kids(op)) {
          LEGODB_RETURN_IF_ERROR(AddLinks(type, p.ops[kid].ref, 0, &rt->links));
        }
      }
    }
    rt->link_begin.push_back(static_cast<uint32_t>(rt->links.size()));
    slot = std::move(rt);
    return slot.get();
  }

 private:
  struct Ctx {
    const ReconstructType* rt = nullptr;
    size_t row = 0;
    int64_t self_id = 0;
  };

  // A child instance: (id, concrete type, row index).
  struct ChildRow {
    int64_t id;
    int type;
    size_t row;
  };

  // Appends the links to the children of type `child` under an instance of
  // type `parent`.
  Status AddLinks(int parent, int child, int depth,
                  std::vector<ChildLink>* out) {
    if (depth > 16) return Status::OK();
    const TypeProgram& cp = programs_[child];
    if (cp.tm->virtual_union) {
      for (int alt : cp.tm->union_alternatives) {
        LEGODB_RETURN_IF_ERROR(AddLinks(parent, alt, depth + 1, out));
      }
      return Status::OK();
    }
    const int fk = cp.tm->ParentColumn(parent);
    if (fk < 0) return Status::OK();
    StoredTable& table = db_->table(cp.tm->table);
    LEGODB_ASSIGN_OR_RETURN(const HashIndex* index, table.GetOrBuildIndex(fk));
    LEGODB_ASSIGN_OR_RETURN(const ColumnVector* keys,
                            table.GetOrBuildColumn(rel::Table::kKeyColumn));
    out->push_back(ChildLink{child, index, keys});
    return Status::OK();
  }

  const Value* ValueAt(const Ctx& ctx, int column) const {
    return column < 0 ? nullptr : &ctx.rt->columns[column]->value(ctx.row);
  }

  // The text of non-null `v`; an integer is formatted into `buf`.
  static std::string_view TextOf(const Value& v, std::array<char, 24>* buf) {
    if (!v.is_int()) return v.as_string();
    const auto [end, ec] =
        std::to_chars(buf->data(), buf->data() + buf->size(), v.as_int());
    return {buf->data(), static_cast<size_t>(end - buf->data())};
  }

  // True if any column value or descendant row exists inside op `i` —
  // presence test for optional content.
  bool HasDataUnder(const TypeProgram& p, uint32_t i, const Ctx& ctx) const {
    const BodyOp& op = p.ops[i];
    switch (op.type->kind) {
      case Type::Kind::kEmpty:
        return false;
      case Type::Kind::kScalar: {
        const Value* v = ValueAt(ctx, op.column);
        return v && !v->is_null();
      }
      case Type::Kind::kElement:
      case Type::Kind::kAttribute:
        if (op.type->name.is_wildcard()) {
          const Value* tag = ValueAt(ctx, op.column);
          if (tag && !tag->is_null()) return true;
        }
        return HasDataUnder(p, p.Kids(op)[0], ctx);
      case Type::Kind::kRepetition:
        return HasDataUnder(p, p.Kids(op)[0], ctx);
      case Type::Kind::kSequence:
        for (uint32_t kid : p.Kids(op)) {
          if (HasDataUnder(p, kid, ctx)) return true;
        }
        return false;
      case Type::Kind::kUnion:
      case Type::Kind::kTypeRef:
        for (const ChildLink& link : ctx.rt->Links(i)) {
          if (!link.fk_index->FindInt(ctx.self_id).empty()) return true;
        }
        return false;
    }
    return false;
  }

  // Emits the children a type ref — or a union of refs, whose alternatives
  // a repetition may interleave — at op `i` points at, in id (= document)
  // order.
  Status EmitChildren(uint32_t i, const Ctx& ctx, xml::Node* parent) {
    // children_ is a stack: nested calls push above `begin` and pop back.
    const size_t begin = children_.size();
    for (const ChildLink& link : ctx.rt->Links(i)) {
      for (int32_t row : link.fk_index->FindInt(ctx.self_id)) {
        const auto r = static_cast<size_t>(row);
        children_.push_back(
            ChildRow{link.keys->value(r).as_int(), link.type, r});
      }
    }
    std::sort(children_.begin() + static_cast<std::ptrdiff_t>(begin),
              children_.end(),
              [](const ChildRow& a, const ChildRow& b) { return a.id < b.id; });
    Status st;
    for (size_t k = begin; k < children_.size() && st.ok(); ++k) {
      const ChildRow child = children_[k];
      st = EmitInstance(child.type, child.row, parent);
    }
    children_.resize(begin);
    return st;
  }

  Status EmitBody(const TypeProgram& p, uint32_t i, const Ctx& ctx,
                  xml::Node* parent, bool under_optional) {
    const BodyOp& op = p.ops[i];
    const Type& t = *op.type;
    switch (t.kind) {
      case Type::Kind::kEmpty:
        return Status::OK();
      case Type::Kind::kScalar: {
        const Value* v = ValueAt(ctx, op.column);
        if (v && !v->is_null()) {
          std::array<char, 24> buf;
          const std::string_view text = TextOf(*v, &buf);
          if (!text.empty()) parent->AddText(text);
        }
        return Status::OK();
      }
      case Type::Kind::kElement: {
        xml::Node* elem = nullptr;
        if (t.name.is_wildcard()) {
          const Value* tilde = ValueAt(ctx, op.column);
          if (!tilde || tilde->is_null()) return Status::OK();
          elem = parent->AddElement(tilde->as_string());
        } else {
          if (under_optional && !HasDataUnder(p, i, ctx)) return Status::OK();
          elem = parent->AddElement(ctx.rt->names[i]);
        }
        return EmitBody(p, p.Kids(op)[0], ctx, elem,
                        /*under_optional=*/false);
      }
      case Type::Kind::kAttribute: {
        const Value* v = ValueAt(ctx, op.column);
        if (v && !v->is_null()) {
          std::array<char, 24> buf;
          parent->SetAttribute(ctx.rt->names[i], TextOf(*v, &buf));
        }
        return Status::OK();
      }
      case Type::Kind::kSequence: {
        for (uint32_t kid : p.Kids(op)) {
          LEGODB_RETURN_IF_ERROR(
              EmitBody(p, kid, ctx, parent, under_optional));
        }
        return Status::OK();
      }
      case Type::Kind::kUnion:
      case Type::Kind::kTypeRef:
        return EmitChildren(i, ctx, parent);
      case Type::Kind::kRepetition: {
        const uint32_t item = p.Kids(op)[0];
        const Type::Kind kind = p.ops[item].type->kind;
        if (t.is_optional_rep() && kind != Type::Kind::kTypeRef &&
            kind != Type::Kind::kUnion) {
          return EmitBody(p, item, ctx, parent, /*under_optional=*/true);
        }
        return EmitBody(p, item, ctx, parent, under_optional);
      }
    }
    return Status::Internal("unreachable");
  }

  Database* db_;
  xml::Arena* arena_;
  const std::vector<TypeProgram> programs_;
  // By type index, beside programs_; null until resolved.
  std::vector<std::unique_ptr<ReconstructType>> types_;
  std::vector<ChildRow> children_;
};

}  // namespace

Status ReconstructInstance(Database* db, const map::Mapping& mapping,
                           const std::string& type_name, int64_t id,
                           xml::Node* parent) {
  obs::Count("reconstruct.instances");
  const map::TypeMapping* tm = mapping.FindType(type_name);
  if (!tm || tm->virtual_union) {
    return Status::InvalidArgument("not a concrete type: " + type_name);
  }
  const int type = mapping.Index(*tm);
  Reconstructor r(db, mapping, &parent->arena());
  LEGODB_ASSIGN_OR_RETURN(size_t row, r.FindRow(type, id));
  return r.EmitInstance(type, row, parent);
}

StatusOr<xml::Document> ReconstructDocument(Database* db,
                                            const map::Mapping& mapping) {
  obs::Span span("reconstruct.document");
  obs::Count("reconstruct.documents");
  const int root_type = mapping.root();
  const map::TypeMapping& tm = mapping.type(root_type);
  if (tm.virtual_union) return Status::Unsupported("virtual root type");
  if (db->table(tm.table).row_count() == 0) {
    return Status::NotFound("no root instance stored");
  }
  xml::Document doc;
  xml::Node* holder = doc.CreateRoot("__doc__");
  Reconstructor r(db, mapping, &holder->arena());
  LEGODB_ASSIGN_OR_RETURN(const ReconstructType* rt, r.Resolve(root_type));
  // The document root has the smallest node id (the shredder assigns ids in
  // document order; buffered insert order differs for recursive types).
  const ColumnVector& keys = *rt->columns[rel::Table::kKeyColumn];
  size_t root_idx = 0;
  int64_t best_id = keys.value(0).as_int();
  for (size_t i = 1; i < keys.size(); ++i) {
    int64_t id = keys.value(i).as_int();
    if (id < best_id) {
      best_id = id;
      root_idx = i;
    }
  }
  LEGODB_RETURN_IF_ERROR(r.EmitInstance(root_type, root_idx, holder));
  if (holder->children().size() != 1 || !holder->children()[0]->is_element()) {
    return Status::Internal("reconstruction did not yield a single root");
  }
  doc.SetRoot(holder->children()[0]);
  return doc;
}

}  // namespace legodb::store
