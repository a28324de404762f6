#include "storage/reconstruct.h"

#include <algorithm>
#include <span>

#include "obs/obs.h"
#include "pschema/pschema.h"

namespace legodb::store {
namespace {

using map::Mapping;
using map::TypeMapping;
using xs::Type;
using xs::TypePtr;

class Reconstructor {
 public:
  Reconstructor(Database* db, const Mapping& mapping) : db_(db), m_(mapping) {}

  // Emits row `row_idx` of concrete type `tm`'s table.
  Status EmitInstance(const TypeMapping& tm, size_t row_idx,
                      xml::Node* parent) {
    // Materialize the row once per instance — on the paged backend this is
    // the only way at it (rows live on slotted pages, not in a Row vector).
    LEGODB_ASSIGN_OR_RETURN(Row row,
                            db_->GetTable(tm.table).ReadRow(row_idx));
    Ctx ctx;
    ctx.tm = &tm;
    ctx.row = &row;
    ctx.self_id = row[TypeMapping::kKeyColumn].as_int();
    return EmitBody(m_.schema().Get(tm.type_name), &ctx, parent,
                    /*under_optional=*/false);
  }

  // Finds a row by key id.
  StatusOr<size_t> FindRow(const std::string& type_name, int64_t id) {
    const TypeMapping* tm = m_.FindType(type_name);
    if (!tm || tm->virtual_union) {
      return Status::InvalidArgument("not a concrete type: " + type_name);
    }
    StoredTable& table = db_->GetTable(tm->table);
    LEGODB_ASSIGN_OR_RETURN(const HashIndex* index,
                            table.GetOrBuildIndex(table.meta().key_column));
    std::span<const int32_t> hits = index->FindInt(id);
    if (hits.empty()) {
      return Status::NotFound("no row with id " + std::to_string(id));
    }
    return static_cast<size_t>(hits[0]);
  }

 private:
  struct Ctx {
    const TypeMapping* tm = nullptr;
    const Row* row = nullptr;
    int64_t self_id = 0;
    // The innermost element or attribute emitted so far (null at the body
    // root): the owner of the slot a scalar here reads (map::Slot::node).
    const Type* owner = nullptr;
  };

  const Value* SlotValue(const Ctx& ctx, const Type* owner,
                         bool tilde) const {
    int col = ctx.tm->SlotColumn(owner, tilde);
    return col < 0 ? nullptr : &(*ctx.row)[col];
  }

  // True if any column value or descendant row exists inside `t`, whose
  // scalars `owner` owns — presence test for optional content.
  StatusOr<bool> HasDataUnder(const Ctx& ctx, const Type& t,
                              const Type* owner) {
    switch (t.kind) {
      case Type::Kind::kEmpty:
        return false;
      case Type::Kind::kScalar: {
        const Value* v = SlotValue(ctx, owner, /*tilde=*/false);
        return v && !v->is_null();
      }
      case Type::Kind::kElement:
      case Type::Kind::kAttribute:
        if (t.name.is_wildcard()) {
          const Value* tag = SlotValue(ctx, &t, /*tilde=*/true);
          if (tag && !tag->is_null()) return true;
        }
        return HasDataUnder(ctx, *t.child, &t);
      case Type::Kind::kRepetition:
        return HasDataUnder(ctx, *t.child, owner);
      case Type::Kind::kSequence:
        for (const auto& c : t.children) {
          LEGODB_ASSIGN_OR_RETURN(bool found, HasDataUnder(ctx, *c, owner));
          if (found) return true;
        }
        return false;
      case Type::Kind::kUnion:
      case Type::Kind::kTypeRef: {
        std::vector<ChildRow> rows;
        LEGODB_RETURN_IF_ERROR(CollectRefChildren(ctx, t, &rows));
        return !rows.empty();
      }
    }
    return false;
  }

  // A child instance: (id, concrete type, row index).
  struct ChildRow {
    int64_t id;
    const TypeMapping* tm;
    size_t row_idx;
  };

  // Appends every child instance of `ref_type` under this instance.
  Status CollectChildren(const Ctx& ctx, const std::string& ref_type,
                         int depth, std::vector<ChildRow>* out) const {
    if (depth > 16) return Status::OK();
    const TypeMapping* ctm = m_.FindType(ref_type);
    if (!ctm) return Status::OK();
    if (ctm->virtual_union) {
      for (const auto& alt : ctm->union_alternatives) {
        LEGODB_RETURN_IF_ERROR(CollectChildren(ctx, alt, depth + 1, out));
      }
      return Status::OK();
    }
    const int fk = ctm->ParentColumn(ctx.tm->type_name);
    if (fk < 0) return Status::OK();
    StoredTable& table = db_->GetTable(ctm->table);
    LEGODB_ASSIGN_OR_RETURN(
        const HashIndex* index,
        table.GetOrBuildIndex(table.meta().columns[fk].name));
    LEGODB_ASSIGN_OR_RETURN(const ColumnVector* keys,
                            table.GetOrBuildColumn(table.meta().key_column));
    for (int32_t idx : index->FindInt(ctx.self_id)) {
      const size_t row = static_cast<size_t>(idx);
      out->push_back(ChildRow{keys->value(row).as_int(), ctm, row});
    }
    return Status::OK();
  }

  // Appends the children a type ref — or a union of refs — points at.
  Status CollectRefChildren(const Ctx& ctx, const Type& t,
                            std::vector<ChildRow>* out) const {
    if (t.kind != Type::Kind::kUnion) {
      return CollectChildren(ctx, t.ref_name, 0, out);
    }
    for (const auto& alt : t.children) {
      LEGODB_RETURN_IF_ERROR(CollectChildren(ctx, alt->ref_name, 0, out));
    }
    return Status::OK();
  }

  // Emits the children a type ref — or a union of refs, whose alternatives
  // a repetition may interleave — points at, in id (= document) order.
  Status EmitChildren(const Ctx& ctx, const Type& t, xml::Node* parent) {
    std::vector<ChildRow> children;
    LEGODB_RETURN_IF_ERROR(CollectRefChildren(ctx, t, &children));
    std::sort(children.begin(), children.end(),
              [](const ChildRow& a, const ChildRow& b) { return a.id < b.id; });
    for (const auto& child : children) {
      LEGODB_RETURN_IF_ERROR(EmitInstance(*child.tm, child.row_idx, parent));
    }
    return Status::OK();
  }

  Status EmitBody(const TypePtr& t, Ctx* ctx, xml::Node* parent,
                  bool under_optional) {
    switch (t->kind) {
      case Type::Kind::kEmpty:
        return Status::OK();
      case Type::Kind::kScalar: {
        const Value* v = SlotValue(*ctx, ctx->owner, /*tilde=*/false);
        if (v && !v->is_null() && !v->ToString().empty()) {
          parent->AddText(v->ToString());
        }
        return Status::OK();
      }
      case Type::Kind::kElement: {
        std::string tag;
        bool present = true;
        if (t->name.is_wildcard()) {
          const Value* tilde = SlotValue(*ctx, t.get(), /*tilde=*/true);
          present = tilde && !tilde->is_null();
          if (present) tag = tilde->as_string();
        } else {
          tag = t->name.name;
          if (under_optional) {
            LEGODB_ASSIGN_OR_RETURN(present,
                                    HasDataUnder(*ctx, *t, ctx->owner));
          }
        }
        if (!present) return Status::OK();
        xml::Node* elem = parent->AddChild(xml::Node::Element(tag));
        const Type* outer = ctx->owner;
        ctx->owner = t.get();
        Status st = EmitBody(t->child, ctx, elem, /*under_optional=*/false);
        ctx->owner = outer;
        return st;
      }
      case Type::Kind::kAttribute: {
        const Value* v = SlotValue(*ctx, t.get(), /*tilde=*/false);
        if (v && !v->is_null()) {
          parent->SetAttribute(t->name.name, v->ToString());
        }
        return Status::OK();
      }
      case Type::Kind::kSequence: {
        for (const auto& c : t->children) {
          LEGODB_RETURN_IF_ERROR(EmitBody(c, ctx, parent, under_optional));
        }
        return Status::OK();
      }
      case Type::Kind::kUnion:
        return EmitChildren(*ctx, *t, parent);
      case Type::Kind::kRepetition: {
        if (t->is_optional_rep() &&
            t->child->kind != Type::Kind::kTypeRef &&
            t->child->kind != Type::Kind::kUnion) {
          return EmitBody(t->child, ctx, parent, /*under_optional=*/true);
        }
        return EmitBody(t->child, ctx, parent, under_optional);
      }
      case Type::Kind::kTypeRef:
        return EmitChildren(*ctx, *t, parent);
    }
    return Status::Internal("unreachable");
  }

  Database* db_;
  const Mapping& m_;
};

}  // namespace

Status ReconstructInstance(Database* db, const map::Mapping& mapping,
                           const std::string& type_name, int64_t id,
                           xml::Node* parent) {
  obs::Count("reconstruct.instances");
  Reconstructor r(db, mapping);
  LEGODB_ASSIGN_OR_RETURN(size_t row_idx, r.FindRow(type_name, id));
  return r.EmitInstance(mapping.GetType(type_name), row_idx, parent);
}

StatusOr<xml::Document> ReconstructDocument(Database* db,
                                            const map::Mapping& mapping) {
  obs::Span span("reconstruct.document");
  obs::Count("reconstruct.documents");
  const std::string& root = mapping.schema().root_type();
  const map::TypeMapping* tm = mapping.FindType(root);
  if (!tm || tm->virtual_union) {
    return Status::Unsupported("virtual root type");
  }
  StoredTable& table = db->GetTable(tm->table);
  if (table.row_count() == 0) {
    return Status::NotFound("no root instance stored");
  }
  // The document root has the smallest node id (the shredder assigns ids in
  // document order; buffered insert order differs for recursive types).
  LEGODB_ASSIGN_OR_RETURN(const ColumnVector* keys,
                          table.GetOrBuildColumn(table.meta().key_column));
  size_t root_idx = 0;
  int64_t best_id = keys->value(0).as_int();
  for (size_t i = 1; i < table.row_count(); ++i) {
    int64_t id = keys->value(i).as_int();
    if (id < best_id) {
      best_id = id;
      root_idx = i;
    }
  }
  Reconstructor r(db, mapping);
  xml::NodePtr holder = xml::Node::Element("__doc__");
  LEGODB_RETURN_IF_ERROR(r.EmitInstance(*tm, root_idx, holder.get()));
  if (holder->children().size() != 1 || !holder->children()[0]->is_element()) {
    return Status::Internal("reconstruction did not yield a single root");
  }
  xml::Document doc;
  doc.root = holder->ReleaseChild(0);
  return doc;
}

}  // namespace legodb::store
