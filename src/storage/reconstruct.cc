#include "storage/reconstruct.h"

#include <algorithm>

#include "obs/obs.h"
#include "pschema/pschema.h"

namespace legodb::store {
namespace {

using map::Mapping;
using map::RelPath;
using map::TypeMapping;
using xs::Type;
using xs::TypePtr;

class Reconstructor {
 public:
  Reconstructor(Database* db, const Mapping& mapping) : db_(db), m_(mapping) {}

  Status EmitInstance(const std::string& type_name, size_t row_idx,
                      xml::Node* parent) {
    const TypeMapping* tm = m_.FindType(type_name);
    if (!tm || tm->virtual_union) {
      return Status::Internal("EmitInstance on virtual/unknown type '" +
                              type_name + "'");
    }
    StoredTable& table = db_->GetTable(tm->table);
    // Materialize the row once per instance — on the paged backend this is
    // the only way at it (rows live on slotted pages, not in a Row vector).
    LEGODB_ASSIGN_OR_RETURN(Row row, table.ReadRow(row_idx));
    int key_idx = table.meta().ColumnIndex(table.meta().key_column);
    Ctx ctx;
    ctx.tm = tm;
    ctx.table = &table;
    ctx.row = &row;
    ctx.self_id = row[key_idx].as_int();
    return EmitBody(m_.schema().Get(type_name), &ctx, parent,
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
    const std::vector<size_t>& hits = index->Find(Value::Int(id));
    if (hits.empty()) {
      return Status::NotFound("no row with id " + std::to_string(id));
    }
    return hits[0];
  }

 private:
  struct Ctx {
    const TypeMapping* tm = nullptr;
    StoredTable* table = nullptr;
    const Row* row = nullptr;
    int64_t self_id = 0;
    RelPath path;
  };

  const Value* SlotValue(const Ctx& ctx, bool tilde) const {
    for (const auto& slot : ctx.tm->slots) {
      if (slot.is_tilde == tilde && slot.path == ctx.path) {
        int idx = ctx.table->meta().ColumnIndex(slot.column);
        if (idx >= 0) return &(*ctx.row)[idx];
      }
    }
    return nullptr;
  }

  // True if any column value or descendant row exists under `prefix` —
  // presence test for optional content.
  StatusOr<bool> HasDataUnder(const Ctx& ctx, const RelPath& prefix) {
    for (const auto& slot : ctx.tm->slots) {
      if (slot.path.size() < prefix.size()) continue;
      if (!std::equal(prefix.begin(), prefix.end(), slot.path.begin())) {
        continue;
      }
      int idx = ctx.table->meta().ColumnIndex(slot.column);
      if (idx >= 0 && !(*ctx.row)[idx].is_null()) return true;
    }
    for (const auto& child : ctx.tm->children) {
      if (child.path.size() < prefix.size()) continue;
      if (!std::equal(prefix.begin(), prefix.end(), child.path.begin())) {
        continue;
      }
      std::vector<ChildRow> rows;
      LEGODB_RETURN_IF_ERROR(CollectChildren(ctx, child.type_name, 0, &rows));
      if (!rows.empty()) return true;
    }
    return false;
  }

  // A child instance: (id, concrete type, row index).
  struct ChildRow {
    int64_t id;
    std::string type;
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
    StoredTable& table = db_->GetTable(ctm->table);
    std::string fk = "parent_" + ctx.tm->type_name;
    if (table.meta().ColumnIndex(fk) < 0) return Status::OK();
    LEGODB_ASSIGN_OR_RETURN(const HashIndex* index, table.GetOrBuildIndex(fk));
    LEGODB_ASSIGN_OR_RETURN(const ColumnVector* keys,
                            table.GetOrBuildColumn(table.meta().key_column));
    for (size_t idx : index->Find(Value::Int(ctx.self_id))) {
      out->push_back(ChildRow{keys->value(idx).as_int(), ref_type, idx});
    }
    return Status::OK();
  }

  // Emits the children a type ref — or a union of refs, whose alternatives
  // a repetition may interleave — points at, in id (= document) order.
  Status EmitChildren(const Ctx& ctx, const Type& t, xml::Node* parent) {
    std::vector<ChildRow> children;
    if (t.kind == Type::Kind::kUnion) {
      for (const auto& alt : t.children) {
        LEGODB_RETURN_IF_ERROR(
            CollectChildren(ctx, alt->ref_name, 0, &children));
      }
    } else {
      LEGODB_RETURN_IF_ERROR(CollectChildren(ctx, t.ref_name, 0, &children));
    }
    std::sort(children.begin(), children.end(),
              [](const ChildRow& a, const ChildRow& b) { return a.id < b.id; });
    for (const auto& child : children) {
      LEGODB_RETURN_IF_ERROR(EmitInstance(child.type, child.row_idx, parent));
    }
    return Status::OK();
  }

  Status EmitBody(const TypePtr& t, Ctx* ctx, xml::Node* parent,
                  bool under_optional) {
    switch (t->kind) {
      case Type::Kind::kEmpty:
        return Status::OK();
      case Type::Kind::kScalar: {
        const Value* v = SlotValue(*ctx, /*tilde=*/false);
        if (v && !v->is_null() && !v->ToString().empty()) {
          parent->AddText(v->ToString());
        }
        return Status::OK();
      }
      case Type::Kind::kElement: {
        ctx->path.push_back(m_.ElementStep(ctx->tm->type_name, t.get()));
        std::string tag;
        bool present = true;
        if (t->name.is_wildcard()) {
          const Value* tilde = SlotValue(*ctx, /*tilde=*/true);
          present = tilde && !tilde->is_null();
          if (present) tag = tilde->as_string();
        } else {
          tag = t->name.name;
          if (under_optional) {
            LEGODB_ASSIGN_OR_RETURN(present, HasDataUnder(*ctx, ctx->path));
          }
        }
        Status st = Status::OK();
        if (present) {
          xml::Node* elem = parent->AddChild(xml::Node::Element(tag));
          st = EmitBody(t->child, ctx, elem, /*under_optional=*/false);
        }
        ctx->path.pop_back();
        return st;
      }
      case Type::Kind::kAttribute: {
        ctx->path.push_back("@" + t->name.name);
        const Value* v = SlotValue(*ctx, /*tilde=*/false);
        if (v && !v->is_null()) {
          parent->SetAttribute(t->name.name, v->ToString());
        }
        ctx->path.pop_back();
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
  return r.EmitInstance(type_name, row_idx, parent);
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
  LEGODB_RETURN_IF_ERROR(r.EmitInstance(root, root_idx, holder.get()));
  if (holder->children().size() != 1 || !holder->children()[0]->is_element()) {
    return Status::Internal("reconstruction did not yield a single root");
  }
  xml::Document doc;
  doc.root = holder->ReleaseChild(0);
  return doc;
}

}  // namespace legodb::store
