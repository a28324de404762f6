#include "storage/shredder.h"

#include <set>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/str_util.h"
#include "obs/obs.h"
#include "xquery/evaluator.h"

namespace legodb::store {
namespace {

using map::Mapping;
using map::RelPath;
using map::Slot;
using map::TypeMapping;
using xs::Type;
using xs::TypePtr;

class Shredder {
 public:
  Shredder(const Mapping& mapping, Database* db) : m_(mapping), db_(db) {}

  Status Shred(const xml::Document& doc) {
    if (!doc.root) return Status::InvalidArgument("document has no root");
    std::vector<const xml::Node*> items = {doc.root.get()};
    size_t pos = 0;
    if (!ShredInstance(m_.schema().root_type(), items, &pos,
                       /*parent_type=*/"", /*parent_id=*/0, nullptr) ||
        pos != items.size()) {
      return Status::InvalidArgument(
          "document does not match the physical schema");
    }
    // Success: apply buffered inserts. On the paged backend an insert can
    // fail with real IO errors — roll back the rows already applied (LIFO
    // per table, which RemoveLastRows requires) so a failed document leaves
    // the database exactly as it found it.
    obs::Count("shred.rows", static_cast<int64_t>(buffer_.size()));
    for (size_t i = 0; i < buffer_.size(); ++i) {
      Status st = db_->GetTable(buffer_[i].table).Insert(
          std::move(buffer_[i].row));
      if (!st.ok()) {
        for (size_t k = i; k-- > 0;) {
          (void)db_->GetTable(buffer_[k].table).RemoveLastRows(1);
        }
        buffer_.clear();
        return st;
      }
    }
    buffer_.clear();
    return Status::OK();
  }

 private:
  struct Pending {
    std::string table;
    Row row;
  };

  // Matching context for one type instance.
  struct Ctx {
    const std::vector<const xml::Node*>* items;
    size_t pos = 0;
    const xml::Node* attr_elem = nullptr;  // element whose attributes apply
    // Attribute names of attr_elem consumed so far (scoped per element; an
    // element with unconsumed attributes does not match, mirroring the
    // validator).
    std::set<std::string>* matched_attrs = nullptr;
    Row* row = nullptr;
    const TypeMapping* tm = nullptr;
    RelPath path;
    int64_t self_id = 0;  // key of the row under construction
  };

  struct Checkpoint {
    size_t buffer_size;
    size_t pos;
    Row row_snapshot;
    std::set<std::string> attrs_snapshot;
  };

  Checkpoint Save(const Ctx& ctx) const {
    return Checkpoint{buffer_.size(), ctx.pos, *ctx.row,
                      ctx.matched_attrs ? *ctx.matched_attrs
                                        : std::set<std::string>()};
  }
  void Restore(const Checkpoint& cp, Ctx* ctx) {
    buffer_.resize(cp.buffer_size);
    ctx->pos = cp.pos;
    *ctx->row = cp.row_snapshot;
    if (ctx->matched_attrs) *ctx->matched_attrs = cp.attrs_snapshot;
  }

  int SlotColumnIndex(const Ctx& ctx, bool tilde) const {
    for (const auto& slot : ctx.tm->slots) {
      if (slot.is_tilde == tilde && slot.path == ctx.path) {
        const rel::Table& meta = db_->GetTable(ctx.tm->table).meta();
        return meta.ColumnIndex(slot.column);
      }
    }
    return -1;
  }

  bool SetScalar(Ctx* ctx, const TypePtr& scalar, const std::string& text) {
    std::string_view trimmed = StrTrim(text);
    if (scalar->scalar_kind == xs::ScalarKind::kInteger &&
        !IsInteger(trimmed)) {
      return false;
    }
    int col = SlotColumnIndex(*ctx, /*tilde=*/false);
    if (col < 0) return false;
    (*ctx->row)[col] = xq::CanonicalValue(text);
    return true;
  }

  // Matches type expression `t` against the context; consumes items and
  // fills columns. Returns false (restoring nothing itself — callers
  // checkpoint) on mismatch.
  bool MatchBody(const TypePtr& t, Ctx* ctx) {
    switch (t->kind) {
      case Type::Kind::kEmpty:
        return true;
      case Type::Kind::kScalar: {
        if (ctx->pos < ctx->items->size() &&
            (*ctx->items)[ctx->pos]->is_text()) {
          if (!SetScalar(ctx, t, (*ctx->items)[ctx->pos]->text())) {
            return false;
          }
          ++ctx->pos;
          return true;
        }
        // Empty content: acceptable for strings only.
        if (t->scalar_kind == xs::ScalarKind::kString) {
          return SetScalar(ctx, t, "");
        }
        return false;
      }
      case Type::Kind::kElement: {
        if (ctx->pos >= ctx->items->size()) return false;
        const xml::Node* item = (*ctx->items)[ctx->pos];
        if (!item->is_element() || !t->name.Matches(item->name())) {
          return false;
        }
        ctx->path.push_back(m_.ElementStep(ctx->tm->type_name, t.get()));
        if (t->name.is_wildcard()) {
          int col = SlotColumnIndex(*ctx, /*tilde=*/true);
          if (col < 0) {
            ctx->path.pop_back();
            return false;
          }
          (*ctx->row)[col] = Value::Str(item->name());
        }
        std::vector<const xml::Node*> children;
        for (const auto& c : item->children()) children.push_back(c.get());
        std::set<std::string> attrs;
        Ctx inner = *ctx;
        inner.items = &children;
        inner.pos = 0;
        inner.attr_elem = item;
        inner.matched_attrs = &attrs;
        bool ok = MatchBody(t->child, &inner) && inner.pos == children.size();
        if (ok) {
          // Every attribute present on the element must be declared.
          for (const auto& [attr_name, attr_value] : item->attributes()) {
            (void)attr_value;
            if (!attrs.count(attr_name)) {
              ok = false;
              break;
            }
          }
        }
        ctx->path.pop_back();
        if (!ok) return false;
        ++ctx->pos;
        return true;
      }
      case Type::Kind::kAttribute: {
        if (!ctx->attr_elem) return false;
        const std::string* value =
            ctx->attr_elem->FindAttribute(t->name.name);
        if (!value) return false;
        ctx->path.push_back("@" + t->name.name);
        bool ok = SetScalarFromAttr(ctx, t->child, *value);
        ctx->path.pop_back();
        if (ok && ctx->matched_attrs) {
          ctx->matched_attrs->insert(t->name.name);
        }
        return ok;
      }
      case Type::Kind::kSequence: {
        for (const auto& c : t->children) {
          if (!MatchBody(c, ctx)) return false;
        }
        return true;
      }
      case Type::Kind::kUnion: {
        // Stratification: alternatives are type refs.
        for (const auto& alt : t->children) {
          Checkpoint cp = Save(*ctx);
          if (ShredInstance(alt->ref_name, *ctx->items, &ctx->pos,
                            ctx->tm->type_name, ctx->self_id,
                            ctx->attr_elem, ctx->matched_attrs)) {
            return true;
          }
          Restore(cp, ctx);
        }
        return false;
      }
      case Type::Kind::kRepetition: {
        if (t->is_optional_rep()) {
          Checkpoint cp = Save(*ctx);
          if (MatchBody(t->child, ctx)) return true;
          Restore(cp, ctx);
          return true;  // zero occurrences
        }
        uint32_t matched = 0;
        while (matched < t->max_occurs) {
          Checkpoint cp = Save(*ctx);
          size_t before = ctx->pos;
          bool ok;
          if (t->child->kind == Type::Kind::kTypeRef) {
            ok = ShredInstance(t->child->ref_name, *ctx->items, &ctx->pos,
                               ctx->tm->type_name, ctx->self_id,
                               ctx->attr_elem, ctx->matched_attrs);
          } else {
            // Union of refs.
            ok = MatchBody(t->child, ctx);
          }
          if (!ok || ctx->pos == before) {
            Restore(cp, ctx);
            break;
          }
          ++matched;
        }
        return matched >= t->min_occurs;
      }
      case Type::Kind::kTypeRef:
        return ShredInstance(t->ref_name, *ctx->items, &ctx->pos,
                             ctx->tm->type_name, ctx->self_id,
                             ctx->attr_elem, ctx->matched_attrs);
    }
    return false;
  }

  bool SetScalarFromAttr(Ctx* ctx, const TypePtr& scalar,
                         const std::string& value) {
    if (scalar && scalar->kind == Type::Kind::kScalar &&
        scalar->scalar_kind == xs::ScalarKind::kInteger &&
        !IsInteger(StrTrim(value))) {
      return false;
    }
    int col = SlotColumnIndex(*ctx, /*tilde=*/false);
    if (col < 0) return false;
    (*ctx->row)[col] = xq::CanonicalValue(value);
    return true;
  }

  // Matches one instance of named type `name` starting at items[*pos],
  // inserting (buffering) its row and its descendants' rows.
  bool ShredInstance(const std::string& name,
                     const std::vector<const xml::Node*>& items, size_t* pos,
                     const std::string& parent_type, int64_t parent_id,
                     const xml::Node* attr_elem,
                     std::set<std::string>* matched_attrs = nullptr) {
    const TypeMapping* tm = m_.FindType(name);
    if (!tm) return false;
    if (tm->virtual_union) {
      for (const auto& alt : tm->union_alternatives) {
        size_t saved_buffer = buffer_.size();
        size_t saved_pos = *pos;
        if (ShredInstance(alt, items, pos, parent_type, parent_id,
                          attr_elem, matched_attrs)) {
          return true;
        }
        buffer_.resize(saved_buffer);
        *pos = saved_pos;
      }
      return false;
    }
    const rel::Table& meta = db_->GetTable(tm->table).meta();
    Row row(meta.columns.size(), Value::MakeNull());
    int64_t id = db_->NextId();
    int key_idx = meta.ColumnIndex(meta.key_column);
    LEGODB_CHECK(key_idx >= 0, "mapped table lost its key column");
    row[key_idx] = Value::Int(id);
    if (!parent_type.empty()) {
      // Resolve the FK through virtual-union contraction: the effective
      // parent may be an ancestor of `parent_type`; since the caller passes
      // the concrete (non-virtual) parent, a direct link must exist.
      int fk_idx = meta.ColumnIndex("parent_" + parent_type);
      if (fk_idx >= 0) row[fk_idx] = Value::Int(parent_id);
    }
    size_t saved_buffer = buffer_.size();
    size_t saved_pos = *pos;
    Ctx ctx;
    ctx.items = &items;
    ctx.pos = *pos;
    ctx.attr_elem = attr_elem;
    ctx.matched_attrs = matched_attrs;
    ctx.row = &row;
    ctx.tm = tm;
    ctx.self_id = id;
    TypePtr body = m_.schema().Get(name);
    if (!MatchBody(body, &ctx)) {
      buffer_.resize(saved_buffer);
      *pos = saved_pos;
      return false;
    }
    *pos = ctx.pos;
    buffer_.push_back(Pending{tm->table, std::move(row)});
    return true;
  }

  const Mapping& m_;
  Database* db_;
  std::vector<Pending> buffer_;
};

}  // namespace

Status ShredDocument(const xml::Document& doc, const map::Mapping& mapping,
                     Database* db) {
  LEGODB_FAILPOINT("shredder.document");
  obs::Span span("shred.document");
  obs::Count("shred.documents");
  LEGODB_RETURN_IF_ERROR(Shredder(mapping, db).Shred(doc));
  // Ends the load (paged write-back + durability barrier, memory column
  // trim). This is where the `storage.flush` failpoint surfaces to loaders.
  return db->Flush();
}

}  // namespace legodb::store
