#include "storage/shredder.h"

#include <set>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "obs/obs.h"
#include "xquery/evaluator.h"

namespace legodb::store {
namespace {

using map::Mapping;
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
                       /*parent=*/nullptr, /*parent_id=*/0, nullptr) ||
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
      Status st = buffer_[i].table->Insert(std::move(buffer_[i].row));
      if (!st.ok()) {
        for (size_t k = i; k-- > 0;) {
          (void)buffer_[k].table->RemoveLastRows(1);
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
    StoredTable* table;
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
    // The innermost element or attribute matched so far (null at the body
    // root): the owner of the slot a scalar here fills (map::Slot::node).
    const Type* owner = nullptr;
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

  // Stores `text` in the scalar slot owned by `owner`; false when the text
  // does not fit an integer `content` or no slot is owned by `owner`.
  bool SetScalar(const Ctx& ctx, const Type* owner, const Type& content,
                 const std::string& text) {
    if (content.kind == Type::Kind::kScalar &&
        content.scalar_kind == xs::ScalarKind::kInteger &&
        !IsInteger(StrTrim(text))) {
      return false;
    }
    int col = ctx.tm->SlotColumn(owner, /*tilde=*/false);
    if (col < 0) return false;
    (*ctx.row)[col] = xq::CanonicalValue(text);
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
          if (!SetScalar(*ctx, ctx->owner, *t,
                         (*ctx->items)[ctx->pos]->text())) {
            return false;
          }
          ++ctx->pos;
          return true;
        }
        // Empty content: acceptable for strings only.
        if (t->scalar_kind == xs::ScalarKind::kString) {
          return SetScalar(*ctx, ctx->owner, *t, "");
        }
        return false;
      }
      case Type::Kind::kElement: {
        if (ctx->pos >= ctx->items->size()) return false;
        const xml::Node* item = (*ctx->items)[ctx->pos];
        if (!item->is_element() || !t->name.Matches(item->name())) {
          return false;
        }
        if (t->name.is_wildcard()) {
          int col = ctx->tm->SlotColumn(t.get(), /*tilde=*/true);
          if (col < 0) return false;
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
        inner.owner = t.get();
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
        if (!ok) return false;
        ++ctx->pos;
        return true;
      }
      case Type::Kind::kAttribute: {
        if (!ctx->attr_elem) return false;
        const std::string* value =
            ctx->attr_elem->FindAttribute(t->name.name);
        if (!value) return false;
        bool ok = SetScalar(*ctx, t.get(), *t->child, *value);
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
                            ctx->tm, ctx->self_id,
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
                               ctx->tm, ctx->self_id,
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
                             ctx->tm, ctx->self_id,
                             ctx->attr_elem, ctx->matched_attrs);
    }
    return false;
  }

  // Matches one instance of named type `name` starting at items[*pos],
  // inserting (buffering) its row and its descendants' rows. `parent` is
  // the concrete (non-virtual) type whose row `parent_id` keys; null for
  // the document root.
  bool ShredInstance(const std::string& name,
                     const std::vector<const xml::Node*>& items, size_t* pos,
                     const TypeMapping* parent, int64_t parent_id,
                     const xml::Node* attr_elem,
                     std::set<std::string>* matched_attrs = nullptr) {
    const TypeMapping* tm = m_.FindType(name);
    if (!tm) return false;
    if (tm->virtual_union) {
      for (const auto& alt : tm->union_alternatives) {
        size_t saved_buffer = buffer_.size();
        size_t saved_pos = *pos;
        if (ShredInstance(alt, items, pos, parent, parent_id,
                          attr_elem, matched_attrs)) {
          return true;
        }
        buffer_.resize(saved_buffer);
        *pos = saved_pos;
      }
      return false;
    }
    StoredTable* table = &db_->GetTable(tm->table);
    Row row(table->meta().columns.size(), Value::MakeNull());
    int64_t id = db_->NextId();
    row[TypeMapping::kKeyColumn] = Value::Int(id);
    if (parent) {
      // Virtual-union contraction links the child to the concrete parent
      // the caller passes, so a direct link exists.
      int fk = tm->ParentColumn(parent->type_name);
      if (fk >= 0) row[fk] = Value::Int(parent_id);
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
    buffer_.push_back(Pending{table, std::move(row)});
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
