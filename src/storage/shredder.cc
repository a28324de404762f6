#include "storage/shredder.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "mapping/program.h"
#include "obs/obs.h"
#include "xquery/evaluator.h"

namespace legodb::store {
namespace {

using map::BodyOp;
using map::Mapping;
using map::TypeMapping;
using map::TypeProgram;
using xs::Type;

// What the first item an instance consumes can be, and whether it can
// consume none. Both over-approximate what the matcher accepts, so a type
// whose set rules out the current item (and that is not nullable) cannot
// match there.
struct FirstSet {
  std::vector<std::string> tags;  // literal element names, sorted
  bool any_element = false;       // a wildcard element
  bool text = false;              // a scalar's text
  bool nullable = false;

  void Merge(const FirstSet& other) {
    for (const auto& tag : other.tags) AddTag(tag);
    any_element |= other.any_element;
    text |= other.text;
  }
  void AddTag(const std::string& tag) {
    auto it = std::lower_bound(tags.begin(), tags.end(), tag);
    if (it == tags.end() || *it != tag) tags.insert(it, tag);
  }
  bool operator==(const FirstSet&) const = default;
};

// A type's shred program beyond its body (map::TypeProgram): the table its
// rows go to, and its names bound to the document's name ids.
struct ShredType {
  StoredTable* table = nullptr;  // null for virtual unions
  size_t columns = 0;
  FirstSet first;
  // Per body op: the document's id of a literal element or attribute name
  // (kNoName when the document lacks it, or for other ops).
  std::vector<xml::NameId> names;
  // Per document name id: whether `first.tags` holds it.
  std::vector<uint8_t> first_names;
};

class Shredder {
 public:
  Shredder(const Mapping& mapping, Database* db)
      : db_(db),
        programs_(map::CompileTypes(mapping)),
        types_(programs_.size()),
        root_(mapping.root()) {
    for (size_t i = 0; i < programs_.size(); ++i) {
      const TypeMapping& tm = *programs_[i].tm;
      ShredType& st = types_[i];
      if (!tm.virtual_union) {
        st.table = &db->table(tm.table);
        st.columns = st.table->meta().columns.size();
      }
    }
    ComputeFirstSets();
  }

  Status Shred(const xml::Document& doc) {
    if (!doc.root) return Status::InvalidArgument("document has no root");
    BindNames(doc);
    Ctx top;
    xml::Node* const root = doc.root.get();
    top.items = std::span<xml::Node* const>(&root, 1);
    if (!ShredInstance(root_, &top) ||
        top.pos != top.items.size()) {
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
    std::span<xml::Node* const> items;
    size_t pos = 0;
    // The element whose attributes apply (null at the document root), and
    // where its matched-attribute marks start in attr_marks_.
    const xml::Node* attr_elem = nullptr;
    size_t attr_base = 0;
    Row* row = nullptr;  // the row under construction (null at the top)
    int type = -1;       // its type
    int64_t self_id = 0;  // its key
  };

  // A backtracking point: the sizes of the trails, and the item position.
  struct Mark {
    size_t buffer;
    size_t cells;
    size_t attrs;
    size_t pos;
  };
  // A cell of the current row as it was before a write.
  struct CellUndo {
    int column;
    Value old;
  };

  Mark Save(const Ctx& ctx) const {
    return Mark{buffer_.size(), cells_.size(), attr_log_.size(), ctx.pos};
  }
  // Undoes everything matched since `mark`. The cell trail past `mark`
  // holds only ctx's row: an instance drops its own entries when it ends.
  void Restore(const Mark& mark, Ctx* ctx) {
    buffer_.erase(buffer_.begin() + static_cast<std::ptrdiff_t>(mark.buffer),
                  buffer_.end());
    while (cells_.size() > mark.cells) {
      (*ctx->row)[cells_.back().column] = std::move(cells_.back().old);
      cells_.pop_back();
    }
    while (attr_log_.size() > mark.attrs) {
      attr_marks_[attr_log_.back()] = 0;
      attr_log_.pop_back();
    }
    ctx->pos = mark.pos;
  }

  void SetCell(Ctx* ctx, int column, Value v) {
    Value& cell = (*ctx->row)[column];
    cells_.push_back(CellUndo{column, std::move(cell)});
    cell = std::move(v);
  }

  // Stores `text` in `column`; false when the text does not fit an integer
  // `content` or the mapper laid out no column here.
  bool SetScalar(Ctx* ctx, int column, const Type& content,
                 std::string_view text) {
    if (content.kind == Type::Kind::kScalar &&
        content.scalar_kind == xs::ScalarKind::kInteger &&
        !IsInteger(StrTrim(text))) {
      return false;
    }
    if (column < 0) return false;
    SetCell(ctx, column, xq::CanonicalValue(text));
    return true;
  }

  // Matches op `i` of program `p` (ctx's type) against the context;
  // consumes items and fills columns. Returns false (restoring nothing
  // itself — callers mark and restore) on mismatch.
  bool Match(const TypeProgram& p, uint32_t i, Ctx* ctx) {
    const BodyOp& op = p.ops[i];
    const Type& t = *op.type;
    switch (t.kind) {
      case Type::Kind::kEmpty:
        return true;
      case Type::Kind::kScalar: {
        if (ctx->pos < ctx->items.size() && ctx->items[ctx->pos]->is_text()) {
          if (!SetScalar(ctx, op.column, t, ctx->items[ctx->pos]->text())) {
            return false;
          }
          ++ctx->pos;
          return true;
        }
        // Empty content: acceptable for strings only.
        if (t.scalar_kind == xs::ScalarKind::kString) {
          return SetScalar(ctx, op.column, t, "");
        }
        return false;
      }
      case Type::Kind::kElement: {
        if (ctx->pos >= ctx->items.size()) return false;
        const xml::Node* item = ctx->items[ctx->pos];
        if (!item->is_element() || !NameMatches(t, i, *ctx, *item)) {
          return false;
        }
        if (t.name.is_wildcard()) {
          if (op.column < 0) return false;
          SetCell(ctx, op.column, Value::Str(std::string(item->name())));
        }
        // The element's attributes get one mark each; its content marks
        // them as it matches them.
        const size_t attr_base = attr_marks_.size();
        const size_t attr_log = attr_log_.size();
        attr_marks_.resize(attr_base + item->attributes().size(), 0);
        Ctx inner = *ctx;
        inner.items = item->children();
        inner.pos = 0;
        inner.attr_elem = item;
        inner.attr_base = attr_base;
        // Every attribute present on the element must be declared.
        const bool ok =
            Match(p, p.Kids(op)[0], &inner) &&
            inner.pos == inner.items.size() &&
            std::all_of(attr_marks_.begin() +
                            static_cast<std::ptrdiff_t>(attr_base),
                        attr_marks_.end(), [](uint8_t m) { return m != 0; });
        attr_log_.resize(attr_log);
        attr_marks_.resize(attr_base);
        if (!ok) return false;
        ++ctx->pos;
        return true;
      }
      case Type::Kind::kAttribute: {
        if (!ctx->attr_elem) return false;
        const xml::NameId name = types_[ctx->type].names[i];
        size_t index = 0;
        for (const xml::Attribute& a : ctx->attr_elem->attributes()) {
          if (a.id == name) {
            if (!SetScalar(ctx, op.column, *t.child, a.value)) return false;
            uint8_t& mark = attr_marks_[ctx->attr_base + index];
            if (!mark) {
              mark = 1;
              attr_log_.push_back(ctx->attr_base + index);
            }
            return true;
          }
          ++index;
        }
        return false;
      }
      case Type::Kind::kSequence: {
        for (uint32_t kid : p.Kids(op)) {
          if (!Match(p, kid, ctx)) return false;
        }
        return true;
      }
      case Type::Kind::kUnion: {
        // Stratification: alternatives are type refs, and a failed
        // instance undoes itself.
        for (uint32_t kid : p.Kids(op)) {
          if (ShredInstance(p.ops[kid].ref, ctx)) return true;
        }
        return false;
      }
      case Type::Kind::kRepetition: {
        const uint32_t item = p.Kids(op)[0];
        if (t.is_optional_rep()) {
          const Mark mark = Save(*ctx);
          if (Match(p, item, ctx)) return true;
          Restore(mark, ctx);
          return true;  // zero occurrences
        }
        uint32_t matched = 0;
        while (matched < t.max_occurs) {
          const Mark mark = Save(*ctx);
          if (!Match(p, item, ctx) || ctx->pos == mark.pos) {
            Restore(mark, ctx);
            break;
          }
          ++matched;
        }
        return matched >= t.min_occurs;
      }
      case Type::Kind::kTypeRef:
        return ShredInstance(op.ref, ctx);
    }
    return false;
  }

  // True unless type `type`'s first set rules out the item at ctx's
  // position.
  bool CanStart(int type, const Ctx& ctx) const {
    const FirstSet& first = types_[type].first;
    if (first.nullable) return true;
    if (ctx.pos >= ctx.items.size()) return false;
    const xml::Node& item = *ctx.items[ctx.pos];
    if (item.is_text()) return first.text;
    return first.any_element || types_[type].first_names[item.name_id()];
  }

  // True if element `item` has a name op `i` of ctx's type accepts.
  bool NameMatches(const Type& t, uint32_t i, const Ctx& ctx,
                   const xml::Node& item) const {
    const xml::NameId name = types_[ctx.type].names[i];
    switch (t.name.kind) {
      case xs::NameClass::Kind::kLiteral:
        return item.name_id() == name;
      case xs::NameClass::Kind::kAny:
        return true;
      case xs::NameClass::Kind::kAnyExcept:
        return item.name_id() != name;
    }
    return false;
  }

  // Binds every type's literal names and first-set tags to `doc`'s name
  // ids, so matching compares ids. A name the document lacks gets kNoName,
  // which no element has.
  void BindNames(const xml::Document& doc) {
    const size_t name_count = doc.root->arena().name_count();
    for (size_t type = 0; type < programs_.size(); ++type) {
      ShredType& st = types_[type];
      st.names.assign(programs_[type].ops.size(), xml::kNoName);
      for (size_t i = 0; i < programs_[type].ops.size(); ++i) {
        const Type& t = *programs_[type].ops[i].type;
        if ((t.kind == Type::Kind::kElement ||
             t.kind == Type::Kind::kAttribute) &&
            t.name.kind != xs::NameClass::Kind::kAny) {
          st.names[i] = doc.FindName(t.name.name);
        }
      }
      st.first_names.assign(name_count, 0);
      for (const std::string& tag : st.first.tags) {
        const xml::NameId id = doc.FindName(tag);
        if (id != xml::kNoName) st.first_names[id] = 1;
      }
    }
  }

  // Matches one instance of type `type` at ctx's position, as a child of
  // ctx's row, buffering its row and its descendants' rows. On failure it
  // leaves the buffer, the trails and the position as it found them (only
  // a drawn id is spent).
  bool ShredInstance(int type, Ctx* ctx) {
    if (!CanStart(type, *ctx)) return false;
    const TypeProgram& p = programs_[type];
    if (p.tm->virtual_union) {
      for (int alt : p.tm->union_alternatives) {
        if (ShredInstance(alt, ctx)) return true;
      }
      return false;
    }
    const ShredType& st = types_[type];
    Row row(st.columns, Value::MakeNull());
    const int64_t id = db_->NextId();
    row[rel::Table::kKeyColumn] = Value::Int(id);
    if (ctx->type >= 0) {
      // Virtual-union contraction links the child to the concrete parent
      // the caller passes, so a direct link exists.
      const int fk = p.tm->ParentColumn(ctx->type);
      if (fk >= 0) row[fk] = Value::Int(ctx->self_id);
    }
    const Mark entry = Save(*ctx);
    Ctx inner = *ctx;
    inner.row = &row;
    inner.type = type;
    inner.self_id = id;
    const bool ok = Match(p, 0, &inner);
    // This row's cell entries: it is buffered whole or dropped whole.
    cells_.resize(entry.cells);
    if (!ok) {
      Restore(entry, ctx);
      return false;
    }
    ctx->pos = inner.pos;
    buffer_.push_back(Pending{st.table, std::move(row)});
    return true;
  }

  // The first set of op `op` of program `p`, from the types' current sets.
  FirstSet FirstOf(const TypeProgram& p, const BodyOp& op) const {
    const Type& t = *op.type;
    FirstSet f;
    switch (t.kind) {
      case Type::Kind::kEmpty:
      case Type::Kind::kAttribute:  // consumes no item
        f.nullable = true;
        break;
      case Type::Kind::kScalar:
        f.text = true;
        f.nullable = t.scalar_kind == xs::ScalarKind::kString;
        break;
      case Type::Kind::kElement:
        if (t.name.is_wildcard()) {
          f.any_element = true;
        } else {
          f.AddTag(t.name.name);
        }
        break;
      case Type::Kind::kSequence:
        f.nullable = true;
        for (uint32_t kid : p.Kids(op)) {
          FirstSet k = FirstOf(p, p.ops[kid]);
          f.Merge(k);
          if (!k.nullable) {
            f.nullable = false;
            break;
          }
        }
        break;
      case Type::Kind::kUnion:
        for (uint32_t kid : p.Kids(op)) {
          FirstSet k = FirstOf(p, p.ops[kid]);
          f.Merge(k);
          f.nullable |= k.nullable;
        }
        break;
      case Type::Kind::kRepetition:
        f = FirstOf(p, p.ops[p.Kids(op)[0]]);
        f.nullable |= t.min_occurs == 0;
        break;
      case Type::Kind::kTypeRef:
        f = types_[op.ref].first;
        break;
    }
    return f;
  }

  // Least fixpoint over the (possibly recursive) type references.
  void ComputeFirstSets() {
    for (bool changed = true; changed;) {
      changed = false;
      for (size_t i = 0; i < programs_.size(); ++i) {
        const TypeProgram& p = programs_[i];
        FirstSet f;
        if (p.tm->virtual_union) {
          for (int alt : p.tm->union_alternatives) {
            f.Merge(types_[alt].first);
            f.nullable |= types_[alt].first.nullable;
          }
        } else {
          f = FirstOf(p, p.ops[0]);
        }
        if (!(f == types_[i].first)) {
          types_[i].first = std::move(f);
          changed = true;
        }
      }
    }
  }

  Database* db_;
  const std::vector<TypeProgram> programs_;
  std::vector<ShredType> types_;  // by type index, beside programs_
  const int root_;

  std::vector<Pending> buffer_;
  // The trails a Mark sizes: cell writes to the rows under construction,
  // and attribute marks set (indexes into attr_marks_, which holds one
  // mark per attribute of each element being matched, innermost last).
  std::vector<CellUndo> cells_;
  std::vector<size_t> attr_log_;
  std::vector<uint8_t> attr_marks_;
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
