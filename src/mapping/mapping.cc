#include "mapping/mapping.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/str_util.h"
#include "pschema/pschema.h"

namespace legodb::map {

using xs::Schema;
using xs::Type;
using xs::TypePtr;

namespace {

// Width/distincts assumed for wildcard tag-name columns (no statistics
// exist for tag names themselves).
constexpr double kTildeWidth = 12;
constexpr double kTildeDistincts = 10;

// Relative weights of a union's alternatives: statistics-derived ref
// weights when the annotator attached them, an even split otherwise.
std::vector<double> UnionSplit(const TypePtr& u) {
  size_t n = u->children.size();
  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  double sum = 0;
  for (const auto& c : u->children) {
    if (c->ref_weight <= 0) return weights;
    sum += c->ref_weight;
  }
  if (sum <= 0) return weights;
  for (size_t i = 0; i < n; ++i) {
    weights[i] = u->children[i]->ref_weight / sum;
  }
  return weights;
}

// Calls `f` on each element or attribute directly inside body node `t`
// (through sequences and optionals), in body order.
template <typename F>
void ForEachPosition(const Type& t, const F& f) {
  switch (t.kind) {
    case Type::Kind::kElement:
    case Type::Kind::kAttribute:
      f(&t);
      return;
    case Type::Kind::kSequence:
      for (const auto& c : t.children) ForEachPosition(*c, f);
      return;
    case Type::Kind::kRepetition:
      if (t.is_optional_rep()) ForEachPosition(*t.child, f);
      return;
    default:
      return;
  }
}

// Whether a slot or a type reference lies at or under body node `t`.
bool HoldsContent(const Type& t) {
  switch (t.kind) {
    case Type::Kind::kEmpty:
      return false;
    case Type::Kind::kElement:
      return t.name.is_wildcard() || HoldsContent(*t.child);
    case Type::Kind::kAttribute:
      return HoldsContent(*t.child);
    case Type::Kind::kSequence:
      return std::any_of(t.children.begin(), t.children.end(),
                         [](const TypePtr& c) { return HoldsContent(*c); });
    case Type::Kind::kUnion:
      return !t.children.empty();
    case Type::Kind::kRepetition:
      return !t.is_optional_rep() || HoldsContent(*t.child);
    default:  // scalars and type references
      return true;
  }
}

}  // namespace

const Slot* TypeMapping::FindSlot(const xs::Type* node, bool tilde) const {
  for (const Slot& slot : slots) {
    if (slot.node == node && slot.is_tilde == tilde) return &slot;
  }
  return nullptr;
}

int TypeMapping::SlotColumn(const xs::Type* node, bool tilde) const {
  const Slot* slot = FindSlot(node, tilde);
  return slot ? ColumnOf(*slot) : -1;
}

int TypeMapping::ParentColumn(int parent) const {
  for (size_t i = 0; i < parents.size(); ++i) {
    if (parents[i] == parent) {
      return rel::Table::kKeyColumn + 1 + static_cast<int>(slots.size() + i);
    }
  }
  return -1;
}

const TypeMapping* Mapping::FindType(const std::string& name) const {
  auto it = std::lower_bound(
      types_.begin(), types_.end(), name,
      [](const TypeMapping& tm, const std::string& n) {
        return tm.type_name < n;
      });
  return it != types_.end() && it->type_name == name ? &*it : nullptr;
}

const TypeMapping& Mapping::GetType(const std::string& name) const {
  const TypeMapping* tm = FindType(name);
  LEGODB_CHECK(tm != nullptr, "Mapping::GetType: unknown type");
  return *tm;
}

const xs::Type* Mapping::RootPosition(const std::string& step) const {
  const Type* found = nullptr;
  ForEachPosition(*types_[root_].body, [&](const Type* n) {
    if (!found && n->kind == Type::Kind::kElement &&
        n->name.kind == xs::NameClass::Kind::kLiteral && n->name.name == step) {
      found = n;
    }
  });
  return found && HoldsContent(*found) ? found : nullptr;
}

void Mapping::Step(const TypeMapping& tm, const xs::Type* at,
                   const std::string& step, std::vector<Move>* out,
                   std::vector<int>* read) const {
  const bool attribute_step = StartsWith(step, "@");
  bool matched_element = false;
  const std::string_view attribute_name =
      std::string_view(step).substr(attribute_step ? 1 : 0);
  const Type* attribute = nullptr;
  std::vector<const Type*> wildcards;
  ForEachPosition(*at->child, [&](const Type* n) {
    if (n->kind == Type::Kind::kAttribute) {
      if (!attribute && n->name.name == attribute_name && HoldsContent(*n)) {
        attribute = n;
      }
    } else if (attribute_step) {
      return;
    } else if (!n->name.is_wildcard()) {
      if (n->name.name == step && HoldsContent(*n)) {
        out->push_back(Move{{}, &tm, n, nullptr});
        matched_element = true;
      }
    } else if (n->name.Matches(step)) {
      wildcards.push_back(n);
    }
  });
  for (const Type* n : wildcards) {
    out->push_back(Move{{}, &tm, n, tm.FindSlot(n, /*tilde=*/true)});
  }
  // A plain name falls back to an attribute (the paper's Q1 writes
  // $v/type for @type).
  if (attribute && (attribute_step || !matched_element)) {
    out->push_back(Move{{}, &tm, attribute, nullptr});
  }
  if (attribute_step) return;
  std::vector<const TypeMapping*> entered;
  for (const ChildRef& child : tm.children) {
    if (child.node == at) Enter(child.type, step, &entered, 0, out, read);
  }
}

void Mapping::Enter(int type, const std::string& step,
                    std::vector<const TypeMapping*>* entered, int depth,
                    std::vector<Move>* out, std::vector<int>* read) const {
  if (depth > 8) return;
  if (read) read->push_back(type);
  const TypeMapping& tm = types_[type];
  if (tm.virtual_union) {
    for (int alt : tm.union_alternatives) {
      Enter(alt, step, entered, depth + 1, out, read);
    }
    return;
  }
  entered->push_back(&tm);
  for (const TypeMapping::Entry& entry : tm.entries) {
    if (!entry.node) {
      Enter(entry.hop, step, entered, depth + 1, out, read);
    } else if (entry.node->name.Matches(step)) {
      const Slot* tilde = entry.node->name.is_wildcard()
                              ? tm.FindSlot(entry.node, /*tilde=*/true)
                              : nullptr;
      out->push_back(Move{*entered, &tm, entry.node, tilde});
    }
  }
  entered->pop_back();
}

// Builds the Mapping from a validated p-schema.
class Mapper {
 public:
  explicit Mapper(const Schema& schema) : schema_(schema) {}

  StatusOr<Mapping> Run() {
    LEGODB_RETURN_IF_ERROR(ps::CheckPhysical(schema_));
    const std::vector<int> reachable = schema_.ReachableFromRoot();
    // Mark the reachable types, then number them once, in name order.
    index_.assign(schema_.size(), -1);
    for (int t : reachable) index_[t] = 0;
    auto& types = result_.types_;
    for (int t : schema_.name_order()) {
      if (index_[t] < 0) continue;
      index_[t] = static_cast<int>(types.size());
      types.emplace_back().type_name = schema_.name(t);
    }
    slot_names_.resize(types.size());
    result_.root_ = index_[schema_.root()];
    for (int t : reachable) AnalyzeType(t);
    ComputeCounts();
    ComputeParents();
    LEGODB_RETURN_IF_ERROR(BuildCatalog(reachable));
    result_.schema_ = schema_;
    return std::move(result_);
  }

 private:
  // The mapped index of the body's next type reference; the walk meets
  // them in pre-order, as Schema::refs lists them. Validation guarantees
  // that each names a defined, hence reachable and mapped, type.
  int NextRef() {
    LEGODB_DCHECK(next_ref_ < refs_->size(), "Mapper: unlisted reference");
    return index_[(*refs_)[next_ref_++]];
  }

  void AnalyzeType(int t) {
    TypeMapping* tm = &result_.types_[index_[t]];
    const TypePtr& body = schema_.body(t);
    tm->body = body.get();
    tm->body_fingerprint = schema_.body_fingerprint(t);
    refs_ = &schema_.refs(t);
    next_ref_ = 0;
    if (body->kind == Type::Kind::kUnion) {
      // Stratification guarantees the alternatives are refs.
      tm->virtual_union = true;
      std::vector<double> weights = UnionSplit(body);
      for (size_t i = 0; i < body->children.size(); ++i) {
        ChildRef ref;
        ref.type = NextRef();
        ref.expected_per_parent = weights[i];
        ref.optional = true;
        ref.in_union = true;
        tm->union_alternatives.push_back(ref.type);
        tm->children.push_back(ref);
      }
      return;
    }
    tm->table = tables_++;
    body_ = body.get();
    ref_entries_.clear();
    WalkBody(body, /*presence=*/1.0, /*optional=*/false, tm);
    for (const TypeMapping::Entry& entry : ref_entries_) {
      if (entry.node &&
          std::any_of(tm->entries.begin(), tm->entries.end(),
                      [&](const auto& e) { return e.node == entry.node; })) {
        continue;
      }
      tm->entries.push_back(entry);
    }
  }

  // The body's top-level element around the walk, or null.
  const Type* TopElement() const {
    return !around_.empty() && around_[0]->kind == Type::Kind::kElement
               ? around_[0]
               : nullptr;
  }

  // Adds `slot`, owned by the innermost node around the walk, and records
  // its top-level element as an entry of the type.
  void AddSlot(Slot slot, TypeMapping* tm) {
    slot.node = around_.empty() ? nullptr : around_.back();
    slot_names_[result_.Index(*tm)].push_back(ColumnName(slot.is_tilde));
    const Type* top = TopElement();
    if (top && (tm->entries.empty() || tm->entries.back().node != top)) {
      tm->entries.push_back(TypeMapping::Entry{top});
    }
    tm->slots.push_back(std::move(slot));
  }

  // Adds `ref` at the walk's position; its entry (its top-level element,
  // or a hop into it at the body root) follows the slots' entries.
  void AddRef(ChildRef ref, TypeMapping* tm) {
    ref.node = around_.empty() ? nullptr : around_.back();
    const Type* top = TopElement();
    ref_entries_.push_back(TypeMapping::Entry{top, top ? -1 : ref.type});
    tm->children.push_back(ref);
  }

  // The column name of a slot at the walk's position: the names of the
  // elements and attributes around it joined by '_', leaving out the body's
  // root element and wildcards, plus "tilde" for a wildcard's tag column. A
  // scalar directly in the root element is named after that element (e.g.
  // table Aka, column aka); a nameless position falls back to "_data".
  // UniqueNames makes the names unique.
  std::string ColumnName(bool tilde) const {
    std::string name;
    for (const Type* n : around_) {
      if ((n == body_ && n->kind == Type::Kind::kElement) ||
          n->name.is_wildcard()) {
        continue;
      }
      if (!name.empty()) name += '_';
      name += n->name.name;
    }
    if (tilde) {
      name += name.empty() ? "tilde" : "_tilde";
    } else if (name.empty()) {
      name = body_->kind == Type::Kind::kElement && !body_->name.is_wildcard()
                 ? body_->name.name
                 : "_data";
    }
    return name;
  }

  // Makes the names of `columns`, a table laid out with `slots` slot
  // columns, unique: the key keeps its name, then each foreign key and then
  // each slot takes the first name not yet taken among its own and that
  // name suffixed "_2", "_3", ... A table has a handful of columns, so each
  // candidate name is checked against the names already given.
  static void UniqueNames(size_t slots, std::vector<rel::Column>* columns) {
    std::vector<const std::string*> given{&(*columns)[0].name};
    auto taken = [&](const std::string& name) {
      return std::any_of(given.begin(), given.end(),
                         [&](const std::string* g) { return *g == name; });
    };
    auto unique = [&](std::string* name) {
      if (taken(*name)) {
        int i = 2;
        while (taken(*name + "_" + std::to_string(i))) ++i;
        *name += "_" + std::to_string(i);
      }
      given.push_back(name);
    };
    for (size_t c = 1 + slots; c < columns->size(); ++c) {
      unique(&(*columns)[c].name);
    }
    for (size_t c = 1; c <= slots; ++c) unique(&(*columns)[c].name);
  }

  void WalkBody(const TypePtr& t, double presence, bool optional,
                TypeMapping* tm) {
    switch (t->kind) {
      case Type::Kind::kEmpty:
        return;
      case Type::Kind::kScalar: {
        Slot slot;
        slot.scalar = t;
        slot.optional = optional;
        slot.presence = presence;
        AddSlot(std::move(slot), tm);
        return;
      }
      case Type::Kind::kElement:
      case Type::Kind::kAttribute: {
        around_.push_back(t.get());
        if (t->kind == Type::Kind::kElement && t->name.is_wildcard()) {
          Slot tilde;
          tilde.is_tilde = true;
          tilde.optional = optional;
          tilde.presence = presence;
          AddSlot(std::move(tilde), tm);
        }
        WalkBody(t->child, presence, optional, tm);
        around_.pop_back();
        return;
      }
      case Type::Kind::kSequence: {
        for (const auto& c : t->children) {
          WalkBody(c, presence, optional, tm);
        }
        return;
      }
      case Type::Kind::kUnion: {
        // Non-top-level union of refs: each alternative is an exclusive,
        // optional child.
        std::vector<double> weights = UnionSplit(t);
        for (size_t i = 0; i < t->children.size(); ++i) {
          const auto& alt = t->children[i];
          LEGODB_CHECK(alt->kind == Type::Kind::kTypeRef,
                       "stratified union alternative must be a type ref");
          ChildRef ref;
          ref.type = NextRef();
          ref.expected_per_parent = presence * weights[i];
          ref.optional = true;
          ref.in_union = true;
          AddRef(ref, tm);
        }
        return;
      }
      case Type::Kind::kRepetition: {
        if (t->is_optional_rep()) {
          double p = t->avg_count > 0 ? std::min(1.0, t->avg_count) : 0.5;
          WalkBody(t->child, presence * p, /*optional=*/true, tm);
          return;
        }
        // Stratification: content is a ref or union of refs.
        double count = t->ExpectedCount() * presence;
        auto add_ref = [&](double expected, bool in_union) {
          ChildRef ref;
          ref.type = NextRef();
          ref.expected_per_parent = expected;
          ref.optional = t->min_occurs == 0 || optional || in_union;
          ref.min_occurs = t->min_occurs;
          ref.max_occurs = t->max_occurs;
          ref.in_union = in_union;
          AddRef(ref, tm);
        };
        if (t->child->kind == Type::Kind::kTypeRef) {
          add_ref(count, false);
        } else {
          std::vector<double> weights = UnionSplit(t->child);
          for (size_t i = 0; i < t->child->children.size(); ++i) {
            add_ref(count * weights[i], true);
          }
        }
        return;
      }
      case Type::Kind::kTypeRef: {
        ChildRef ref;
        ref.type = NextRef();
        ref.expected_per_parent = presence;
        ref.optional = optional;
        AddRef(ref, tm);
        return;
      }
    }
  }

  // Instance counts: the fixpoint of "a type's count is the sum over its
  // parents of parent count x expected children per parent", the root
  // fixed at 1. Each child's sum accumulates over its parents in index
  // order, each parent's references in body order. The iteration stops
  // when a pass reproduces its input exactly: every later pass would be
  // identical, so the result equals that of running all 64 passes.
  void ComputeCounts() {
    auto& types = result_.types_;
    const int root = result_.root_;
    // Recursive types with expansion factor >= 1 diverge; cap instance
    // counts so the fixpoint iteration (and downstream arithmetic) stays
    // finite.
    constexpr double kMaxInstances = 1e12;
    struct Edge {
      int parent;
      int child;
      double expected;
    };
    std::vector<Edge> edges;
    for (size_t parent = 0; parent < types.size(); ++parent) {
      for (const auto& child : types[parent].children) {
        edges.push_back(Edge{static_cast<int>(parent), child.type,
                             child.expected_per_parent});
      }
    }
    std::vector<double> counts(types.size(), 0.0);
    std::vector<double> next(types.size());
    counts[root] = 1;
    for (int iter = 0; iter < 64; ++iter) {
      std::fill(next.begin(), next.end(), 0.0);
      next[root] = 1;
      for (const Edge& e : edges) {
        double n = counts[e.parent];
        if (n <= 0) continue;
        next[e.child] = std::min(kMaxInstances, next[e.child] + n * e.expected);
      }
      bool fixpoint = next == counts;
      counts.swap(next);
      if (fixpoint) break;
    }
    for (size_t i = 0; i < types.size(); ++i) {
      types[i].instance_count = counts[i];
    }
  }

  // Resolves FK targets: virtual union parents are contracted away. Each
  // reference, parents in index order and each parent's references in body
  // order, links its type to the referencing type, or through a virtual
  // one to that type's own referrers; a type gets one link per parent.
  void ComputeParents() {
    const auto& types = result_.types_;
    referrers_.assign(types.size(), {});
    for (size_t parent = 0; parent < types.size(); ++parent) {
      for (const auto& ref : types[parent].children) {
        referrers_[ref.type].push_back(static_cast<int>(parent));
      }
    }
    for (size_t parent = 0; parent < types.size(); ++parent) {
      for (const auto& ref : types[parent].children) {
        climbed_.assign(types.size(), false);
        Attach(static_cast<int>(parent), ref.type);
      }
    }
  }

  // Links `child` to `parent`, or when `parent` is virtual to each of its
  // referrers in turn; a climb through cyclic virtual unions ends at the
  // first type it reaches twice.
  void Attach(int parent, int child) {
    if (climbed_[parent]) return;
    climbed_[parent] = true;
    auto& types = result_.types_;
    if (types[parent].virtual_union) {
      for (int referrer : referrers_[parent]) Attach(referrer, child);
      return;
    }
    auto& parents = types[child].parents;
    if (std::find(parents.begin(), parents.end(), parent) == parents.end()) {
      parents.push_back(parent);
    }
  }

  // One table per reachable non-virtual type, numbered in reachability order
  // by AnalyzeType, its columns in the order SlotColumn and ParentColumn read.
  Status BuildCatalog(const std::vector<int>& reachable) {
    const auto& types = result_.types_;
    for (int t : reachable) {
      const TypeMapping& tm = types[index_[t]];
      if (tm.virtual_union) continue;
      rel::Table table;
      table.name = tm.type_name;
      table.row_count = std::max(0.0, tm.instance_count);
      table.columns.reserve(1 + tm.slots.size() + tm.parents.size());

      rel::Column key;
      key.name = tm.type_name + "_id";
      key.type = rel::SqlType::Int();
      key.distincts = std::max(1.0, table.row_count);
      key.min = 1;
      key.max = static_cast<int64_t>(std::max(1.0, table.row_count));
      table.columns.push_back(std::move(key));

      std::vector<std::string>& names = slot_names_[index_[t]];
      for (size_t i = 0; i < tm.slots.size(); ++i) {
        const Slot& slot = tm.slots[i];
        rel::Column col;
        col.name = std::move(names[i]);
        col.nullable = slot.optional;
        col.null_fraction =
            std::clamp(1.0 - slot.presence, 0.0, 1.0);
        double nonnull_rows =
            std::max(1.0, table.row_count * (1.0 - col.null_fraction));
        if (slot.is_tilde) {
          col.type = rel::SqlType::Char(kTildeWidth);
          col.distincts = std::min(kTildeDistincts, nonnull_rows);
        } else if (slot.scalar->scalar_kind == xs::ScalarKind::kInteger) {
          col.type = rel::SqlType::Int();
          col.min = slot.scalar->scalar_stats.min;
          col.max = slot.scalar->scalar_stats.max;
          col.distincts = std::min(
              static_cast<double>(
                  std::max<int64_t>(1, slot.scalar->scalar_stats.distincts)),
              nonnull_rows);
        } else {
          col.type = rel::SqlType::Char(
              std::max(1.0, slot.scalar->scalar_stats.size));
          col.distincts = std::min(
              static_cast<double>(
                  std::max<int64_t>(1, slot.scalar->scalar_stats.distincts)),
              nonnull_rows);
        }
        table.columns.push_back(std::move(col));
      }

      for (int parent : tm.parents) {
        rel::Column fk;
        fk.name = "parent_" + types[parent].type_name;
        fk.type = rel::SqlType::Int();
        fk.nullable = tm.parents.size() > 1;
        double parent_rows = std::max(1.0, types[parent].instance_count);
        fk.distincts = std::min(parent_rows, std::max(1.0, table.row_count));
        fk.min = 1;
        fk.max = static_cast<int64_t>(parent_rows);
        table.foreign_keys.push_back(rel::ForeignKey{
            static_cast<int>(table.columns.size()), types[parent].table});
        table.columns.push_back(std::move(fk));
      }
      UniqueNames(tm.slots.size(), &table.columns);
      LEGODB_RETURN_IF_ERROR(
          result_.catalog_.AddTable(std::move(table)).status());
    }
    return Status::OK();
  }

  const Schema& schema_;
  // Each schema type's mapped index, -1 when unreachable.
  std::vector<int> index_;
  // The type body being walked: its root node, its resolved references and
  // the next one the walk meets, the elements and attributes around the
  // walk (outermost first), and the entries of its references in
  // `children` order.
  const Type* body_ = nullptr;
  const std::vector<int>* refs_ = nullptr;
  size_t next_ref_ = 0;
  int tables_ = 0;  // the tables numbered so far
  std::vector<const Type*> around_;
  std::vector<TypeMapping::Entry> ref_entries_;
  // Each mapped type's slot column names, in `slots` order, until
  // BuildCatalog moves them into its table.
  std::vector<std::vector<std::string>> slot_names_;
  // ComputeParents: the types referencing each type (in index order, once
  // per reference), and the types the current reference's climb reached.
  std::vector<std::vector<int>> referrers_;
  std::vector<bool> climbed_;
  Mapping result_;
};

StatusOr<Mapping> MapSchema(const Schema& pschema) {
  LEGODB_FAILPOINT("mapping.map_schema");
  return Mapper(pschema).Run();
}

}  // namespace legodb::map
