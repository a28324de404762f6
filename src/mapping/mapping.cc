#include "mapping/mapping.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <functional>
#include <set>

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

std::string StepFor(const xs::NameClass& name) {
  return name.kind == xs::NameClass::Kind::kLiteral ? name.name : "~";
}

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

}  // namespace

std::string BaseStep(const std::string& step) {
  size_t hash = step.rfind('#');
  if (hash == std::string::npos || hash == 0) return step;
  // "@name" steps never carry ordinals at position 0; verify digits follow.
  for (size_t i = hash + 1; i < step.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(step[i]))) return step;
  }
  return step.substr(0, hash);
}

int TypeMapping::SlotColumn(const xs::Type* node, bool tilde) const {
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].node == node && slots[i].is_tilde == tilde) {
      return kKeyColumn + 1 + static_cast<int>(i);
    }
  }
  return -1;
}

int TypeMapping::ParentColumn(const std::string& parent_type) const {
  for (size_t i = 0; i < parents.size(); ++i) {
    if (parents[i].parent_type == parent_type) {
      return kKeyColumn + 1 + static_cast<int>(slots.size() + i);
    }
  }
  return -1;
}

const TypeMapping* Mapping::FindType(const std::string& name) const {
  auto it = types_.find(name);
  return it == types_.end() ? nullptr : &it->second;
}

const TypeMapping& Mapping::GetType(const std::string& name) const {
  const TypeMapping* tm = FindType(name);
  LEGODB_CHECK(tm != nullptr, "Mapping::GetType: unknown type");
  return *tm;
}

std::vector<std::string> Mapping::EntryNames(
    const std::string& type_name) const {
  std::vector<std::string> names;
  std::set<std::string> seen;
  std::function<void(const std::string&, int)> visit =
      [&](const std::string& name, int depth) {
        const TypeMapping* tm = FindType(name);
        if (!tm || depth > 16) return;
        if (tm->virtual_union) {
          for (const auto& alt : tm->union_alternatives) visit(alt, depth + 1);
          return;
        }
        auto add = [&](const RelPath& path) {
          if (path.empty()) return;
          std::string base = BaseStep(path[0]);
          std::string step = base == "~" ? "*" : base;
          if (!StartsWith(step, "@") && seen.insert(step).second) {
            names.push_back(step);
          }
        };
        for (const auto& slot : tm->slots) add(slot.path);
        for (const auto& child : tm->children) {
          if (!child.path.empty()) {
            add(child.path);
          } else {
            // Ref at the very top of the body: entries come from the child.
            visit(child.type_name, depth + 1);
          }
        }
      };
  visit(type_name, 0);
  return names;
}

// Builds the Mapping from a validated p-schema.
class Mapper {
 public:
  explicit Mapper(const Schema& schema) : schema_(schema) {}

  StatusOr<Mapping> Run() {
    LEGODB_RETURN_IF_ERROR(ps::CheckPhysical(schema_));
    const std::vector<std::string> reachable = schema_.ReachableFromRoot();
    for (const auto& name : reachable) AnalyzeType(name);
    ComputeCounts();
    ComputeParents();
    LEGODB_RETURN_IF_ERROR(BuildCatalog(reachable));
    result_.schema_ = schema_;
    return std::move(result_);
  }

 private:
  void AnalyzeType(const std::string& name) {
    TypeMapping tm;
    tm.type_name = name;
    TypePtr body = schema_.Get(name);
    if (body->kind == Type::Kind::kUnion) {
      // Stratification guarantees the alternatives are refs.
      tm.virtual_union = true;
      std::vector<double> weights = UnionSplit(body);
      for (size_t i = 0; i < body->children.size(); ++i) {
        const auto& alt = body->children[i];
        tm.union_alternatives.push_back(alt->ref_name);
        ChildRef ref;
        ref.type_name = alt->ref_name;
        ref.expected_per_parent = weights[i];
        ref.optional = true;
        ref.in_union = true;
        tm.children.push_back(std::move(ref));
      }
    } else {
      tm.table = name;
      step_counts_.clear();
      RelPath path;
      WalkBody(body, &path, /*owner=*/nullptr, /*presence=*/1.0,
               /*optional=*/false, &tm);
      NameColumns(&tm, body);
    }
    result_.types_[name] = std::move(tm);
  }

  // Assigns the path step for an element node, suffixing an ordinal when
  // the same step already occurred among siblings at this position.
  std::string AssignStep(const TypePtr& t, const RelPath& parent_path) {
    std::string base = StepFor(t->name);
    int& count = step_counts_[parent_path][base];
    ++count;
    return count == 1 ? base : base + "#" + std::to_string(count);
  }

  // `owner` is the innermost element or attribute around `t` (null at the
  // body root): the node a scalar's slot belongs to.
  void WalkBody(const TypePtr& t, RelPath* path, const Type* owner,
                double presence, bool optional, TypeMapping* tm) {
    switch (t->kind) {
      case Type::Kind::kEmpty:
        return;
      case Type::Kind::kScalar: {
        Slot slot;
        slot.path = *path;
        slot.node = owner;
        slot.scalar = t;
        slot.optional = optional;
        slot.presence = presence;
        tm->slots.push_back(std::move(slot));
        return;
      }
      case Type::Kind::kElement: {
        path->push_back(AssignStep(t, *path));
        if (t->name.is_wildcard()) {
          Slot tilde;
          tilde.path = *path;
          tilde.node = t.get();
          tilde.is_tilde = true;
          tilde.wildcard_name = t->name;
          tilde.optional = optional;
          tilde.presence = presence;
          tm->slots.push_back(std::move(tilde));
        }
        WalkBody(t->child, path, t.get(), presence, optional, tm);
        path->pop_back();
        return;
      }
      case Type::Kind::kAttribute: {
        path->push_back("@" + t->name.name);
        WalkBody(t->child, path, t.get(), presence, optional, tm);
        path->pop_back();
        return;
      }
      case Type::Kind::kSequence: {
        for (const auto& c : t->children) {
          WalkBody(c, path, owner, presence, optional, tm);
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
          ref.path = *path;
          ref.type_name = alt->ref_name;
          ref.expected_per_parent = presence * weights[i];
          ref.optional = true;
          ref.in_union = true;
          tm->children.push_back(std::move(ref));
        }
        return;
      }
      case Type::Kind::kRepetition: {
        if (t->is_optional_rep()) {
          double p = t->avg_count > 0 ? std::min(1.0, t->avg_count) : 0.5;
          WalkBody(t->child, path, owner, presence * p, /*optional=*/true,
                   tm);
          return;
        }
        // Stratification: content is a ref or union of refs.
        double count = t->ExpectedCount() * presence;
        auto add_ref = [&](const std::string& ref_name, double expected,
                           bool in_union) {
          ChildRef ref;
          ref.path = *path;
          ref.type_name = ref_name;
          ref.expected_per_parent = expected;
          ref.optional = t->min_occurs == 0 || optional || in_union;
          ref.min_occurs = t->min_occurs;
          ref.max_occurs = t->max_occurs;
          ref.in_union = in_union;
          tm->children.push_back(std::move(ref));
        };
        if (t->child->kind == Type::Kind::kTypeRef) {
          add_ref(t->child->ref_name, count, false);
        } else {
          std::vector<double> weights = UnionSplit(t->child);
          for (size_t i = 0; i < t->child->children.size(); ++i) {
            add_ref(t->child->children[i]->ref_name, count * weights[i],
                    true);
          }
        }
        return;
      }
      case Type::Kind::kTypeRef: {
        ChildRef ref;
        ref.path = *path;
        ref.type_name = t->ref_name;
        ref.expected_per_parent = presence;
        ref.optional = optional;
        tm->children.push_back(std::move(ref));
        return;
      }
    }
  }

  // Assigns column names: path components joined by '_', dropping the body
  // root element's own step, mapping "@a" to "a" and wildcard steps to
  // nothing (the tilde column itself is named "tilde"). A scalar directly in
  // the root element is named after that element (e.g. table Aka, column
  // aka); a nameless position falls back to "_data".
  void NameColumns(TypeMapping* tm, const TypePtr& body) {
    std::string root_step;
    if (body->kind == Type::Kind::kElement &&
        body->name.kind == xs::NameClass::Kind::kLiteral) {
      root_step = body->name.name;
    }
    std::set<std::string> used;
    for (auto& slot : tm->slots) {
      std::vector<std::string> comps;
      for (size_t i = 0; i < slot.path.size(); ++i) {
        std::string step = BaseStep(slot.path[i]);
        if (i == 0 && !root_step.empty() && step == root_step) continue;
        if (step == "~") continue;
        if (StartsWith(step, "@")) step = step.substr(1);
        comps.push_back(std::move(step));
      }
      std::string name;
      if (slot.is_tilde) {
        comps.push_back("tilde");
        name = StrJoin(comps, "_");
      } else if (comps.empty()) {
        name = !root_step.empty() ? root_step : "_data";
      } else {
        name = StrJoin(comps, "_");
      }
      std::string unique = name;
      for (int i = 2; used.count(unique); ++i) {
        unique = name + "_" + std::to_string(i);
      }
      used.insert(unique);
      slot.column = std::move(unique);
    }
  }

  // Instance counts: the fixpoint of "a type's count is the sum over its
  // parents of parent count x expected children per parent", the root
  // fixed at 1. Types are indexed by id in name order, so each child's sum
  // accumulates in the same order as a walk over `types_`. The iteration
  // stops when a pass reproduces its input exactly: every later pass would
  // be identical, so the result equals that of running all 64 passes.
  void ComputeCounts() {
    auto& types = result_.types_;
    // Recursive types with expansion factor >= 1 diverge; cap instance
    // counts so the fixpoint iteration (and downstream arithmetic) stays
    // finite.
    constexpr double kMaxInstances = 1e12;
    std::vector<const std::string*> names;  // by id, sorted
    names.reserve(types.size());
    for (const auto& entry : types) names.push_back(&entry.first);
    // The id of `name`, or types.size() when it is not a mapped type.
    auto id_of = [&](const std::string& name) {
      auto it = std::lower_bound(
          names.begin(), names.end(), name,
          [](const std::string* a, const std::string& b) { return *a < b; });
      return it != names.end() && **it == name
                 ? static_cast<size_t>(it - names.begin())
                 : names.size();
    };
    // Parent-to-child references by id, parents in id order, each
    // parent's children in body order.
    struct Edge {
      size_t parent;
      size_t child;
      double expected;
    };
    std::vector<Edge> edges;
    size_t parent = 0;
    for (const auto& [name, tm] : types) {
      for (const auto& child : tm.children) {
        // A count for an unmapped type would never be read.
        size_t id = id_of(child.type_name);
        if (id < names.size()) {
          edges.push_back(Edge{parent, id, child.expected_per_parent});
        }
      }
      ++parent;
    }
    const size_t root = id_of(schema_.root_type());
    std::vector<double> counts(types.size(), 0.0);
    std::vector<double> next(types.size());
    if (root < counts.size()) counts[root] = 1;
    for (int iter = 0; iter < 64; ++iter) {
      std::fill(next.begin(), next.end(), 0.0);
      if (root < next.size()) next[root] = 1;
      for (const Edge& e : edges) {
        double n = counts[e.parent];
        if (n <= 0) continue;
        next[e.child] = std::min(kMaxInstances, next[e.child] + n * e.expected);
      }
      bool fixpoint = next == counts;
      counts.swap(next);
      if (fixpoint) break;
    }
    size_t id = 0;
    for (auto& [name, tm] : types) tm.instance_count = counts[id++];
  }

  // Resolves FK targets: virtual union parents are contracted away.
  void ComputeParents() {
    auto& types = result_.types_;
    // Raw edges: parent -> (child, expected).
    for (auto& [child_name, child_tm] : types) {
      (void)child_name;
      child_tm.parents.clear();
    }
    // For each type T and each ChildRef C, attach an effective-parent link
    // to C (resolving virtual T up the chain).
    std::function<void(const std::string&, const std::string&, double,
                       std::set<std::string>*)>
        attach = [&](const std::string& parent, const std::string& child,
                     double expected, std::set<std::string>* guard) {
          if (!guard->insert(parent).second) return;
          auto it = types.find(parent);
          if (it == types.end()) return;
          if (!it->second.virtual_union) {
            TypeMapping& child_tm = types[child];
            // Merge with an existing link to the same parent, if any.
            for (auto& link : child_tm.parents) {
              if (link.parent_type == parent) {
                link.expected_per_parent += expected;
                return;
              }
            }
            child_tm.parents.push_back(TypeMapping::ParentLink{
                "parent_" + parent, parent, expected});
            return;
          }
          // Virtual parent: climb to ITS parents.
          for (const auto& [gp_name, gp_tm] : types) {
            for (const auto& ref : gp_tm.children) {
              if (ref.type_name != parent) continue;
              attach(gp_name, child, expected * ref.expected_per_parent,
                     guard);
            }
          }
        };
    for (const auto& [parent_name, parent_tm] : types) {
      for (const auto& ref : parent_tm.children) {
        std::set<std::string> guard;
        attach(parent_name, ref.type_name, ref.expected_per_parent, &guard);
      }
    }
  }

  // One table per reachable non-virtual type, in reachability order, its
  // columns in the order TypeMapping::SlotColumn and ParentColumn read.
  Status BuildCatalog(const std::vector<std::string>& reachable) {
    auto& types = result_.types_;
    for (const auto& name : reachable) {
      TypeMapping& tm = types[name];
      if (tm.virtual_union) continue;
      rel::Table table;
      table.name = tm.table;
      table.row_count = std::max(0.0, tm.instance_count);
      table.key_column = tm.table + "_id";

      rel::Column key;
      key.name = table.key_column;
      key.type = rel::SqlType::Int();
      key.distincts = std::max(1.0, table.row_count);
      key.min = 1;
      key.max = static_cast<int64_t>(std::max(1.0, table.row_count));
      table.columns.push_back(std::move(key));

      for (const auto& slot : tm.slots) {
        rel::Column col;
        col.name = slot.column;
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

      for (const auto& link : tm.parents) {
        rel::Column fk;
        fk.name = link.fk_column;
        fk.type = rel::SqlType::Int();
        fk.nullable = tm.parents.size() > 1;
        double parent_rows =
            std::max(1.0, types[link.parent_type].instance_count);
        fk.distincts = std::min(parent_rows, std::max(1.0, table.row_count));
        fk.min = 1;
        fk.max = static_cast<int64_t>(parent_rows);
        table.columns.push_back(std::move(fk));
        table.foreign_keys.push_back(
            rel::ForeignKey{link.fk_column, types[link.parent_type].table});
      }
      LEGODB_RETURN_IF_ERROR(result_.catalog_.AddTable(std::move(table)));
    }
    return Status::OK();
  }

  const Schema& schema_;
  // Sibling-step occurrence counts for the type body being analyzed.
  std::map<RelPath, std::map<std::string, int>> step_counts_;
  Mapping result_;
};

StatusOr<Mapping> MapSchema(const Schema& pschema) {
  LEGODB_FAILPOINT("mapping.map_schema");
  return Mapper(pschema).Run();
}

}  // namespace legodb::map
