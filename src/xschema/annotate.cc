#include "xschema/annotate.h"

#include <optional>
#include <set>

namespace legodb::xs {
namespace {

// The path step an element occupies in the statistics: its literal tag, or
// the Appendix-A pseudo-step "TILDE" for wildcard names.
std::string PathStep(const NameClass& name) {
  return name.kind == NameClass::Kind::kLiteral ? name.name : "TILDE";
}

class Annotator {
 public:
  Annotator(const Schema& in, const StatsSet& stats)
      : in_(in), stats_(stats), out_(in), done_(in.size(), 0) {}

  Schema Run() {
    // The document root exists exactly once.
    double root_instances = 1;
    AnnotateNamed(in_.root_type(), {}, root_instances);
    return std::move(out_);
  }

 private:
  void AnnotateNamed(const std::string& name, const StatPath& path,
                     double instances) {
    int type = in_.IndexOf(name);
    if (type < 0 || done_[type]) return;
    done_[type] = 1;
    out_.Redefine(type, Walk(in_.body(type), path, instances));
  }

  // The first node in `t` that is not a reference, sequence or repetition,
  // following references, a sequence's first item and a repetition's item;
  // null past 32 steps. `depth` counts the steps.
  TypePtr FirstItem(TypePtr t, int* depth) {
    for (; t && *depth <= 32; ++*depth) {
      switch (t->kind) {
        case Type::Kind::kTypeRef:
          t = in_.Find(t->ref_name);
          break;
        case Type::Kind::kSequence:
          t = t->children.empty() ? nullptr : t->children[0];
          break;
        case Type::Kind::kRepetition:
          t = t->child;
          break;
        default:
          return t;
      }
    }
    return nullptr;
  }

  // Statistics path of the first element reachable in `t` at `path`.
  std::optional<StatPath> FirstElementPath(const TypePtr& t,
                                           const StatPath& path, int depth) {
    TypePtr first = FirstItem(t, &depth);
    if (!first || first->kind != Type::Kind::kElement) return std::nullopt;
    StatPath p = path;
    p.push_back(PathStep(first->name));
    return p;
  }

  // Absolute occurrence count of the first element reachable in `t` at
  // `path` (used to compute repetition averages).
  std::optional<double> TotalCountOf(const TypePtr& t, const StatPath& path,
                                     int depth = 0) {
    TypePtr first = FirstItem(t, &depth);
    if (first && first->kind == Type::Kind::kElement) {
      auto n = stats_.Count(*FirstElementPath(first, path, depth));
      return n ? std::optional<double>(*n) : std::nullopt;
    }
    if (!first || first->kind != Type::Kind::kUnion) return std::nullopt;
    // Sum the alternatives, but count each first-element path once:
    // distributed partitions (Show_Part1 | Show_Part2) both start with
    // <show> and describe disjoint subsets of the same elements.
    double total = 0;
    bool any = false;
    std::set<StatPath> seen;
    for (const auto& alt : first->children) {
      std::optional<StatPath> p = FirstElementPath(alt, path, depth + 1);
      if (!p || !seen.insert(*p).second) continue;
      if (auto n = stats_.Count(*p)) {
        total += static_cast<double>(*n);
        any = true;
      }
    }
    return any ? std::optional<double>(total) : std::nullopt;
  }

  TypePtr Walk(const TypePtr& t, const StatPath& path, double instances) {
    switch (t->kind) {
      case Type::Kind::kEmpty:
        return t;
      case Type::Kind::kScalar:
        return AnnotateScalar(t, path, instances);
      case Type::Kind::kElement: {
        StatPath p = path;
        p.push_back(PathStep(t->name));
        double n = static_cast<double>(
            stats_.Count(p).value_or(static_cast<int64_t>(instances)));
        return Type::Element(t->name, Walk(t->child, p, n));
      }
      case Type::Kind::kAttribute: {
        StatPath p = path;
        p.push_back(t->name.name);
        return Type::Attribute(t->name.name, Walk(t->child, p, instances));
      }
      case Type::Kind::kSequence: {
        std::vector<TypePtr> items;
        items.reserve(t->children.size());
        for (const auto& c : t->children) items.push_back(Walk(c, path, instances));
        return Type::Sequence(std::move(items));
      }
      case Type::Kind::kUnion: {
        // Walk each alternative with branch-local instance counts so
        // statistics nested inside a branch are not double-discounted.
        std::vector<double> weights = UnionWeights(t, path);
        std::vector<TypePtr> alts;
        alts.reserve(t->children.size());
        bool all_refs = true;
        for (size_t i = 0; i < t->children.size(); ++i) {
          alts.push_back(
              Walk(t->children[i], path, instances * weights[i]));
          all_refs = all_refs && t->children[i]->kind == Type::Kind::kTypeRef;
        }
        // A union of references carries its branch weights on them.
        for (size_t i = 0; all_refs && i < alts.size(); ++i) {
          alts[i] = Type::RefWeighted(t->children[i]->ref_name, weights[i]);
        }
        return Type::Union(std::move(alts));
      }
      case Type::Kind::kRepetition: {
        std::optional<double> total = TotalCountOf(t->child, path);
        double avg = 0;
        if (total && instances > 0) avg = *total / instances;
        double child_instances =
            total.value_or(instances * t->ExpectedCount());
        TypePtr child = Walk(t->child, path, child_instances);
        auto rep = Type::Repetition(std::move(child), t->min_occurs,
                                    t->max_occurs, avg);
        return rep;
      }
      case Type::Kind::kTypeRef:
        AnnotateNamed(t->ref_name, path, instances);
        return t;
    }
    return t;
  }

  // Normalized branch weights for a union, an even split when statistics
  // cannot discriminate the branches. A branch's estimate is the minimum
  // count among the singleton child elements of a referenced branch, which
  // tells apart branches that start with the same tag (e.g. box_office vs
  // seasons in a distributed Show), else the count of its first element.
  std::vector<double> UnionWeights(const TypePtr& u, const StatPath& path) {
    size_t n = u->children.size();
    std::vector<double> weights(n, 1.0 / static_cast<double>(n));
    std::vector<double> estimates;
    double sum = 0;
    for (const auto& alt : u->children) {
      std::optional<double> est;
      if (alt->kind == Type::Kind::kTypeRef) {
        est = InnerSingletonCount(alt, path);
      }
      if (!est) est = TotalCountOf(alt, path);
      if (!est || *est <= 0) return weights;
      estimates.push_back(*est);
      sum += *est;
    }
    for (size_t i = 0; i < n; ++i) weights[i] = estimates[i] / sum;
    return weights;
  }

  // Minimum occurrence count among the singleton ({1,1}) literal child
  // elements directly inside a referenced type's root element.
  std::optional<double> InnerSingletonCount(const TypePtr& ref,
                                            const StatPath& path) {
    TypePtr body = in_.Find(ref->ref_name);
    if (!body || body->kind != Type::Kind::kElement ||
        body->name.kind != NameClass::Kind::kLiteral) {
      return std::nullopt;
    }
    StatPath subpath = path;
    subpath.push_back(body->name.name);
    std::optional<double> best;
    // Sequences are flat: a sequence's items are not sequences.
    const TypePtr& content = body->child;
    for (const TypePtr& t : content->kind == Type::Kind::kSequence
                                ? content->children
                                : std::vector<TypePtr>{content}) {
      if (t->kind != Type::Kind::kElement) continue;
      StatPath p = subpath;
      p.push_back(PathStep(t->name));
      if (auto n = stats_.Count(p)) {
        double v = static_cast<double>(*n);
        if (!best || v < *best) best = v;
      }
    }
    return best;
  }

  TypePtr AnnotateScalar(const TypePtr& t, const StatPath& path,
                         double instances) {
    const PathStat* ps = stats_.Find(path);
    ScalarStats s = t->scalar_stats;
    if (ps) {
      if (ps->size) s.size = *ps->size;
      if (ps->base) {
        s.min = ps->base->min;
        s.max = ps->base->max;
        s.distincts = ps->base->distincts;
      } else if (ps->distincts) {
        s.distincts = *ps->distincts;
      }
    }
    if (s.distincts == 0) {
      // No distinct-count statistic: assume all occurrences distinct.
      s.distincts = std::max<int64_t>(1, static_cast<int64_t>(instances));
    }
    if (t->scalar_kind == ScalarKind::kInteger) s.size = 4;
    return Type::Scalar(t->scalar_kind, s);
  }

  const Schema& in_;
  const StatsSet& stats_;
  Schema out_;
  std::vector<char> done_;  // by type index
};

}  // namespace

Schema AnnotateSchema(const Schema& schema, const StatsSet& stats) {
  return Annotator(schema, stats).Run();
}

}  // namespace legodb::xs
