#include "translate/translate.h"

#include <iterator>
#include <optional>

#include "common/failpoint.h"
#include "obs/obs.h"
#include "xquery/evaluator.h"

namespace legodb::xlat {
namespace {

using map::Mapping;
using map::Slot;
using map::TypeMapping;

// A navigation position: a base relation in the block under construction, the
// named type it instantiates, and the position inside that type's body (an
// element or attribute node, as map::Slot::node names it).
struct Pos {
  int rel = -1;  // -1: unbound (outer-join miss), yields NULLs
  const TypeMapping* type = nullptr;
  const xs::Type* node = nullptr;
};

// One UNION ALL branch under construction. Variables are indexed by their
// id in the query (Translator::VarId); an id without a binding is unset.
struct World {
  opt::QueryBlock block;
  std::vector<std::optional<Pos>> vars;
  std::vector<opt::ColumnRef> outputs;
  std::vector<int> publish_vars;

  const Pos* Var(int id) const {
    return static_cast<size_t>(id) < vars.size() && vars[id] ? &*vars[id]
                                                             : nullptr;
  }
  void Bind(int id, Pos pos) {
    if (static_cast<size_t>(id) >= vars.size()) vars.resize(id + 1);
    vars[id] = std::move(pos);
  }
};

// What a navigation route adds to the world it starts from: the relations
// it joins in (in order, numbered after the world's own), their join edges,
// and the tag filters of the wildcard positions it passes. Navigation
// builds these small deltas; the caller applies each finished route to one
// copy of the world.
struct Delta {
  std::vector<opt::BaseRel> rels;
  std::vector<opt::JoinEdge> joins;
  std::vector<opt::FilterPred> filters;

  void ApplyTo(opt::QueryBlock* block) && {
    auto append = [](auto* to, auto& from) {
      to->insert(to->end(), std::make_move_iterator(from.begin()),
                 std::make_move_iterator(from.end()));
    };
    append(&block->rels, rels);
    append(&block->joins, joins);
    append(&block->filters, filters);
  }
};

class Translator {
 public:
  Translator(const xq::Query& query, const Mapping& mapping,
             TypeReads* reads)
      : q_(query), m_(mapping), reads_(reads) {}

  StatusOr<opt::RelQuery> Run() {
    std::vector<World> worlds(1);
    LEGODB_RETURN_IF_ERROR(TranslateBody(q_, &worlds, /*outer_mode=*/false));

    opt::RelQuery out;
    out.labels = xq::QueryLabels(q_);
    bool publish = false;
    for (const auto& w : worlds) publish |= !w.publish_vars.empty();
    out.publish = publish;
    // The types already dumped, by index (see below).
    std::vector<bool> published(m_.types().size());

    for (World& w : worlds) {
      if (w.block.rels.empty()) continue;
      if (!publish) {
        // Prune union branches in which every returned path is statically
        // absent: the branch contributes no data (e.g. asking for
        // `description` in the Movie partition of a distributed Show).
        bool any_value = w.outputs.empty();
        for (const auto& o : w.outputs) any_value |= o.rel >= 0;
        if (!any_value) continue;
        w.block.output = w.outputs;
        out.blocks.push_back(std::move(w.block));
        continue;
      }
      // Publish: the main block carries the scalar outputs plus the
      // published types' own columns; one extra block per descendant table
      // (the outer-union reconstruction strategy). When the binding context
      // has no filters ("publish everything"), the blocks degenerate to
      // plain table scans — no ancestor joins are needed to identify the
      // published rows.
      bool unfiltered = w.block.filters.empty() && w.outputs.empty();
      if (unfiltered) {
        for (int var : w.publish_vars) {
          const Pos* pos = w.Var(var);
          if (!pos || pos->rel < 0) continue;
          // `published` is shared across union worlds: partitions of one
          // logical type (e.g. Show_Part1/Show_Part2) share child tables,
          // and each table needs dumping only once.
          EmitPublishScans(m_.Index(*pos->type), 0, &published,
                           &out.blocks);
        }
        continue;
      }
      const opt::QueryBlock& base = w.block;  // binding context, no outputs
      opt::QueryBlock main = base;
      main.output = w.outputs;
      std::vector<opt::QueryBlock> extra;
      for (int var : w.publish_vars) {
        const Pos* pos = w.Var(var);
        if (!pos || pos->rel < 0) continue;
        AppendAllColumns(&main, pos->rel);
        EmitDescendantBlocks(base, *pos, &extra);
      }
      out.blocks.push_back(std::move(main));
      for (auto& b : extra) out.blocks.push_back(std::move(b));
    }
    return out;
  }

 private:
  // The id of variable `name`, assigned on first use: its position in
  // `var_names_` (a query binds a handful of variables).
  int VarId(const std::string& name) {
    for (size_t i = 0; i < var_names_.size(); ++i) {
      if (*var_names_[i] == name) return static_cast<int>(i);
    }
    var_names_.push_back(&name);
    return static_cast<int>(var_names_.size()) - 1;
  }

  // Notes that the result stands on mapped type `type`.
  void Use(int type) const {
    if (reads_) reads_->used.push_back(type);
  }

  // ---- block building helpers ----

  // Appends non-virtual type `tm`'s table to `b` (a QueryBlock, or a Delta
  // whose relations are numbered from `first`); returns its index.
  template <typename B>
  static int AddRel(B* b, size_t first, const TypeMapping& tm) {
    int index = static_cast<int>(first + b->rels.size());
    opt::BaseRel rel;
    rel.table = tm.table;
    rel.alias = tm.type_name + "#" + std::to_string(index);
    b->rels.push_back(std::move(rel));
    return index;
  }

  void AppendAllColumns(opt::QueryBlock* block, int rel) const {
    const rel::Table& table = m_.catalog().table(block->rels[rel].table);
    for (size_t c = 0; c < table.columns.size(); ++c) {
      opt::ColumnRef ref;
      ref.rel = rel;
      ref.column = static_cast<int>(c);
      ref.label = block->rels[rel].alias + "." + table.columns[c].name;
      block->output.push_back(std::move(ref));
    }
  }

  // Joins child type `child` (non-virtual) under `parent_rel` of type
  // `parent` into `b` (see AddRel); returns the child's new rel index, or -1
  // when no FK links them (should not happen on well-formed mappings).
  template <typename B>
  int JoinChild(B* b, size_t first, int parent_rel, const TypeMapping& parent,
                const TypeMapping& child, bool outer) const {
    const int fk = child.ParentColumn(m_.Index(parent));
    if (fk < 0) return -1;
    int rel = AddRel(b, first, child);
    opt::JoinEdge edge;
    edge.left_rel = parent_rel;
    edge.left_column = rel::Table::kKeyColumn;
    edge.right_rel = rel;
    edge.right_column = fk;
    edge.left_outer = outer;
    b->joins.push_back(std::move(edge));
    return rel;
  }

  // Restricts the wildcard position of `tilde`, a slot of `tm`, in `rel` to
  // tag `tag`.
  static void AddTildeFilter(Delta* adds, int rel, const TypeMapping& tm,
                             const Slot& tilde, const std::string& tag) {
    opt::FilterPred pred;
    pred.rel = rel;
    pred.column = tm.ColumnOf(tilde);
    pred.value = xq::Constant::Str(tag);
    adds->filters.push_back(std::move(pred));
  }

  // ---- navigation ----

  // A way to reach `pos` from a world whose block has `first` relations:
  // the world plus `adds`.
  struct Route {
    Delta adds;
    Pos pos;
  };

  // Appends to `routes` all ways one step `s` can proceed from `from`, in
  // the order map::Mapping::Step gives them: each route joins in the types
  // its step enters and filters the tag of the wildcard it matched.
  void StepFrom(const Route& from, size_t first, const std::string& s,
                bool outer, std::vector<Route>* routes) const {
    const Pos& pos = from.pos;
    if (pos.rel < 0) return;
    std::vector<map::Move> moves;
    m_.Step(*pos.type, pos.node, s, &moves,
            reads_ ? &reads_->entered : nullptr);
    for (const map::Move& move : moves) {
      for (const TypeMapping* t : move.entered) Use(m_.Index(*t));
      Use(m_.Index(*move.type));
      Route r{from.adds, Pos{pos.rel, move.type, move.node}};
      const TypeMapping* parent = pos.type;
      for (const TypeMapping* child : move.entered) {
        r.pos.rel = JoinChild(&r.adds, first, r.pos.rel, *parent, *child,
                              outer);
        if (r.pos.rel < 0) break;
        parent = child;
      }
      if (r.pos.rel < 0) continue;
      if (move.tilde) {
        AddTildeFilter(&r.adds, r.pos.rel, *move.type, *move.tilde, s);
      }
      routes->push_back(std::move(r));
    }
  }

  // Navigates a multi-step path from `start` in a world whose block has
  // `first` relations; each element of the result is one complete route
  // (its own world branch).
  std::vector<Route> NavigatePath(Route start, size_t first,
                                  const std::vector<std::string>& steps,
                                  bool outer) const {
    std::vector<Route> current;
    current.push_back(std::move(start));
    for (const auto& step : steps) {
      std::vector<Route> next;
      next.reserve(current.size());
      for (const auto& route : current) {
        StepFrom(route, first, step, outer, &next);
      }
      current = std::move(next);
      if (current.empty()) break;
    }
    return current;
  }

  // Navigates a path to scalar values: the terminal position must hold a
  // scalar slot (the element's own content), column `column` of `rel`.
  struct ScalarRoute {
    Delta adds;
    int rel;
    const Slot* slot;
    int column;
  };
  std::vector<ScalarRoute> NavigateToScalar(
      Route start, size_t first, const std::vector<std::string>& steps,
      bool outer) const {
    std::vector<ScalarRoute> out;
    for (auto& route : NavigatePath(std::move(start), first, steps, outer)) {
      if (route.pos.rel < 0) continue;
      const Slot* slot =
          route.pos.type->FindSlot(route.pos.node, /*tilde=*/false);
      if (!slot) continue;
      out.push_back(ScalarRoute{std::move(route.adds), route.pos.rel, slot,
                                route.pos.type->ColumnOf(*slot)});
    }
    return out;
  }

  // Appends one world per route to `next`: `w` plus the route's additions,
  // then `finish(route, &world)`. The last route takes `w` itself.
  template <typename R, typename F>
  static void Branch(World& w, std::vector<R>& routes,
                     std::vector<World>* next, F finish) {
    for (size_t i = 0; i < routes.size(); ++i) {
      World w2 = i + 1 < routes.size() ? w : std::move(w);
      std::move(routes[i].adds).ApplyTo(&w2.block);
      finish(routes[i], &w2);
      next->push_back(std::move(w2));
    }
  }

  // ---- clause translation ----

  Status BindFor(const xq::ForBinding& b, std::vector<World>* worlds,
                 bool outer_mode) {
    const int var = VarId(b.var);
    const int source = b.from_document ? -1 : VarId(b.source_var);
    std::vector<World> next;
    next.reserve(worlds->size());
    for (World& w : *worlds) {
      size_t first = w.block.rels.size();
      std::vector<Route> routes;
      if (b.from_document) {
        if (b.steps.empty()) {
          return Status::Unsupported("document() binding needs a path");
        }
        Use(m_.root());
        const TypeMapping& rtm = m_.type(m_.root());
        if (rtm.virtual_union) {
          return Status::Unsupported("virtual root type");
        }
        Route start;
        int rel = AddRel(&start.adds, first, rtm);
        // The first step names the root element itself.
        if (const xs::Type* entry = m_.RootPosition(b.steps[0])) {
          start.pos = Pos{rel, &rtm, entry};
          std::vector<std::string> rest(b.steps.begin() + 1, b.steps.end());
          routes = NavigatePath(std::move(start), first, rest,
                                /*outer=*/outer_mode);
        }
      } else {
        const Pos* from = w.Var(source);
        if (!from) {
          return Status::InvalidArgument("unbound variable $" + b.source_var);
        }
        routes = NavigatePath(Route{{}, *from}, first, b.steps, outer_mode);
      }
      if (routes.empty()) {
        if (outer_mode) {
          // Left outer: keep the world, variable is unbound (NULL columns).
          w.Bind(var, Pos{});
          next.push_back(std::move(w));
        }
        // Inner: binding can never match in this branch; world dropped.
        continue;
      }
      Branch(w, routes, &next,
             [&](Route& route, World* w2) { w2->Bind(var, route.pos); });
    }
    *worlds = std::move(next);
    return Status::OK();
  }

  Status ApplyPredicate(const xq::Predicate& p, std::vector<World>* worlds) {
    const int lhs_var = VarId(p.lhs.var);
    const int rhs_var = p.rhs_is_path ? VarId(p.rhs_path.var) : -1;
    std::vector<World> next;
    next.reserve(worlds->size());
    for (World& w : *worlds) {
      const size_t first = w.block.rels.size();
      const Pos* from = w.Var(lhs_var);
      if (!from) continue;  // unbound: predicate unsatisfiable, world dropped
      std::vector<ScalarRoute> lhs = NavigateToScalar(
          Route{{}, *from}, first, p.lhs.steps, /*outer=*/false);
      if (!p.rhs_is_path) {
        Branch(w, lhs, &next, [&](ScalarRoute& route, World* w2) {
          opt::FilterPred pred;
          pred.rel = route.rel;
          pred.column = route.column;
          pred.op = p.op;
          pred.value = p.rhs_const;
          w2->block.filters.push_back(std::move(pred));
        });
        continue;
      }
      if (p.op != xq::CompareOp::kEq && !lhs.empty()) {
        return Status::Unsupported("non-equality value joins");
      }
      // Value join: navigate the right-hand path inside each left route.
      struct JoinRoute {
        Delta adds;  // left and right additions
        const ScalarRoute* left;
        int rel;
        int column;
      };
      std::vector<JoinRoute> joins;
      const Pos* rfrom = w.Var(rhs_var);
      for (const ScalarRoute& left : lhs) {
        if (!rfrom) break;
        for (auto& right : NavigateToScalar(Route{left.adds, *rfrom}, first,
                                            p.rhs_path.steps,
                                            /*outer=*/false)) {
          joins.push_back(
              JoinRoute{std::move(right.adds), &left, right.rel, right.column});
        }
      }
      Branch(w, joins, &next, [&](JoinRoute& route, World* w2) {
        opt::JoinEdge edge;
        edge.left_rel = route.left->rel;
        edge.left_column = route.left->column;
        edge.right_rel = route.rel;
        edge.right_column = route.column;
        w2->block.joins.push_back(std::move(edge));
      });
      // No routes: predicate unsatisfiable in this branch; world dropped.
    }
    *worlds = std::move(next);
    return Status::OK();
  }

  Status EmitReturnPath(const xq::PathExpr& path, std::vector<World>* worlds,
                        bool outer_mode) {
    const int var = VarId(path.var);
    std::string label = path.ToString();
    std::vector<World> next;
    next.reserve(worlds->size());
    for (World& w : *worlds) {
      const Pos* from = w.Var(var);
      std::vector<ScalarRoute> routes;
      if (from && from->rel >= 0) {
        // Strict projection semantics: a return path is an inner join; a
        // union branch where the path is statically absent dies. Inside an
        // outer-joined subquery the joins preserve the outer rows instead.
        routes = NavigateToScalar(Route{{}, *from}, w.block.rels.size(),
                                  path.steps, /*outer=*/outer_mode);
      }
      if (routes.empty()) {
        if (outer_mode) {
          // Keep the outer row; the missing value renders as NULL.
          opt::ColumnRef ref;
          ref.rel = -1;
          ref.label = label;
          w.outputs.push_back(std::move(ref));
          next.push_back(std::move(w));
        }
        // Strict mode: branch produces no rows; world dropped.
        continue;
      }
      Branch(w, routes, &next, [&](ScalarRoute& route, World* w2) {
        opt::ColumnRef ref;
        ref.rel = route.rel;
        ref.column = route.column;
        ref.label = label;
        // Strict projection over a nullable inlined column: rows where the
        // value is absent are filtered out (IS NOT NULL).
        if (!outer_mode && route.slot->optional) {
          opt::FilterPred pred;
          pred.rel = route.rel;
          pred.column = route.column;
          pred.not_null = true;
          w2->block.filters.push_back(std::move(pred));
        }
        w2->outputs.push_back(std::move(ref));
      });
    }
    *worlds = std::move(next);
    return Status::OK();
  }

  Status TranslateBody(const xq::Query& q, std::vector<World>* worlds,
                       bool outer_mode) {
    for (const auto& b : q.fors) {
      LEGODB_RETURN_IF_ERROR(BindFor(b, worlds, outer_mode));
    }
    for (const auto& p : q.where) {
      LEGODB_RETURN_IF_ERROR(ApplyPredicate(p, worlds));
    }
    for (const xq::ReturnItem* item : q.FlatReturnItems()) {
      switch (item->kind) {
        case xq::ReturnItem::Kind::kPath:
          if (item->path.steps.empty()) {
            int var = VarId(item->path.var);
            for (World& w : *worlds) w.publish_vars.push_back(var);
          } else {
            LEGODB_RETURN_IF_ERROR(
                EmitReturnPath(item->path, worlds, outer_mode));
          }
          break;
        case xq::ReturnItem::Kind::kSubquery: {
          bool sub_outer = item->subquery->where.empty();
          LEGODB_RETURN_IF_ERROR(
              TranslateBody(*item->subquery, worlds, sub_outer));
          break;
        }
        case xq::ReturnItem::Kind::kElement:
          return Status::Internal("element items are pre-flattened");
      }
    }
    return Status::OK();
  }

  // ---- publish ----

  // Unfiltered publish: one single-table scan block per concrete type
  // reachable from type `type` (including itself) not yet in `done`, each
  // type emitted once.
  void EmitPublishScans(int type, int depth, std::vector<bool>* done,
                        std::vector<opt::QueryBlock>* out) const {
    if (depth > 16 || (*done)[type]) return;
    (*done)[type] = true;
    Use(type);
    const TypeMapping& tm = m_.type(type);
    if (!tm.virtual_union) {
      opt::QueryBlock block;
      int rel = AddRel(&block, 0, tm);
      AppendAllColumns(&block, rel);
      out->push_back(std::move(block));
    }
    for (const auto& child : tm.children) {
      EmitPublishScans(child.type, depth + 1, done, out);
    }
  }

  // A published type whose descendants EmitDescendantBlocks still visits:
  // the block joining it in as relation `rel`.
  struct Frame {
    opt::QueryBlock block;
    int rel;
    const TypeMapping* type;
    int depth;
  };

  // Emits one block per descendant table of the published position:
  // binding context + inner joins down the chain + all columns of the leaf.
  void EmitDescendantBlocks(const opt::QueryBlock& base, const Pos& pos,
                            std::vector<opt::QueryBlock>* out) const {
    std::vector<Frame> stack;
    stack.push_back(Frame{base, pos.rel, pos.type, 0});
    int emitted = 0;
    while (!stack.empty() && emitted < 256) {
      Frame f = std::move(stack.back());
      stack.pop_back();
      if (f.depth > 8) continue;
      for (const auto& child : f.type->children) {
        Descend(f, child.type, 0, &stack, &emitted, out);
      }
    }
  }

  // Joins child type `child` (its alternatives, when virtual) under frame
  // `f`: emits the block of all its columns and stacks its frame.
  void Descend(const Frame& f, int child, int vdepth, std::vector<Frame>* stack,
               int* emitted, std::vector<opt::QueryBlock>* out) const {
    Use(child);
    const TypeMapping& ctm = m_.type(child);
    if (ctm.virtual_union) {
      if (vdepth > 8) return;
      for (int alt : ctm.union_alternatives) {
        Descend(f, alt, vdepth + 1, stack, emitted, out);
      }
      return;
    }
    opt::QueryBlock block = f.block;
    int rel = JoinChild(&block, 0, f.rel, *f.type, ctm, /*outer=*/false);
    if (rel < 0) return;
    opt::QueryBlock leaf = block;
    AppendAllColumns(&leaf, rel);
    out->push_back(std::move(leaf));
    ++*emitted;
    stack->push_back(Frame{std::move(block), rel, &ctm, f.depth + 1});
  }

  const xq::Query& q_;
  const Mapping& m_;
  TypeReads* reads_;  // null: nothing is recorded
  // The variables by id: names in the query, which outlives the translator.
  std::vector<const std::string*> var_names_;
};

}  // namespace

StatusOr<opt::RelQuery> TranslateQuery(const xq::Query& query,
                                       const Mapping& mapping) {
  return TranslateQuery(query, mapping, nullptr);
}

StatusOr<opt::RelQuery> TranslateQuery(const xq::Query& query,
                                       const Mapping& mapping,
                                       TypeReads* reads) {
  LEGODB_FAILPOINT("translate.query");
  obs::ScopedTimer timer("translate.ms");
  obs::Count("translate.queries");
  StatusOr<opt::RelQuery> result = Translator(query, mapping, reads).Run();
  if (result.ok()) {
    obs::Count("translate.blocks",
               static_cast<int64_t>(result->blocks.size()));
  }
  return result;
}

}  // namespace legodb::xlat
