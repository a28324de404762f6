#include "core/cost.h"

#include "optimizer/optimizer.h"
#include "translate/translate.h"

namespace legodb::core {

StatusOr<double> CostQuery(const map::Mapping& mapping, const xq::Query& query,
                           const opt::CostParams& params) {
  LEGODB_ASSIGN_OR_RETURN(opt::RelQuery rq,
                          xlat::TranslateQuery(query, mapping));
  opt::Optimizer optimizer(mapping.catalog(), params);
  LEGODB_ASSIGN_OR_RETURN(opt::PlannedQuery planned,
                          optimizer.PlanQuery(rq));
  return planned.total_cost;
}

namespace {

// Expected rows written when one instance of `tm` is inserted: its own
// row plus expected descendant rows.
double SubtreeRowCost(const map::Mapping& m, const map::TypeMapping& tm,
                      const opt::CostParams& p, int depth) {
  if (depth > 8) return 0;
  if (tm.virtual_union) {
    double total = 0;
    for (const auto& child : tm.children) {
      total += child.expected_per_parent *
               SubtreeRowCost(m, m.type(child.type), p, depth + 1);
    }
    return total;
  }
  const rel::Table& table = m.catalog().table(tm.table);
  double indexes = 1.0 + static_cast<double>(table.foreign_keys.size());
  double row = table.RowWidth() * p.write_per_byte + indexes * p.seek_cost;
  for (const auto& child : tm.children) {
    row += child.expected_per_parent *
           SubtreeRowCost(m, m.type(child.type), p, depth + 1);
  }
  return row;
}

}  // namespace

StatusOr<double> CostUpdate(const map::Mapping& mapping, const UpdateOp& op,
                            const opt::CostParams& params) {
  if (op.path.empty()) {
    return Status::InvalidArgument("update path is empty");
  }
  const map::TypeMapping* rtm = &mapping.type(mapping.root());
  if (rtm->virtual_union) return Status::Unsupported("virtual root type");
  // Resolve the path as query translation does, without building joins:
  // each target is a body position, and `outlined` the last type its last
  // step entered, the one whose row the insert writes (null when that step
  // stayed in inlined content). A step that hops through a reference at
  // another type's body root enters that type first; an insert there adds
  // no row of it.
  struct Target {
    const map::TypeMapping* type;
    const xs::Type* node;
    const map::TypeMapping* outlined;
  };
  std::vector<Target> targets;
  // The first step names the root element.
  if (const xs::Type* entry = mapping.RootPosition(op.path[0])) {
    targets.push_back(Target{rtm, entry, nullptr});
  }
  std::vector<map::Move> moves;
  for (size_t i = 1; i < op.path.size() && !targets.empty(); ++i) {
    std::vector<Target> next;
    for (const Target& target : targets) {
      moves.clear();
      mapping.Step(*target.type, target.node, op.path[i], &moves);
      for (const map::Move& move : moves) {
        next.push_back(Target{move.type, move.node,
                              move.entered.empty() ? nullptr
                                                   : move.entered.back()});
      }
    }
    targets = std::move(next);
  }
  if (targets.empty()) {
    return Status::NotFound("update path does not resolve: " + op.name);
  }

  // Average the cost over the resolved alternatives.
  double total = 0;
  for (const Target& target : targets) {
    double locate = params.index_probe_seeks * params.seek_cost +
                    params.seek_cost;  // find the owning/parent row
    double write;
    if (target.outlined) {
      // New row(s) in the target's table and its expected descendants.
      write = SubtreeRowCost(mapping, *target.outlined, params, 0);
    } else {
      const rel::Table& table = mapping.catalog().table(target.type->table);
      // Inlined content: read-modify-write of the whole (wide) row plus
      // the owning table's index maintenance.
      double indexes =
          1.0 + static_cast<double>(table.foreign_keys.size());
      write = table.RowWidth() *
                  (params.read_per_byte + params.write_per_byte) +
              indexes * params.seek_cost;
    }
    total += locate + write;
  }
  return total / static_cast<double>(targets.size());
}

StatusOr<SchemaCost> CostSchema(const xs::Schema& pschema,
                                const Workload& workload,
                                const opt::CostParams& params) {
  LEGODB_ASSIGN_OR_RETURN(map::Mapping mapping, map::MapSchema(pschema));
  SchemaCost result;
  for (const auto& wq : workload.queries) {
    LEGODB_ASSIGN_OR_RETURN(double cost,
                            CostQuery(mapping, wq.query, params));
    result.per_query.push_back(cost);
    result.total += wq.weight * cost;
  }
  for (const auto& op : workload.updates) {
    LEGODB_ASSIGN_OR_RETURN(double cost, CostUpdate(mapping, op, params));
    result.per_update.push_back(cost);
    result.total += op.weight * cost;
  }
  return result;
}

}  // namespace legodb::core
