#include "engine/prepared.h"

#include <algorithm>

namespace legodb::engine {

bool ProbesSharedIndex(const opt::PhysicalPlan& join) {
  const opt::PhysicalPlan* b = join.right.get();
  return b != nullptr && b->kind == opt::PhysicalPlan::Kind::kSeqScan &&
         b->rel == join.right_join_rel && b->filters.empty() &&
         b->residual_joins.empty();
}

Status PreparedPrograms::WalkPlan(const ExprEnv& env,
                                  const opt::PhysicalPlanPtr& p) {
  using Kind = opt::PhysicalPlan::Kind;
  const bool hash = p->kind == Kind::kHashJoin;
  const bool join = hash || p->kind == Kind::kIndexNLJoin;
  // A shared-index probe never constructs its build child, so resolve the
  // index instead of preparing that child.
  const bool shared = hash && ProbesSharedIndex(*p);
  NodePrograms np;
  LEGODB_ASSIGN_OR_RETURN(
      np.filter, CompileFilters(env, p->rel, p->filters, p->residual_joins));
  if (join) {
    LEGODB_ASSIGN_OR_RETURN(
        np.left_key, ResolveColumnVector(env, p->left_join_rel,
                                         p->left_join_column, "join"));
  }
  if (hash) {
    LEGODB_ASSIGN_OR_RETURN(
        np.right_key, ResolveColumnVector(env, p->right_join_rel,
                                          p->right_join_column, "hash join"));
  }
  if (shared || p->kind == Kind::kIndexLookup ||
      p->kind == Kind::kIndexNLJoin) {
    LEGODB_ASSIGN_OR_RETURN(
        np.index, shared ? env.tables[p->right_join_rel]->GetOrBuildIndex(
                               p->right_join_column)
                         : env.tables[p->rel]->GetOrBuildIndex(p->index_column));
  }
  if (p->kind == Kind::kIndexLookup) np.driver = &p->DrivingFilter()->value;
  by_node_.emplace(p.get(), std::move(np));
  if (join) LEGODB_RETURN_IF_ERROR(WalkPlan(env, p->left));
  return hash && !shared ? WalkPlan(env, p->right) : Status::OK();
}

Status PreparedPrograms::AddBlock(const opt::QueryBlock& block,
                                  const opt::PhysicalPlanPtr& plan) {
  ExprEnv env;
  std::vector<const rel::Table*> metas;
  for (const auto& rel : block.rels) {
    if (rel.table < 0 || static_cast<size_t>(rel.table) >= db_->size()) {
      return Status::NotFound("no table #" + std::to_string(rel.table));
    }
    store::StoredTable* table = &db_->table(rel.table);
    env.tables.push_back(table);
    metas.push_back(&table->meta());
    if (std::none_of(table_versions_.begin(), table_versions_.end(),
                     [&](const auto& tv) { return tv.first == table; })) {
      table_versions_.emplace_back(table, table->mutation_count());
    }
  }
  LEGODB_RETURN_IF_ERROR(opt::CheckPlan(block, metas, plan));
  LEGODB_RETURN_IF_ERROR(WalkPlan(env, plan->child));
  // The NULL literal (`rel` -1) projects NULL: the outer-union publishing
  // encoding relies on heterogeneous outputs.
  NodePrograms np;
  for (const auto& out : block.output) {
    const store::ColumnVector* vec = nullptr;
    if (out.rel != -1) {
      LEGODB_ASSIGN_OR_RETURN(
          vec, ResolveColumnVector(env, out.rel, out.column, "output"));
    }
    np.outputs.push_back(vec);
  }
  np.tables = std::move(env.tables);
  by_node_[plan.get()] = std::move(np);
  return Status::OK();
}

StatusOr<PreparedPrograms> PreparedPrograms::Compile(
    store::Database* db, const opt::RelQuery& query,
    const std::vector<opt::PhysicalPlanPtr>& block_plans) {
  if (block_plans.size() != query.blocks.size()) {
    return Status::InvalidArgument("plan count mismatch");
  }
  PreparedPrograms prepared(db);
  for (size_t i = 0; i < query.blocks.size(); ++i) {
    LEGODB_RETURN_IF_ERROR(prepared.AddBlock(query.blocks[i], block_plans[i]));
  }
  return prepared;
}

Status PreparedPrograms::CheckFresh() const {
  for (const auto& [table, version] : table_versions_) {
    if (table->mutation_count() != version) {
      return Status::Internal("prepared plan is stale: table '" +
                              table->meta().name +
                              "' was mutated after prepare");
    }
  }
  return Status::OK();
}

}  // namespace legodb::engine
