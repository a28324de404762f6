#include "engine/prepared.h"

#include <algorithm>

namespace legodb::engine {

bool ProbesSharedIndex(const opt::PhysicalPlan& join) {
  const opt::PhysicalPlan* b = join.right.get();
  return b != nullptr && b->kind == opt::PhysicalPlan::Kind::kSeqScan &&
         b->rel == join.right_join_rel && b->filters.empty();
}

Status PreparedPrograms::WalkPlan(const ExprEnv& env,
                                  const opt::PhysicalPlanPtr& p) {
  if (!p) return Status::Internal("null plan node");
  LEGODB_RETURN_IF_ERROR(p->CheckRelations(env.tables.size()));
  NodePrograms np;
  switch (p->kind) {
    case opt::PhysicalPlan::Kind::kProject:
      return Status::Internal("nested projection");
    case opt::PhysicalPlan::Kind::kSeqScan: {
      LEGODB_ASSIGN_OR_RETURN(np.filter,
                              CompileFilters(env, p->rel, p->filters));
      break;
    }
    case opt::PhysicalPlan::Kind::kIndexLookup: {
      LEGODB_ASSIGN_OR_RETURN(np.filter,
                              CompileFilters(env, p->rel, p->filters));
      LEGODB_ASSIGN_OR_RETURN(
          np.index, env.tables[p->rel]->GetOrBuildIndex(p->index_column));
      for (const auto& f : p->filters) {
        if (f.rel == p->rel && f.column == p->index_column && !f.not_null &&
            f.op == xq::CompareOp::kEq) {
          np.driver = &f.value;
          break;
        }
      }
      if (np.driver == nullptr) {
        return Status::Internal("index lookup without driving filter");
      }
      break;
    }
    case opt::PhysicalPlan::Kind::kHashJoin: {
      LEGODB_ASSIGN_OR_RETURN(
          np.left_key, ResolveColumnVector(env, p->left_join_rel,
                                           p->left_join_column, "hash join"));
      LEGODB_ASSIGN_OR_RETURN(
          np.right_key, ResolveColumnVector(env, p->right_join_rel,
                                            p->right_join_column, "hash join"));
      LEGODB_ASSIGN_OR_RETURN(np.residuals,
                              CompileResiduals(env, p->residual_joins));
      // A shared-index probe never constructs its build child, so resolve
      // the index instead of preparing that child.
      bool shared = ProbesSharedIndex(*p);
      if (shared) {
        LEGODB_ASSIGN_OR_RETURN(
            np.index, env.tables[p->right_join_rel]->GetOrBuildIndex(
                          p->right_join_column));
      }
      by_node_.emplace(p.get(), std::move(np));
      LEGODB_RETURN_IF_ERROR(WalkPlan(env, p->left));
      return shared ? Status::OK() : WalkPlan(env, p->right);
    }
    case opt::PhysicalPlan::Kind::kIndexNLJoin: {
      LEGODB_ASSIGN_OR_RETURN(np.filter,
                              CompileFilters(env, p->rel, p->filters));
      LEGODB_ASSIGN_OR_RETURN(
          np.left_key, ResolveColumnVector(env, p->left_join_rel,
                                           p->left_join_column, "index join"));
      LEGODB_ASSIGN_OR_RETURN(
          np.index, env.tables[p->rel]->GetOrBuildIndex(p->index_column));
      LEGODB_ASSIGN_OR_RETURN(np.residuals,
                              CompileResiduals(env, p->residual_joins));
      by_node_.emplace(p.get(), std::move(np));
      return WalkPlan(env, p->left);
    }
  }
  by_node_.emplace(p.get(), std::move(np));
  return Status::OK();
}

Status PreparedPrograms::AddBlock(const opt::QueryBlock& block,
                                  const opt::PhysicalPlanPtr& plan) {
  if (!plan || plan->kind != opt::PhysicalPlan::Kind::kProject) {
    return Status::InvalidArgument("plan root must be a projection");
  }
  ExprEnv env;
  for (const auto& rel : block.rels) {
    if (rel.table < 0 || static_cast<size_t>(rel.table) >= db_->size()) {
      return Status::NotFound("no table #" + std::to_string(rel.table));
    }
    store::StoredTable* table = &db_->table(rel.table);
    env.tables.push_back(table);
    if (std::none_of(table_versions_.begin(), table_versions_.end(),
                     [&](const auto& tv) { return tv.first == table; })) {
      table_versions_.emplace_back(table, table->mutation_count());
    }
  }
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
