#include "engine/prepared.h"

namespace legodb::engine {

bool ProbesSharedIndex(const opt::PhysicalPlan& join,
                       const std::vector<store::StoredTable*>& tables) {
  const opt::PhysicalPlan* b = join.right.get();
  return join.right_join_rel >= 0 &&
         join.right_join_rel < static_cast<int>(tables.size()) &&
         !tables[join.right_join_rel]->paged() && b != nullptr &&
         b->kind == opt::PhysicalPlan::Kind::kSeqScan &&
         b->rel == join.right_join_rel && b->filters.empty();
}

Status PreparedPrograms::WalkPlan(const ExprEnv& env,
                                  const opt::PhysicalPlanPtr& p) {
  if (!p) return Status::Internal("null plan node");
  NodePrograms np;
  switch (p->kind) {
    case opt::PhysicalPlan::Kind::kProject:
      return WalkPlan(env, p->child);
    case opt::PhysicalPlan::Kind::kSeqScan: {
      LEGODB_ASSIGN_OR_RETURN(
          np.filter, CompileFilterTemplate(env, p->rel, p->filters));
      break;
    }
    case opt::PhysicalPlan::Kind::kIndexLookup: {
      LEGODB_ASSIGN_OR_RETURN(
          np.filter, CompileFilterTemplate(env, p->rel, p->filters));
      LEGODB_ASSIGN_OR_RETURN(
          np.index, env.tables[p->rel]->GetOrBuildIndex(p->index_column));
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
      bool shared = ProbesSharedIndex(*p, env.tables);
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
      LEGODB_ASSIGN_OR_RETURN(
          np.filter, CompileFilterTemplate(env, p->rel, p->filters));
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

StatusOr<PreparedPrograms> PreparedPrograms::Compile(
    store::Database* db, const opt::RelQuery& query,
    const std::vector<opt::PhysicalPlanPtr>& block_plans) {
  if (block_plans.size() != query.blocks.size()) {
    return Status::InvalidArgument("plan count mismatch");
  }
  PreparedPrograms prepared;
  prepared.db_ = db;
  for (size_t i = 0; i < query.blocks.size(); ++i) {
    ExprEnv env;
    for (const auto& rel : query.blocks[i].rels) {
      store::StoredTable* table = db->FindTable(rel.table);
      if (!table) return Status::NotFound("table '" + rel.table + "'");
      env.tables.push_back(table);
      bool seen = false;
      for (const auto& [t, version] : prepared.table_versions_) {
        if (t == table) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        prepared.table_versions_.emplace_back(table, table->mutation_count());
      }
    }
    LEGODB_RETURN_IF_ERROR(prepared.WalkPlan(env, block_plans[i]));
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
