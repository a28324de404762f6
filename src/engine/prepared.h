#ifndef LEGODB_ENGINE_PREPARED_H_
#define LEGODB_ENGINE_PREPARED_H_

// Prepared execution state for a cached physical plan.
//
// The executor normally compiles filter/residual bytecode and resolves
// column shadows and hash indexes inside every operator Open(). For a plan
// that will be executed many times (the serving layer's plan cache),
// PreparedPrograms front-loads all of that once per plan: every scan/join
// node gets a compiled *template* program (symbolic constants left as named
// parameter slots, see ExprProgram::BindParams) plus its resolved
// ColumnVector/HashIndex pointers. Executions then copy the template, bind
// that request's parameters, and run — no predicate compilation, no
// catalog lookups, and no storage-registry mutex traffic on the hot path.
//
// A PreparedPrograms is immutable after Compile() and safe to share across
// any number of concurrent executors (lookups are const; executors copy the
// programs they use). It is keyed by plan-node identity, so it is only
// meaningful for the exact plan trees it was compiled from — callers keep
// the PhysicalPlanPtrs alive alongside it (the plan cache stores both in
// one entry). The executor additionally ignores a prepared set whose
// Database differs from its own.

#include <map>
#include <vector>

#include "common/status.h"
#include "engine/expr_vm.h"
#include "optimizer/plan.h"
#include "storage/database.h"

namespace legodb::engine {

// Whether hash join `join` (over the block's `tables`) probes its build
// table's shared index instead of materializing its build side: the build
// side is a bare unfiltered scan of a memory table (paged build sides
// materialize, so they can spill). The executor and Compile() both decide
// with this rule alone, so watching a query never changes its strategy.
bool ProbesSharedIndex(const opt::PhysicalPlan& join,
                       const std::vector<store::StoredTable*>& tables);

class PreparedPrograms {
 public:
  // Everything one operator Open() would otherwise compile or resolve.
  // Unused members stay empty/null for node kinds that don't need them.
  struct NodePrograms {
    ExprProgram filter;     // parameterized filter template (scan kinds)
    ExprProgram residuals;  // residual join edges (join kinds; no params)
    const store::ColumnVector* left_key = nullptr;   // probe/outer join key
    const store::ColumnVector* right_key = nullptr;  // hash-join build key
    const store::HashIndex* index = nullptr;  // lookup/NL-join/shared index
  };

  // Compiles templates for every operator of every block plan. Resolving
  // columns and indexes here doubles as a prewarm: the first concurrent
  // executions never race to lazily build shadows for these plans.
  static StatusOr<PreparedPrograms> Compile(
      store::Database* db, const opt::RelQuery& query,
      const std::vector<opt::PhysicalPlanPtr>& block_plans);

  // The prepared state for `node`, or nullptr if the node is unknown (the
  // executor then falls back to its normal Open-time compilation).
  const NodePrograms* Find(const opt::PhysicalPlan* node) const {
    auto it = by_node_.find(node);
    return it == by_node_.end() ? nullptr : &it->second;
  }

  // OK while every table this plan touches still has the mutation count it
  // had at Compile() time; Internal (naming the table) once any of them has
  // been mutated since. The resolved ColumnVector/HashIndex pointers above
  // dangle after a mutation clears the table registries, so the executor
  // calls this before trusting them.
  Status CheckFresh() const;

  store::Database* database() const { return db_; }

 private:
  Status WalkPlan(const ExprEnv& env, const opt::PhysicalPlanPtr& p);

  store::Database* db_ = nullptr;
  std::map<const opt::PhysicalPlan*, NodePrograms> by_node_;
  // (table, mutation count at compile time), deduplicated per table.
  std::vector<std::pair<const store::StoredTable*, uint64_t>> table_versions_;
};

}  // namespace legodb::engine

#endif  // LEGODB_ENGINE_PREPARED_H_
