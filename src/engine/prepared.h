#ifndef LEGODB_ENGINE_PREPARED_H_
#define LEGODB_ENGINE_PREPARED_H_

// Prepared execution state for a physical plan — the one place a plan is
// compiled. Every execution runs from a PreparedPrograms: each node gets a
// compiled *template* program (symbolic constants left as named parameter
// slots, see ExprProgram::BindParams) plus its resolved ColumnVector /
// HashIndex pointers, so operators only copy templates and bind that
// execution's parameters — no predicate compilation, no catalog lookups,
// and no storage-registry mutex traffic when a plan runs.
//
// A plan executed many times (the serving layer's plan cache) is compiled
// once with Compile() and passed as ExecOptions::prepared; otherwise, or
// when the set was compiled against another Database, the executor
// compiles its own per block with AddBlock().
//
// A compiled PreparedPrograms is immutable and safe to share across
// concurrent executors (lookups are const; executors copy the programs
// they use). It is keyed by plan-node identity, so callers keep the
// PhysicalPlanPtrs it was compiled from alive alongside it (the plan cache
// stores both in one entry).

#include <map>
#include <vector>

#include "common/status.h"
#include "engine/expr_vm.h"
#include "optimizer/plan.h"
#include "storage/database.h"

namespace legodb::engine {

// Whether hash join `join` probes its build table's shared index instead of
// materializing its build side: the build side is a bare unfiltered scan of
// the build relation. The rule reads plan shape only, so both backends and
// every way of watching a query run the same join.
bool ProbesSharedIndex(const opt::PhysicalPlan& join);

class PreparedPrograms {
 public:
  // Everything one operator reads instead of compiling or resolving.
  // Unused members stay empty/null for node kinds that don't need them.
  struct NodePrograms {
    ExprProgram filter;     // parameterized filter template (scan kinds)
    ExprProgram residuals;  // residual join edges (join kinds; no params)
    const store::ColumnVector* left_key = nullptr;   // probe/outer join key
    const store::ColumnVector* right_key = nullptr;  // hash-join build key
    const store::HashIndex* index = nullptr;  // lookup/NL-join/shared index
    const xq::Constant* driver = nullptr;  // index lookup's key (plan-owned)
    // Projection root only: the block's tables in relation order, and one
    // column per block output (nullptr for the NULL literal).
    std::vector<store::StoredTable*> tables;
    std::vector<const store::ColumnVector*> outputs;
  };

  explicit PreparedPrograms(store::Database* db = nullptr) : db_(db) {}

  // Compiles templates for every operator of every block plan. Resolving
  // columns and indexes here doubles as a prewarm: the first concurrent
  // executions never race to lazily decode columns for these plans.
  static StatusOr<PreparedPrograms> Compile(
      store::Database* db, const opt::RelQuery& query,
      const std::vector<opt::PhysicalPlanPtr>& block_plans);

  // Compiles one block's plan into this set. A plan not rooted at a
  // projection is InvalidArgument, tables outside the database and columns
  // outside their tables are NotFound, relations outside the block and
  // malformed plan nodes are Internal.
  Status AddBlock(const opt::QueryBlock& block,
                  const opt::PhysicalPlanPtr& plan);

  // The prepared state for `node`, or nullptr if the node was not compiled.
  const NodePrograms* Find(const opt::PhysicalPlan* node) const {
    auto it = by_node_.find(node);
    return it == by_node_.end() ? nullptr : &it->second;
  }

  // OK while every table this plan touches still has the mutation count it
  // had when compiled; Internal (naming the table) once any of them has
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
