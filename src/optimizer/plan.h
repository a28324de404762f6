#ifndef LEGODB_OPTIMIZER_PLAN_H_
#define LEGODB_OPTIMIZER_PLAN_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "relational/catalog.h"
#include "xquery/ast.h"

namespace legodb::opt {

// A column of relation `rel` is named by its position in that relation's
// catalog table (rel::Table); ToSql and ToString look its name up.

// A base relation occurrence in a query block (aliases disambiguate multiple
// occurrences of the same table).
struct BaseRel {
  int table = -1;  // the table's index in the catalog
  std::string alias;
};

// A column of a base relation, identified by the relation's index in the
// owning QueryBlock; `rel` -1 is the NULL literal.
struct ColumnRef {
  int rel = -1;
  int column = -1;
  // Display label for the output (defaults to the column's name).
  std::string label;
};

// An equi-join edge between two base relations. `left_outer` preserves the
// left side (used for optional child tables in publish/return joins).
struct JoinEdge {
  int left_rel = -1;
  int left_column = -1;
  int right_rel = -1;
  int right_column = -1;
  bool left_outer = false;
};

// A filter on a base relation: either equality with a constant
// (`rel.column = value`; symbolic constants bind at execution time) or a
// NOT NULL test (strict projection over nullable inlined columns).
struct FilterPred {
  int rel = -1;
  int column = -1;
  xq::CompareOp op = xq::CompareOp::kEq;
  xq::Constant value;
  bool not_null = false;  // when set, `op`/`value` are ignored

  bool operator==(const FilterPred&) const = default;
};

// A select-project-join block: the unit the optimizer plans.
struct QueryBlock {
  std::vector<BaseRel> rels;
  std::vector<JoinEdge> joins;
  std::vector<FilterPred> filters;
  std::vector<ColumnRef> output;

  std::string ToSql(const rel::Catalog& catalog) const;  // display only
};

// A translated XQuery: one or more blocks. For scalar queries the blocks
// are UNION ALL branches (one per union-distributed schema alternative);
// for publish queries there is one block per reachable descendant table
// (the outer-union publishing strategy).
struct RelQuery {
  std::vector<QueryBlock> blocks;
  bool publish = false;
  std::vector<std::string> labels;

  std::string ToSql(const rel::Catalog& catalog) const;
};

// --- Physical plans -------------------------------------------------------

struct PhysicalPlan;
using PhysicalPlanPtr = std::shared_ptr<const PhysicalPlan>;

// A physical operator tree produced by the optimizer and interpreted by the
// execution engine.
struct PhysicalPlan {
  enum class Kind {
    kSeqScan,      // scan base rel, apply residual filters
    kIndexLookup,  // probe index on filter column, apply residual filters
    kHashJoin,     // build right, probe left
    kIndexNLJoin,  // for each left row, probe index on inner base rel
    kProject,      // root projection (counts output writing)
  };
  Kind kind = Kind::kSeqScan;

  // kSeqScan / kIndexLookup / inner side of kIndexNLJoin.
  int rel = -1;
  std::vector<FilterPred> filters;   // residual filters on this rel
  int index_column = -1;             // kIndexLookup / kIndexNLJoin

  // kHashJoin / kIndexNLJoin.
  PhysicalPlanPtr left;   // probe / outer side
  PhysicalPlanPtr right;  // build side (kHashJoin only)
  int left_join_rel = -1;
  int left_join_column = -1;
  int right_join_rel = -1;
  int right_join_column = -1;
  bool left_outer = false;
  // When several join edges connect the two sides, one drives the
  // hash/index probe and the rest are checked per candidate pair. A scan or
  // lookup, and an index nested loops join for its inner relation, also
  // check here the relation's self edges (both ends on it).
  std::vector<JoinEdge> residual_joins;

  // kProject (its outputs are the block's).
  PhysicalPlanPtr child;

  // Estimates filled by the optimizer.
  double est_rows = 0;
  double est_cost = 0;
  // Decomposed physical-IO estimates (inclusive of inputs, like est_cost):
  // predicted seeks and bytes read. At CostParams::page_size > 0 these are
  // page-granular and directly comparable to the buffer pool's measured
  // fault traffic (bench/calibration correlates the two).
  double est_seeks = 0;
  double est_bytes = 0;

  // kIndexLookup: the equality filter on `index_column` whose constant the
  // lookup probes with; nullptr when it has none.
  const FilterPred* DrivingFilter() const;

  // Indented operator-tree rendering for debugging and EXPLAIN output;
  // `catalog` names the block's columns.
  std::string ToString(const rel::Catalog& catalog, const QueryBlock& block,
                       int indent = 0) const;
};

// CheckPlan's R1 on the block alone: each filter, join edge and output
// (but the NULL literal, `rel` -1) names a block relation (InvalidArgument)
// and a column of its table `tables[rel]` (NotFound naming the table).
Status CheckColumns(const QueryBlock& block,
                    std::span<const rel::Table* const> tables);

// The one test of a physical plan against its block: OK when `plan`
// computes `block`, whose relation i is over `tables[i]`. Every optimizer
// plan passes; every executor runs it before reading a row. In order:
//  R1 ranges (NotFound): CheckColumns; each relation a node names is in the
//     block and each column position it names is in its table.
//  R2 shape: a projection root with a child; no other projection, no null
//     join child; an index lookup has a DrivingFilter.
//  R3 sides: a join's left key is on its left side, its right key on its
//     build side or its inner `rel`; the sides share no relation; the plan
//     binds every block relation.
//  R4 coverage: each block filter is at its relation's access node (scan,
//     lookup, or index nested loops into it); each block edge is applied
//     once, at the node where its relations first meet (a self edge at the
//     access node), as driving edge or residual. Extra predicates may ride.
//  R5 outer joins: a join is left-outer iff a block edge between its sides
//     is, and each such edge has its `left_rel` on the left side.
// R2-R5 fail InvalidArgument; over 64 relations is Unsupported.
Status CheckPlan(const QueryBlock& block,
                 std::span<const rel::Table* const> tables,
                 const PhysicalPlanPtr& plan);

}  // namespace legodb::opt

#endif  // LEGODB_OPTIMIZER_PLAN_H_
