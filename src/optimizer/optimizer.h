#ifndef LEGODB_OPTIMIZER_OPTIMIZER_H_
#define LEGODB_OPTIMIZER_OPTIMIZER_H_

#include <vector>

#include "common/status.h"
#include "optimizer/cost_model.h"
#include "optimizer/plan.h"
#include "relational/catalog.h"

namespace legodb::opt {

// A planned query block: the chosen physical plan with its estimates.
struct PlannedBlock {
  PhysicalPlanPtr plan;
  double cost = 0;
  double rows = 0;
};

struct PlannedQuery {
  std::vector<PlannedBlock> blocks;
  double total_cost = 0;
};

// A System-R / Volcano-style cost-based optimizer over SPJ blocks, standing
// in for the paper's "relational optimizer" component (Figure 7): access
// path selection (seq scan vs index lookup), join ordering (dynamic
// programming over the join graph's connected subsets up to
// CostParams::dp_rel_limit relations, greedy beyond), and
// join method selection (hash join vs index nested loops). Cost estimates
// count seeks, bytes read, bytes written and CPU.
class Optimizer {
 public:
  Optimizer(const rel::Catalog& catalog, CostParams params = {})
      : catalog_(catalog), params_(params) {}

  StatusOr<PlannedBlock> PlanBlock(const QueryBlock& block) const;

  // Plans all blocks of a translated query; total cost is their sum (UNION
  // ALL branches and publish blocks all execute).
  StatusOr<PlannedQuery> PlanQuery(const RelQuery& query) const;

  const CostParams& params() const { return params_; }

 private:
  const rel::Catalog& catalog_;
  CostParams params_;
};

}  // namespace legodb::opt

#endif  // LEGODB_OPTIMIZER_OPTIMIZER_H_
