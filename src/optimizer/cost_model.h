#ifndef LEGODB_OPTIMIZER_COST_MODEL_H_
#define LEGODB_OPTIMIZER_COST_MODEL_H_

namespace legodb::opt {

// Cost-model parameters. Per Section 5 of the paper, the cost of a query is
// estimated from the number of seeks, the amount of data read, the amount of
// data written, and CPU time for in-memory processing. Every coefficient is
// a cost and must not be negative: the join DP skips a split whose inputs
// alone already cost more than the best plan found, which is exact only
// because a join never costs less than its inputs.
struct CostParams {
  // Cost of one random I/O (seek + rotational latency), in abstract units.
  double seek_cost = 40.0;
  // Cost per byte read sequentially.
  double read_per_byte = 0.002;
  // Cost per byte written (query results count as writes).
  double write_per_byte = 0.004;
  // CPU cost per tuple processed by an operator.
  double cpu_per_tuple = 0.02;
  // CPU cost per hash-table insert/probe.
  double cpu_per_probe = 0.03;
  // B-tree descent cost for one index probe, expressed in seeks.
  double index_probe_seeks = 1.0;

  // Indexes always exist on primary keys and foreign keys. When set,
  // indexes also exist on columns used in equality predicates (the "in the
  // presence of appropriate indexes" scenario of Section 5.3(b); explored by
  // bench/ablation_indexes).
  bool index_on_predicates = false;

  // Join-order search switches from dynamic programming to a greedy
  // heuristic above this many relations. The DP prices only splits of a
  // connected subset into two connected halves (286 on a 12-chain, 261625
  // on a 12-clique), but its memo and its per-subset neighbour and edge
  // tables are flat arrays of 2^n entries, so keep this small.
  int dp_rel_limit = 12;

  // Storage page size in bytes for the paged backend; 0 models exact-byte
  // sequential IO (the historical default — every golden cost is computed
  // at 0). When set, scans seek once per page and read whole pages, and
  // each index probe reads one page: the terms the disk backend's buffer
  // pool actually measures, so estimated seeks/bytes become comparable to
  // the pool's fault counters in bench/calibration.
  double page_size = 0;
};

}  // namespace legodb::opt

#endif  // LEGODB_OPTIMIZER_COST_MODEL_H_
