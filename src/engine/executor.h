#ifndef LEGODB_ENGINE_EXECUTOR_H_
#define LEGODB_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "optimizer/plan.h"
#include "storage/database.h"
#include "xquery/result.h"

namespace legodb::engine {

class PreparedPrograms;

// Work actually performed by an execution — the measured counterpart of the
// optimizer's estimates, used to validate the cost model (the paper
// validated against SQL Server; we validate against this engine).
struct ExecStats {
  double tuples_processed = 0;
  double bytes_read = 0;
  double seeks = 0;
  double rows_out = 0;
  double bytes_out = 0;
  // Bytes written to temp pages by hash-join build sides that spilled under
  // buffer-pool pressure (paged backend only).
  double bytes_spilled = 0;

  // Work combined with the same weights as the optimizer's cost formula.
  double WeightedCost(double seek_cost, double read_per_byte,
                      double write_per_byte, double cpu_per_tuple) const {
    return seeks * seek_cost + bytes_read * read_per_byte +
           (bytes_out + bytes_spilled) * write_per_byte +
           tuples_processed * cpu_per_tuple;
  }
};

// Execution knobs.
struct ExecOptions {
  // Lanes pulled per operator Next() call (0 is treated as 1). 1
  // degenerates to tuple-at-a-time; larger batches amortize per-call
  // overhead.
  size_t batch_size = 1024;
  // Record a per-operator estimated-vs-actual profile for each executed
  // block (see ExecProfile). Off by default: profiles accumulate until
  // ResetProfile(), which loops calling ExecuteBlock would otherwise grow.
  bool collect_profile = false;
  // Prepared per-node bytecode templates and resolved column/index pointers
  // for the plans about to execute (see engine/prepared.h). When set — and
  // compiled against this executor's Database — operators skip Open-time
  // predicate compilation and catalog resolution; otherwise it is ignored.
  // Not owned; must outlive the execution.
  const PreparedPrograms* prepared = nullptr;
  // Absolute obs::NowNanos() deadline (0 = none). Checked once per
  // exchanged vector — including inside the scan operators' candidate
  // loops, where a selective filter can burn through an entire table
  // without returning — so Status::DeadlineExceeded can fire *during*
  // execution, not only before it starts.
  int64_t deadline_ns = 0;
  // Cooperative cancellation, polled at the same per-vector granularity
  // (one relaxed atomic load). When cancelled, execution stops at the next
  // vector boundary with Status::Cancelled. Not owned; must outlive the
  // execution.
  const common::CancelToken* cancel = nullptr;
  // Hash-join build sides larger than this many bytes spill their
  // materialized row-index vectors to temp pages (paged backend only;
  // memory tables never spill). 0 = automatic: a quarter of the buffer
  // pool's capacity in bytes. SIZE_MAX disables spilling.
  size_t spill_build_bytes = 0;
};

// One plan operator's estimates next to what execution actually observed.
struct OpActual {
  opt::PhysicalPlan::Kind kind = opt::PhysicalPlan::Kind::kSeqScan;
  std::string label;        // e.g. "SeqScan(show)"
  double est_rows = 0;      // optimizer cardinality estimate
  double est_cost = 0;      // optimizer cost estimate (inclusive of inputs)
  int64_t actual_rows = 0;  // lanes this operator produced
  int64_t rows_in = 0;      // lanes examined (scan candidates / probe input)
  int64_t batches = 0;      // Next() calls answered (incl. the empty EOS)
  int64_t vectors = 0;      // column vectors produced across all batches
  double seeks = 0;         // inclusive index/scan probes (child ops incl.)
  double bytes = 0;         // inclusive bytes read (child ops included)
  double ms = 0;            // inclusive wall time (child pulls included)
  int depth = 0;            // position in the operator tree (pre-order)

  // Symmetric relative cardinality error: max(est/actual, actual/est),
  // with both sides floored at one row. 1.0 = perfect estimate.
  double QError() const;

  // Output lanes per input lane (scans: fraction surviving the filter;
  // joins: fan-out, may exceed 1). Zero input yields 0.
  double Selectivity() const;
};

// Per-operator calibration data for the executed plan(s), in pre-order.
struct ExecProfile {
  std::vector<OpActual> ops;
  void Clear() { ops.clear(); }
};

// Executes physical plans over an in-memory Database as a pipelined,
// vector-at-a-time pull engine: operators exchange columnar batches (one
// row-index column per base relation, no per-tuple allocation), filters and
// residual join predicates run as compiled bytecode over the storage
// layer's column vectors (see engine/expr_vm.h), only hash-join build sides
// materialize, and all column shadows and constants are resolved once per
// operator open (never per row). Rows materialize only at the final
// projection boundary, so results stay bit-identical to ReferenceExecutor.
//
// One Executor serves one query stream on one thread; any number of
// Executors may share a Database concurrently (the storage index and
// column-vector registries are thread-safe, everything else is read-only
// during execution).
class Executor {
 public:
  // `params` binds symbolic query constants (c1, c2, ...).
  explicit Executor(store::Database* db,
                    std::map<std::string, Value> params = {},
                    ExecOptions options = {})
      : db_(db), params_(std::move(params)), options_(options) {}

  // Executes one planned block; returns rows labelled per block.output.
  StatusOr<xq::ResultSet> ExecuteBlock(const opt::QueryBlock& block,
                                       const opt::PhysicalPlanPtr& plan);

  // Executes a whole translated query (UNION ALL of its blocks). Clears the
  // profile first, so profile() afterwards describes exactly this query.
  StatusOr<xq::ResultSet> ExecuteQuery(
      const opt::RelQuery& query,
      const std::vector<opt::PhysicalPlanPtr>& block_plans);

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats(); }

  // Estimated-vs-actual per operator, populated when
  // ExecOptions::collect_profile is set (appended per executed block).
  const ExecProfile& profile() const { return profile_; }
  void ResetProfile() { profile_.Clear(); }

  const ExecOptions& options() const { return options_; }

 private:
  friend class BlockExecutor;
  store::Database* db_;
  std::map<std::string, Value> params_;
  ExecOptions options_;
  ExecStats stats_;
  ExecProfile profile_;
};

}  // namespace legodb::engine

#endif  // LEGODB_ENGINE_EXECUTOR_H_
