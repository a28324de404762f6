#include "engine/executor.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "engine/expr_vm.h"
#include "engine/prepared.h"
#include "obs/obs.h"

namespace legodb::engine {

using store::ColumnVector;
using store::HashIndex;
using store::Row;
using store::StoredTable;

double OpActual::QError() const {
  double est = std::max(est_rows, 1.0);
  double act = std::max(static_cast<double>(actual_rows), 1.0);
  return std::max(est / act, act / est);
}

double OpActual::Selectivity() const {
  if (rows_in <= 0) return 0;
  return static_cast<double>(actual_rows) / static_cast<double>(rows_in);
}

namespace {

// A lane whose relation is unbound (not yet joined, or an outer-join miss).
constexpr int32_t kUnboundRow = -1;

// The columnar replacement for the row engine's vector-of-Binding batches:
// one row-index column per base relation of the block (lane -> row position
// in that relation's table). A relation with an empty column is unbound in
// every lane; kUnboundRow marks per-lane misses. Operators touch only the
// columns they process, and no per-tuple allocation happens anywhere.
struct ColumnBatch {
  std::vector<std::vector<int32_t>> rels;
  size_t lanes = 0;

  void Init(size_t nrels) {
    rels.resize(nrels);
    Clear();
  }
  void Clear() {
    for (auto& c : rels) c.clear();
    lanes = 0;
  }
  bool bound(size_t rel) const { return !rels[rel].empty(); }
  // Row index of `rel` at `lane` (kUnboundRow when the column is unbound).
  int32_t RowAt(size_t rel, size_t lane) const {
    return rels[rel].empty() ? kUnboundRow : rels[rel][lane];
  }
};

// Static metric names per operator (rows produced, inclusive wall time).
struct OpMetricNames {
  const char* rows;
  const char* ms;
};

OpMetricNames MetricNames(opt::PhysicalPlan::Kind kind) {
  switch (kind) {
    case opt::PhysicalPlan::Kind::kSeqScan:
      return {"exec.seq_scan.rows", "exec.seq_scan.ms"};
    case opt::PhysicalPlan::Kind::kIndexLookup:
      return {"exec.index_lookup.rows", "exec.index_lookup.ms"};
    case opt::PhysicalPlan::Kind::kHashJoin:
      return {"exec.hash_join.rows", "exec.hash_join.ms"};
    case opt::PhysicalPlan::Kind::kIndexNLJoin:
      return {"exec.index_nl_join.rows", "exec.index_nl_join.ms"};
    case opt::PhysicalPlan::Kind::kProject:
      return {"exec.project.rows", "exec.project.ms"};
  }
  return {"exec.unknown.rows", "exec.unknown.ms"};
}

const char* KindLabel(opt::PhysicalPlan::Kind kind) {
  switch (kind) {
    case opt::PhysicalPlan::Kind::kSeqScan:
      return "SeqScan";
    case opt::PhysicalPlan::Kind::kIndexLookup:
      return "IndexLookup";
    case opt::PhysicalPlan::Kind::kHashJoin:
      return "HashJoin";
    case opt::PhysicalPlan::Kind::kIndexNLJoin:
      return "IndexNLJoin";
    case opt::PhysicalPlan::Kind::kProject:
      return "Project";
  }
  return "Unknown";
}

// Shared state of one block execution: the compiled plan and the block's
// tables, plus the owning executor for stats/params.
struct ExecContext {
  Executor* e = nullptr;
  const std::map<std::string, Value>* params = nullptr;
  ExecStats* stats = nullptr;
  const opt::QueryBlock* block = nullptr;
  const std::vector<StoredTable*>* tables = nullptr;  // in relation order
  size_t batch_size = 1;
  // Operators accumulate per-operator wall time, rows and IO per Next/Open.
  // Gates only that bookkeeping: what runs never depends on it.
  bool timed = false;
  // The compiled plan every operator reads its programs from: the caller's
  // set, or one the block executor compiled against this Database.
  const PreparedPrograms* prepared = nullptr;
  // Cooperative interruption (ExecOptions::deadline_ns / ::cancel),
  // polled once per vector. `interruptible` caches "either is set" so the
  // common uninterruptible execution pays one branch per vector.
  int64_t deadline_ns = 0;
  const common::CancelToken* cancel = nullptr;
  bool interruptible = false;

  Status CheckInterrupt() const {
    if (!interruptible) return Status::OK();
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::Cancelled("request cancelled during execution");
    }
    if (deadline_ns != 0 && obs::NowNanos() > deadline_ns) {
      return Status::DeadlineExceeded("deadline exceeded during execution");
    }
    return Status::OK();
  }

  size_t nrels() const { return block->rels.size(); }
};

// A pipelined operator: Next() refills `out` with up to ctx->batch_size
// lanes (join operators may overshoot when one input lane matches several
// rows); zero lanes signal end of stream.
class Operator {
 public:
  Operator(ExecContext* ctx, const opt::PhysicalPlan* node,
           const PreparedPrograms::NodePrograms& prep)
      : ctx_(ctx), node_(node), prep_(prep) {}
  virtual ~Operator() = default;

  virtual Status Open() = 0;
  virtual Status Next(ColumnBatch* out) = 0;

  // Open/Next wrappers accumulating produced rows, batches, vectors,
  // inclusive wall time and inclusive seeks (child pulls included,
  // mirroring the optimizer's inclusive est_cost).
  Status OpenTimed() {
    return ctx_->timed ? Metered([&] { return Open(); }) : Open();
  }
  Status NextTimed(ColumnBatch* out) {
    if (!ctx_->timed) return Next(out);
    Status s = Metered([&] { return Next(out); });
    rows_out_ += static_cast<int64_t>(out->lanes);
    ++batches_;
    if (out->lanes > 0) {
      for (const auto& col : out->rels) {
        if (!col.empty()) ++vectors_;
      }
    }
    return s;
  }

  const opt::PhysicalPlan* node() const { return node_; }
  int64_t rows_produced() const { return rows_out_; }
  int64_t rows_examined() const { return rows_in_; }
  int64_t batches() const { return batches_; }
  int64_t vectors() const { return vectors_; }
  double seeks() const { return seeks_; }
  double bytes() const { return bytes_; }
  double millis() const { return static_cast<double>(ns_) / 1e6; }

 protected:
  ExecStats& stats() const { return *ctx_->stats; }
  StoredTable* table(int rel) const { return (*ctx_->tables)[rel]; }
  // Adds the IO a storage call reports (StoredTable::SeekIo, FetchRowRange
  // or FetchRows — the one place IO is priced) to the execution's stats.
  Status Charge(const StatusOr<store::TableIo>& io) {
    if (!io.ok()) return io.status();
    stats().seeks += io->seeks;
    stats().bytes_read += io->bytes;
    return Status::OK();
  }
  void CountInput(size_t lanes) {
    rows_in_ += static_cast<int64_t>(lanes);
  }

  ExecContext* ctx_;
  const opt::PhysicalPlan* node_;
  const PreparedPrograms::NodePrograms& prep_;  // this node's programs

 private:
  // Runs `call`, adding its wall time, seeks and bytes read to this
  // operator's inclusive totals.
  template <typename Call>
  Status Metered(Call call) {
    int64_t t0 = obs::NowNanos();
    double seeks0 = ctx_->stats->seeks;
    double bytes0 = ctx_->stats->bytes_read;
    Status s = call();
    ns_ += obs::NowNanos() - t0;
    seeks_ += ctx_->stats->seeks - seeks0;
    bytes_ += ctx_->stats->bytes_read - bytes0;
    return s;
  }

  int64_t rows_out_ = 0;
  int64_t rows_in_ = 0;
  int64_t batches_ = 0;
  int64_t vectors_ = 0;
  int64_t ns_ = 0;
  double seeks_ = 0;
  double bytes_ = 0;
};

// Shared filtering kernel for the two scan-shaped operators: runs the
// compiled filter over `take` candidate row indices and appends the
// selected ones to `out_col`. `cand` must hold the candidates as int32.
class ScanFilter {
 public:
  // Copies relation `rel`'s prepared filter template and binds this
  // execution's parameters (no compilation, no catalog lookups).
  Status Bind(const ExprProgram& filter, int rel,
              const std::map<std::string, Value>& params) {
    rel_ = rel;
    program_ = filter;
    return program_.BindParams(params);
  }

  bool empty() const { return program_.empty(); }

  void Apply(const int32_t* cand, size_t take, std::vector<int32_t>* out_col) {
    mask_.resize(take);
    program_.EvalRows(rel_, cand, take, mask_.data());
    for (size_t i = 0; i < take; ++i) {
      if (mask_[i]) out_col->push_back(cand[i]);
    }
  }

  // Evaluates the filter over `cand` and ANDs the result into `mask`.
  void ApplyMask(const int32_t* cand, size_t take, uint8_t* mask) {
    mask_.resize(take);
    program_.EvalRows(rel_, cand, take, mask_.data());
    for (size_t i = 0; i < take; ++i) mask[i] = mask[i] & mask_[i];
  }

 private:
  ExprProgram program_;
  int rel_ = -1;
  std::vector<uint8_t> mask_;
};

class SeqScanOp : public Operator {
 public:
  using Operator::Operator;

  Status Open() override {
    LEGODB_RETURN_IF_ERROR(
        filter_.Bind(prep_.filter, node_->rel, *ctx_->params));
    return Charge(table(node_->rel)->SeekIo());
  }

  Status Next(ColumnBatch* out) override {
    out->Clear();
    StoredTable* scanned = table(node_->rel);
    size_t total = scanned->row_count();
    std::vector<int32_t>& col = out->rels[node_->rel];
    // An empty batch signals end of stream, so keep scanning candidate
    // vectors until at least one row survives or the table is exhausted.
    // A selective filter can reject every candidate vector, so this loop —
    // not just the root pull loop — must poll for deadline/cancellation.
    while (col.empty() && pos_ < total) {
      LEGODB_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      size_t take = std::min(ctx_->batch_size, total - pos_);
      LEGODB_RETURN_IF_ERROR(Charge(scanned->FetchRowRange(pos_, pos_ + take)));
      if (filter_.empty()) {
        col.resize(take);
        std::iota(col.begin(), col.end(), static_cast<int32_t>(pos_));
      } else {
        cand_.resize(take);
        std::iota(cand_.begin(), cand_.end(), static_cast<int32_t>(pos_));
        filter_.Apply(cand_.data(), take, &col);
      }
      pos_ += take;
      CountInput(take);
      stats().tuples_processed += static_cast<double>(take);
    }
    out->lanes = col.size();
    return Status::OK();
  }

 private:
  ScanFilter filter_;
  std::vector<int32_t> cand_;
  size_t pos_ = 0;
};

class IndexLookupOp : public Operator {
 public:
  using Operator::Operator;

  Status Open() override {
    LEGODB_RETURN_IF_ERROR(
        filter_.Bind(prep_.filter, node_->rel, *ctx_->params));
    LEGODB_ASSIGN_OR_RETURN(Value key,
                            ResolveConstant(*ctx_->params, *prep_.driver));
    hits_ = prep_.index->Find(key);
    return Charge(table(node_->rel)->SeekIo());
  }

  Status Next(ColumnBatch* out) override {
    out->Clear();
    std::vector<int32_t>& col = out->rels[node_->rel];
    // As in SeqScan: empty output means EOS, so drain candidate vectors
    // until a row survives the residual filter (polling for interruption,
    // as in SeqScan).
    while (col.empty() && pos_ < hits_.size()) {
      LEGODB_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      size_t take = std::min(ctx_->batch_size, hits_.size() - pos_);
      cand_.assign(hits_.begin() + pos_, hits_.begin() + pos_ + take);
      pos_ += take;
      LEGODB_RETURN_IF_ERROR(
          Charge(table(node_->rel)->FetchRows(cand_.data(), take)));
      if (filter_.empty()) {
        col.assign(cand_.begin(), cand_.end());
      } else {
        filter_.Apply(cand_.data(), take, &col);
      }
      CountInput(take);
      stats().tuples_processed += static_cast<double>(take);
    }
    out->lanes = col.size();
    return Status::OK();
  }

 private:
  ScanFilter filter_;
  std::vector<int32_t> cand_;
  std::span<const int32_t> hits_;
  size_t pos_ = 0;
};

// Match-candidate plumbing shared by the two join operators: candidates are
// (probe lane, match ordinal) pairs generated per probe batch, grouped
// contiguously by lane so outer-join misses can be interleaved at the
// right position. After the residual bytecode produces a selection mask,
// EmitLanes builds the (lane, ordinal) emission list — ordinal kUnboundRow
// marks a preserved outer lane — and the join gathers output columns from
// it with tight per-column loops.
struct JoinCandidates {
  std::vector<int32_t> lane;       // probe lane per candidate
  std::vector<int32_t> ord;        // match ordinal per candidate
  std::vector<size_t> group_end;   // per probe lane: end offset in lane/ord
  std::vector<int32_t> emit_lane;  // emission list after mask + outer rules
  std::vector<int32_t> emit_ord;

  void Reset(size_t probe_lanes) {
    lane.clear();
    ord.clear();
    group_end.resize(probe_lanes);
  }

  void Add(size_t probe_lane, int32_t ordinal) {
    lane.push_back(static_cast<int32_t>(probe_lane));
    ord.push_back(ordinal);
  }

  void CloseGroup(size_t probe_lane) { group_end[probe_lane] = ord.size(); }

  // `mask` may be nullptr (all candidates pass).
  void EmitLanes(size_t probe_lanes, const uint8_t* mask, bool left_outer) {
    emit_lane.clear();
    emit_ord.clear();
    size_t start = 0;
    for (size_t l = 0; l < probe_lanes; ++l) {
      size_t end = group_end[l];
      bool matched = false;
      for (size_t c = start; c < end; ++c) {
        if (mask != nullptr && !mask[c]) continue;
        emit_lane.push_back(lane[c]);
        emit_ord.push_back(ord[c]);
        matched = true;
      }
      if (!matched && left_outer) {
        emit_lane.push_back(static_cast<int32_t>(l));
        emit_ord.push_back(kUnboundRow);
      }
      start = end;
    }
  }
};

// The positions of `index` whose key equals row `r` of `key` (non-null):
// int64 keys on both sides skip Value hashing and comparison.
std::span<const int32_t> Probe(const HashIndex& index, const ColumnVector& key,
                               int32_t r) {
  return key.typed_int() && index.int_keys() ? index.FindInt(key.ints()[r])
                                             : index.Find(key.value(r));
}

// Gathers every bound relation column of `in` at `lanes` into the same
// relation's column of `out` (unbound relations are left untouched).
void GatherLanes(const ColumnBatch& in, const std::vector<int32_t>& lanes,
                 std::vector<std::vector<int32_t>>* out) {
  for (size_t r = 0; r < in.rels.size(); ++r) {
    if (!in.bound(r)) continue;
    const int32_t* src = in.rels[r].data();
    std::vector<int32_t>& dst = (*out)[r];
    dst.resize(lanes.size());
    for (size_t j = 0; j < lanes.size(); ++j) dst[j] = src[lanes[j]];
  }
}

// A hash-join build side's materialized row-index vectors, written out to
// temp pager pages when they outgrow the spill threshold (a fraction of the
// buffer pool — a build side that dwarfs the pool shouldn't also live on
// the heap as if memory were free). Pages are allocated from and returned
// to the database's pager but bypass the buffer pool: they are private to
// this operator, so pool frames would only evict the shared working set.
// Reads go through a one-page cache; each cache miss is a real pager read,
// charged to the execution's seeks/bytes like any other page fault.
class SpilledBuild {
 public:
  static StatusOr<std::unique_ptr<SpilledBuild>> Create(
      store::Pager* pager, ExecStats* stats,
      const std::vector<std::vector<int32_t>>& cols,
      const std::vector<uint8_t>& bound) {
    std::unique_ptr<SpilledBuild> s(new SpilledBuild(pager));
    const size_t page_size = pager->page_size();
    const size_t ipp = s->ipp_;
    s->pages_.resize(cols.size());
    std::vector<char> buf(page_size);
    for (size_t r = 0; r < cols.size(); ++r) {
      if (r < bound.size() && !bound[r]) continue;
      const std::vector<int32_t>& col = cols[r];
      for (size_t off = 0; off < col.size(); off += ipp) {
        size_t n = std::min(ipp, col.size() - off);
        std::memcpy(buf.data(), col.data() + off, n * sizeof(int32_t));
        std::memset(buf.data() + n * sizeof(int32_t), 0,
                    page_size - n * sizeof(int32_t));
        LEGODB_ASSIGN_OR_RETURN(uint32_t page, pager->Allocate());
        s->pages_[r].push_back(page);
        Status st = pager->Write(page, buf.data());
        if (!st.ok()) return st;  // dtor frees pages written so far
        stats->bytes_spilled += static_cast<double>(page_size);
      }
    }
    return s;
  }

  ~SpilledBuild() {
    for (const auto& rel_pages : pages_) {
      for (uint32_t page : rel_pages) pager_->Free(page);
    }
  }

  // Gathers `ords[0..n)` of relation `rel` into `dst` (negative ordinals
  // become kUnboundRow), charging cache-miss page reads to `stats`.
  Status Gather(ExecStats* stats, size_t rel, const int32_t* ords, size_t n,
                int32_t* dst) {
    const size_t page_size = pager_->page_size();
    for (size_t j = 0; j < n; ++j) {
      int32_t o = ords[j];
      if (o < 0) {
        dst[j] = kUnboundRow;
        continue;
      }
      uint32_t page = pages_[rel][static_cast<size_t>(o) / ipp_];
      if (!cache_valid_ || page != cached_page_) {
        LEGODB_RETURN_IF_ERROR(pager_->Read(page, buf_.data()));
        cached_page_ = page;
        cache_valid_ = true;
        stats->seeks += 1;
        stats->bytes_read += static_cast<double>(page_size);
      }
      std::memcpy(&dst[j],
                  buf_.data() + (static_cast<size_t>(o) % ipp_) *
                                    sizeof(int32_t),
                  sizeof(int32_t));
    }
    return Status::OK();
  }

 private:
  explicit SpilledBuild(store::Pager* pager)
      : pager_(pager),
        ipp_(pager->page_size() / sizeof(int32_t)),
        buf_(pager->page_size()) {}

  store::Pager* pager_;
  size_t ipp_;  // int32 slots per page
  std::vector<std::vector<uint32_t>> pages_;  // per relation
  std::vector<char> buf_;  // one-page read cache
  uint32_t cached_page_ = 0;
  bool cache_valid_ = false;
};

// Hash join: materializes the build (right) side at open, then streams
// probe batches through the hash table. Probe order is preserved and
// matches per probe lane come in build order, so output order is identical
// to the materializing reference executor at any batch size.
//
// Every probe goes through one HashIndex. When ProbesSharedIndex() holds,
// the build child is never constructed: the join probes the build table's
// shared index (its positions are row indices, in the order a scan would
// produce them, so the output is the same), so repeated queries stop
// re-hashing the build side on every execution. It still charges the scan
// it stands in for. Otherwise the join builds a private index over the
// materialized build side, whose positions are build ordinals.
class HashJoinOp : public Operator {
 public:
  // `build` is null when the join probes the shared index.
  HashJoinOp(ExecContext* ctx, const opt::PhysicalPlan* node,
             const PreparedPrograms::NodePrograms& prep,
             std::unique_ptr<Operator> probe, std::unique_ptr<Operator> build)
      : Operator(ctx, node, prep),
        probe_(std::move(probe)),
        build_(std::move(build)) {}

  Status Open() override {
    LEGODB_RETURN_IF_ERROR(probe_->OpenTimed());
    residuals_ = prep_.residuals;
    size_t nrels = ctx_->nrels();
    in_.Init(nrels);
    build_bound_.assign(nrels, 0);
    gather_.resize(nrels);
    relptrs_.assign(nrels, nullptr);

    int build_rel = node_->right_join_rel;
    StoredTable* build_table = table(build_rel);
    if (build_ == nullptr) {
      index_ = prep_.index;
      build_bound_[build_rel] = 1;
      // The unfiltered scan the index stands in for — charged through the
      // same storage calls SeqScan makes — plus the join's build input.
      size_t n = build_table->row_count();
      LEGODB_RETURN_IF_ERROR(Charge(build_table->SeekIo()));
      LEGODB_RETURN_IF_ERROR(Charge(build_table->FetchRowRange(0, n)));
      stats().tuples_processed += 2 * static_cast<double>(n);
      return Status::OK();
    }

    // Drain and materialize the build side columnar, then key it by join
    // value through the build relation's column vector.
    LEGODB_RETURN_IF_ERROR(build_->OpenTimed());
    build_cols_.assign(nrels, {});
    ColumnBatch bin;
    bin.Init(nrels);
    size_t count = 0;
    do {
      LEGODB_RETURN_IF_ERROR(build_->NextTimed(&bin));
      for (size_t r = 0; r < nrels; ++r) {
        if (!bin.bound(r)) continue;
        build_bound_[r] = 1;
        build_cols_[r].insert(build_cols_[r].end(), bin.rels[r].begin(),
                              bin.rels[r].end());
      }
      count += bin.lanes;
    } while (bin.lanes > 0);
    // A build side that never binds the build relation has no keys.
    std::span<const int32_t> brows;
    if (build_bound_[build_rel]) brows = build_cols_[build_rel];
    index_ = &local_index_.emplace(*prep_.right_key, brows);
    stats().tuples_processed += static_cast<double>(count);

    // Spill oversized build sides to temp pages (paged backend only): the
    // hash table itself (ordinals) stays in memory, but the per-relation
    // row-index vectors — the bulk of the materialization — move to disk.
    store::Pager* pager = build_table->pager();
    if (pager != nullptr) {
      size_t threshold = ctx_->e->options().spill_build_bytes;
      if (threshold == 0) {
        threshold = build_table->pool()->capacity() * pager->page_size() / 4;
      }
      size_t build_bytes = 0;
      for (const auto& c : build_cols_) build_bytes += c.size() * sizeof(int32_t);
      if (build_bytes > threshold) {
        LEGODB_ASSIGN_OR_RETURN(
            spill_, SpilledBuild::Create(pager, ctx_->stats, build_cols_,
                                         build_bound_));
        obs::Count("exec.hash_join.spills");
        build_cols_.clear();
        build_cols_.shrink_to_fit();
      }
    }
    return Status::OK();
  }

  Status Next(ColumnBatch* out) override {
    out->Clear();
    const int probe_rel = node_->left_join_rel;
    const ColumnVector& probe_key = *prep_.left_key;
    while (out->lanes == 0) {
      LEGODB_RETURN_IF_ERROR(probe_->NextTimed(&in_));
      if (in_.lanes == 0) return Status::OK();  // end of stream
      stats().tuples_processed += static_cast<double>(in_.lanes);
      CountInput(in_.lanes);

      cand_.Reset(in_.lanes);
      const std::vector<int32_t>& prow = in_.rels[probe_rel];
      for (size_t l = 0; l < in_.lanes; ++l) {
        int32_t r = prow.empty() ? kUnboundRow : prow[l];
        if (r >= 0 && !probe_key.is_null(r)) {
          for (int32_t pos : Probe(*index_, probe_key, r)) cand_.Add(l, pos);
        }
        cand_.CloseGroup(l);
      }

      const uint8_t* mask = nullptr;
      if (!residuals_.empty() && !cand_.ord.empty()) {
        LEGODB_RETURN_IF_ERROR(EvalResiduals());
        mask = mask_.data();
      }
      cand_.EmitLanes(in_.lanes, mask, node_->left_outer);

      // Gather output columns from the emission list.
      size_t m = cand_.emit_lane.size();
      GatherLanes(in_, cand_.emit_lane, &out->rels);
      for (size_t r = 0; r < build_bound_.size(); ++r) {
        if (!build_bound_[r]) continue;
        LEGODB_RETURN_IF_ERROR(
            GatherBuild(r, cand_.emit_ord.data(), m, &out->rels[r]));
      }
      out->lanes = m;
    }
    return Status::OK();
  }

 private:
  // Gathers relation `r`'s build-side row indices at ordinals ords[0..n)
  // into `dst` (negative ordinals become kUnboundRow). Shared-index
  // ordinals already are the build table's row indices.
  Status GatherBuild(size_t r, const int32_t* ords, size_t n,
                     std::vector<int32_t>* dst) {
    if (build_ == nullptr) {
      dst->assign(ords, ords + n);
      return Status::OK();
    }
    dst->resize(n);
    if (spill_) return spill_->Gather(ctx_->stats, r, ords, n, dst->data());
    const int32_t* src = build_cols_[r].data();
    for (size_t j = 0; j < n; ++j) {
      (*dst)[j] = ords[j] < 0 ? kUnboundRow : src[ords[j]];
    }
    return Status::OK();
  }

  // Materializes the candidate lanes the residual program reads (probe-side
  // columns gathered by candidate lane, build-side by candidate ordinal)
  // and evaluates it into mask_.
  Status EvalResiduals() {
    size_t c = cand_.ord.size();
    GatherLanes(in_, cand_.lane, &gather_);
    for (size_t r = 0; r < in_.rels.size(); ++r) {
      relptrs_[r] = in_.bound(r) ? gather_[r].data() : nullptr;
    }
    for (size_t r = 0; r < build_bound_.size(); ++r) {
      if (!build_bound_[r]) continue;
      LEGODB_RETURN_IF_ERROR(GatherBuild(r, cand_.ord.data(), c, &gather_[r]));
      relptrs_[r] = gather_[r].data();
    }
    mask_.resize(c);
    residuals_.Eval(LaneView{relptrs_.data(), relptrs_.size(), c},
                    mask_.data());
    return Status::OK();
  }

  std::unique_ptr<Operator> probe_;
  std::unique_ptr<Operator> build_;
  ExprProgram residuals_;
  const HashIndex* index_ = nullptr;  // the shared index or local_index_
  std::optional<HashIndex> local_index_;  // keyed build side, when built
  std::unique_ptr<SpilledBuild> spill_;  // build cols on temp pages when set
  std::vector<std::vector<int32_t>> build_cols_;  // materialized build side
  std::vector<uint8_t> build_bound_;
  ColumnBatch in_;
  JoinCandidates cand_;
  std::vector<std::vector<int32_t>> gather_;
  std::vector<const int32_t*> relptrs_;
  std::vector<uint8_t> mask_;
};

class IndexNLJoinOp : public Operator {
 public:
  IndexNLJoinOp(ExecContext* ctx, const opt::PhysicalPlan* node,
                const PreparedPrograms::NodePrograms& prep,
                std::unique_ptr<Operator> outer)
      : Operator(ctx, node, prep),
        outer_(std::move(outer)) {}

  Status Open() override {
    LEGODB_RETURN_IF_ERROR(outer_->OpenTimed());
    LEGODB_RETURN_IF_ERROR(
        filter_.Bind(prep_.filter, node_->rel, *ctx_->params));
    residuals_ = prep_.residuals;
    in_.Init(ctx_->nrels());
    gather_.resize(ctx_->nrels());
    relptrs_.assign(ctx_->nrels(), nullptr);
    return Status::OK();
  }

  Status Next(ColumnBatch* out) override {
    out->Clear();
    const int outer_rel = node_->left_join_rel;
    const ColumnVector& outer_key = *prep_.left_key;
    const int inner_rel = node_->rel;
    while (out->lanes == 0) {
      LEGODB_RETURN_IF_ERROR(outer_->NextTimed(&in_));
      if (in_.lanes == 0) return Status::OK();  // end of stream
      CountInput(in_.lanes);

      cand_.Reset(in_.lanes);
      const std::vector<int32_t>& orow = in_.rels[outer_rel];
      // One index probe per outer lane, then a fetch of every matched row.
      LEGODB_RETURN_IF_ERROR(Charge(table(inner_rel)->SeekIo(in_.lanes)));
      for (size_t l = 0; l < in_.lanes; ++l) {
        int32_t r = orow.empty() ? kUnboundRow : orow[l];
        if (r >= 0 && !outer_key.is_null(r)) {
          std::span<const int32_t> hits = Probe(*prep_.index, outer_key, r);
          stats().tuples_processed += static_cast<double>(hits.size());
          for (int32_t idx : hits) cand_.Add(l, idx);
        }
        cand_.CloseGroup(l);
      }
      LEGODB_RETURN_IF_ERROR(Charge(
          table(inner_rel)->FetchRows(cand_.ord.data(), cand_.ord.size())));

      // Combined selection: inner residual filters AND residual join edges,
      // both over the candidate lanes.
      const uint8_t* mask = nullptr;
      size_t c = cand_.ord.size();
      if (c > 0 && (!filter_.empty() || !residuals_.empty())) {
        mask_.assign(c, 1);
        if (!filter_.empty()) {
          filter_.ApplyMask(cand_.ord.data(), c, mask_.data());
        }
        if (!residuals_.empty()) {
          EvalResiduals(inner_rel);
        }
        mask = mask_.data();
      }
      cand_.EmitLanes(in_.lanes, mask, node_->left_outer);

      size_t m = cand_.emit_lane.size();
      GatherLanes(in_, cand_.emit_lane, &out->rels);
      out->rels[inner_rel] = cand_.emit_ord;
      out->lanes = m;
    }
    return Status::OK();
  }

 private:
  void EvalResiduals(int inner_rel) {
    size_t c = cand_.ord.size();
    GatherLanes(in_, cand_.lane, &gather_);
    for (size_t r = 0; r < in_.rels.size(); ++r) {
      relptrs_[r] = in_.bound(r) ? gather_[r].data() : nullptr;
    }
    relptrs_[inner_rel] = cand_.ord.data();
    rmask_.resize(c);
    residuals_.Eval(LaneView{relptrs_.data(), relptrs_.size(), c},
                    rmask_.data());
    for (size_t j = 0; j < c; ++j) mask_[j] = mask_[j] & rmask_[j];
  }

  std::unique_ptr<Operator> outer_;
  ScanFilter filter_;
  ExprProgram residuals_;
  ColumnBatch in_;
  JoinCandidates cand_;
  std::vector<std::vector<int32_t>> gather_;
  std::vector<const int32_t*> relptrs_;
  std::vector<uint8_t> mask_;
  std::vector<uint8_t> rmask_;
};

// Builds the operator tree under a projection root, collecting every
// operator (pre-order) for metric/profile flushing after the run.
StatusOr<std::unique_ptr<Operator>> BuildOp(ExecContext* ctx,
                                            const opt::PhysicalPlanPtr& p,
                                            int depth,
                                            std::vector<Operator*>* preorder,
                                            std::vector<int>* depths) {
  if (!p) return Status::Internal("null plan node");
  const PreparedPrograms::NodePrograms* prep = ctx->prepared->Find(p.get());
  if (prep == nullptr) return Status::Internal("plan node was not prepared");
  preorder->push_back(nullptr);  // this node's pre-order slot, filled below
  depths->push_back(depth);
  size_t slot = preorder->size() - 1;
  std::unique_ptr<Operator> op;
  switch (p->kind) {
    case opt::PhysicalPlan::Kind::kSeqScan:
      op = std::make_unique<SeqScanOp>(ctx, p.get(), *prep);
      break;
    case opt::PhysicalPlan::Kind::kIndexLookup:
      op = std::make_unique<IndexLookupOp>(ctx, p.get(), *prep);
      break;
    case opt::PhysicalPlan::Kind::kHashJoin: {
      LEGODB_ASSIGN_OR_RETURN(
          std::unique_ptr<Operator> probe,
          BuildOp(ctx, p->left, depth + 1, preorder, depths));
      std::unique_ptr<Operator> build;
      if (!ProbesSharedIndex(*p)) {
        LEGODB_ASSIGN_OR_RETURN(
            build, BuildOp(ctx, p->right, depth + 1, preorder, depths));
      }
      op = std::make_unique<HashJoinOp>(ctx, p.get(), *prep, std::move(probe),
                                        std::move(build));
      break;
    }
    case opt::PhysicalPlan::Kind::kIndexNLJoin: {
      LEGODB_ASSIGN_OR_RETURN(
          std::unique_ptr<Operator> outer,
          BuildOp(ctx, p->left, depth + 1, preorder, depths));
      op = std::make_unique<IndexNLJoinOp>(ctx, p.get(), *prep,
                                           std::move(outer));
      break;
    }
    case opt::PhysicalPlan::Kind::kProject:
      return Status::Internal("nested projection");
  }
  (*preorder)[slot] = op.get();
  return op;
}

std::string OpLabel(const ExecContext& ctx, const opt::PhysicalPlan& p) {
  std::string label = KindLabel(p.kind);
  auto alias = [&](int rel) {
    return rel >= 0 && rel < static_cast<int>(ctx.block->rels.size())
               ? ctx.block->rels[rel].alias
               : "?";
  };
  // Prepare resolved every column the plan names, so each is in its table.
  auto column = [&](int rel, int c) {
    return alias(rel) + "." + (*ctx.tables)[rel]->meta().columns[c].name;
  };
  switch (p.kind) {
    case opt::PhysicalPlan::Kind::kSeqScan:
      label += "(" + alias(p.rel) + ")";
      break;
    case opt::PhysicalPlan::Kind::kIndexLookup:
      label += "(" + column(p.rel, p.index_column) + ")";
      break;
    case opt::PhysicalPlan::Kind::kHashJoin:
      label += "(" + column(p.left_join_rel, p.left_join_column) + "=" +
               column(p.right_join_rel, p.right_join_column) + ")";
      break;
    case opt::PhysicalPlan::Kind::kIndexNLJoin:
      label += "(" + column(p.left_join_rel, p.left_join_column) + "->" +
               column(p.rel, p.index_column) + ")";
      break;
    case opt::PhysicalPlan::Kind::kProject:
      break;
  }
  return label;
}

}  // namespace

class BlockExecutor {
 public:
  BlockExecutor(Executor* e, const opt::QueryBlock& block) {
    ctx_.e = e;
    ctx_.params = &e->params_;
    ctx_.stats = &e->stats_;
    ctx_.block = &block;
    ctx_.batch_size = std::max<size_t>(e->options_.batch_size, 1);
    ctx_.timed =
        e->options_.collect_profile || obs::Current() != nullptr;
    // A prepared set compiled against a different database would hand out
    // foreign column/index pointers; Run() compiles its own instead.
    if (e->options_.prepared != nullptr &&
        e->options_.prepared->database() == e->db_) {
      ctx_.prepared = e->options_.prepared;
    }
    ctx_.deadline_ns = e->options_.deadline_ns;
    ctx_.cancel = e->options_.cancel;
    ctx_.interruptible = ctx_.deadline_ns != 0 || ctx_.cancel != nullptr;
  }

  StatusOr<xq::ResultSet> Run(const opt::PhysicalPlanPtr& plan) {
    Executor* e = ctx_.e;
    const opt::QueryBlock& block = *ctx_.block;
    if (ctx_.prepared == nullptr) {
      own_ = PreparedPrograms(e->db_);
      LEGODB_RETURN_IF_ERROR(own_.AddBlock(block, plan));
      ctx_.prepared = &own_;
    }
    // A prepared plan carries column/index pointers into table registries
    // that any mutation invalidates; refuse to chase them once stale.
    LEGODB_RETURN_IF_ERROR(ctx_.prepared->CheckFresh());
    const PreparedPrograms::NodePrograms* project =
        ctx_.prepared->Find(plan.get());
    if (project == nullptr) return Status::Internal("plan was not prepared");
    ctx_.tables = &project->tables;

    std::vector<Operator*> preorder;
    std::vector<int> depths;
    LEGODB_ASSIGN_OR_RETURN(
        std::unique_ptr<Operator> root,
        BuildOp(&ctx_, plan->child, /*depth=*/1, &preorder, &depths));

    // Values materialize from the prepared columns; a null column projects
    // NULL.
    const std::vector<const ColumnVector*>& outputs = project->outputs;
    xq::ResultSet result;
    for (const auto& out : block.output) {
      result.labels.push_back(
          !out.label.empty() ? out.label
          : out.rel == -1
              ? "NULL"
              : project->tables[out.rel]->meta().columns[out.column].name);
    }

    int64_t t0 = ctx_.timed ? obs::NowNanos() : 0;
    int64_t root_batches = 0;
    {
      // Trace slice for the open phase (parameter binding, hash-join
      // build); no-op without an ambient registry.
      obs::Span open_span("exec.open");
      LEGODB_RETURN_IF_ERROR(root->OpenTimed());
    }
    {
      // Trace slice for the pull/projection phase, sibling of exec.open.
      // This is the only place lanes materialize back into value rows.
      obs::Span next_span("exec.next");
      ColumnBatch batch;
      batch.Init(ctx_.nrels());
      do {
        LEGODB_RETURN_IF_ERROR(ctx_.CheckInterrupt());
        LEGODB_RETURN_IF_ERROR(root->NextTimed(&batch));
        ++root_batches;
        for (size_t lane = 0; lane < batch.lanes; ++lane) {
          std::vector<Value> row;
          row.reserve(outputs.size());
          for (size_t i = 0; i < outputs.size(); ++i) {
            int32_t r = outputs[i] != nullptr
                            ? batch.RowAt(
                                  static_cast<size_t>(block.output[i].rel),
                                  lane)
                            : kUnboundRow;
            // Not `?:`: that would copy the value into a temporary first.
            if (r < 0) {
              row.push_back(Value::MakeNull());
            } else {
              row.push_back(outputs[i]->value(r));
            }
          }
          for (const Value& v : row) e->stats_.bytes_out += v.ByteSize();
          e->stats_.rows_out += 1;
          result.rows.push_back(std::move(row));
        }
      } while (batch.lanes > 0);
    }
    double total_ms =
        ctx_.timed ? static_cast<double>(obs::NowNanos() - t0) / 1e6 : 0;

    obs::Count("exec.project.rows", static_cast<int64_t>(result.rows.size()));
    if (obs::Current() != nullptr) {
      for (Operator* op : preorder) {
        OpMetricNames names = MetricNames(op->node()->kind);
        obs::Count(names.rows, op->rows_produced());
        obs::Observe(names.ms, op->millis());
      }
    }
    if (e->options_.collect_profile) {
      // The projection first (depth 0, with its root's vectors and IO),
      // then every operator in pre-order.
      auto add = [&](const opt::PhysicalPlan& node, int depth,
                     const Operator& op) -> OpActual& {
        OpActual& a = e->profile_.ops.emplace_back();
        a.kind = node.kind;
        a.label = OpLabel(ctx_, node);
        a.est_rows = node.est_rows;
        a.est_cost = node.est_cost;
        a.depth = depth;
        a.actual_rows = op.rows_produced();
        a.rows_in = op.rows_examined();
        a.batches = op.batches();
        a.vectors = op.vectors();
        a.seeks = op.seeks();
        a.bytes = op.bytes();
        a.ms = op.millis();
        return a;
      };
      OpActual& project = add(*plan, 0, *root);
      project.actual_rows = static_cast<int64_t>(result.rows.size());
      project.rows_in = root->rows_produced();
      project.batches = root_batches;
      project.ms = total_ms;
      for (size_t i = 0; i < preorder.size(); ++i) {
        add(*preorder[i]->node(), depths[i], *preorder[i]);
      }
    }
    return result;
  }

 private:
  ExecContext ctx_;
  PreparedPrograms own_;  // compiled here when the caller's set can't serve
};

StatusOr<xq::ResultSet> Executor::ExecuteBlock(
    const opt::QueryBlock& block, const opt::PhysicalPlanPtr& plan) {
  // A trace slice per executed block (the exec.open / exec.next phase
  // slices nest under it), plus the aggregate histogram/counter.
  obs::Span span("exec.block");
  obs::ScopedTimer timer("exec.block_ms");
  obs::Count("exec.blocks");
  return BlockExecutor(this, block).Run(plan);
}

StatusOr<xq::ResultSet> Executor::ExecuteQuery(
    const opt::RelQuery& query,
    const std::vector<opt::PhysicalPlanPtr>& block_plans) {
  if (block_plans.size() != query.blocks.size()) {
    return Status::InvalidArgument("plan count mismatch");
  }
  profile_.Clear();
  xq::ResultSet result;
  result.labels = query.labels;
  for (size_t i = 0; i < query.blocks.size(); ++i) {
    LEGODB_ASSIGN_OR_RETURN(xq::ResultSet part,
                            ExecuteBlock(query.blocks[i], block_plans[i]));
    if (result.labels.empty()) result.labels = part.labels;
    for (auto& row : part.rows) result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace legodb::engine
