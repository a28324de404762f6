// The join-order planner as it was before the DP enumerated csg-cmp pairs:
// every connected subset tries every split of itself (the half without its
// highest relation descending, both directions) and keeps the first
// strictly cheapest recipe; edges between two subsets are found by scanning
// every join edge. optimizer_test plans generated join graphs with it and
// with opt::Optimizer and requires bit-identical plans, so this copy is a
// test-only reference: it changes only with the planner's rules (as for
// the outer-join orientation and self-edge placement), never its search.
#ifndef LEGODB_TESTS_REFERENCE_PLANNER_H_
#define LEGODB_TESTS_REFERENCE_PLANNER_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "optimizer/optimizer.h"

namespace legodb::opt::reference {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A memo entry: estimates for joining one subset of the block's relations,
// plus the recipe that achieves them. Candidates are compared on recipes;
// a PhysicalPlan is built only for the recipe that wins (BuildDp, or each
// merge greedy picks).
struct Entry {
  enum class Op : uint8_t { kNone, kAccess, kHashJoin, kIndexNLJoin };

  double cost = kInf;
  double rows = 0;
  double width = 0;  // bytes per intermediate tuple
  double seeks = 0;  // predicted seeks, inclusive of inputs
  double bytes = 0;  // predicted bytes read, inclusive of inputs
  Op op = Op::kNone;
  int edge = -1;       // driving join edge, an index into QueryBlock::joins
  uint64_t probe = 0;  // left input: hash probe side / INLJ outer side
  uint64_t build = 0;  // right input: hash build side / INLJ inner relation

  bool valid() const { return op != Op::kNone; }
};

// The index-nested-loops terms of probing one side of a join edge: whether
// that side's column is indexed, the rows each probe matches and the bytes
// it reads per match.
struct ProbeTerms {
  bool indexed = false;
  double matches_per_probe = 0;
  double probe_bytes = 0;
};

// One join edge as the join enumeration reads it, computed once per block:
// endpoint masks, the outer flag, the edge's selectivity and the probe
// terms with each side as the inner relation.
struct EdgeTerms {
  uint64_t left = 0;   // 1 << left_rel
  uint64_t right = 0;  // 1 << right_rel
  bool outer = false;  // left_outer
  double selectivity = 0;
  ProbeTerms probe[2];  // [0]: left side inner, [1]: right side inner
};

// Plans one SPJ block: access paths, join order, join methods.
class BlockPlanner {
 public:
  BlockPlanner(const rel::Catalog& catalog, const CostParams& p,
               const QueryBlock& block)
      : catalog_(catalog), p_(p), block_(block) {}

  // Subsets the DP planned and splits it tried, valid after Plan().
  size_t memo_size() const { return memo_size_; }
  size_t splits_tried() const { return splits_tried_; }

  StatusOr<PlannedBlock> Plan() {
    size_t n = block_.rels.size();
    if (n == 0) return Status::InvalidArgument("query block has no relations");
    if (n > 62) return Status::Unsupported("too many relations in block");
    for (size_t i = 0; i < n; ++i) {
      const int t = block_.rels[i].table;
      if (t < 0 || static_cast<size_t>(t) >= catalog_.size()) {
        return Status::NotFound("no table #" + std::to_string(t));
      }
      Rel& r = rels_.emplace_back();
      r.table = &catalog_.table(t);
      r.width = r.table->RowWidth();
      r.rows = FilteredRows(static_cast<int>(i));
    }
    for (const auto& e : block_.joins) {
      if (e.left_rel < 0 || e.right_rel < 0 ||
          static_cast<size_t>(e.left_rel) >= n ||
          static_cast<size_t>(e.right_rel) >= n) {
        return Status::InvalidArgument(
            "join edge references a relation outside the block");
      }
      rels_[e.left_rel].adjacent |= 1ull << e.right_rel;
      rels_[e.right_rel].adjacent |= 1ull << e.left_rel;
      edges_.push_back(EdgeTermsOf(e));
    }

    PhysicalPlanPtr plan;
    Entry best = n <= static_cast<size_t>(p_.dp_rel_limit) ? PlanDp(&plan)
                                                           : PlanGreedy(&plan);
    if (!best.valid()) {
      return Status::Internal("no plan found for block");
    }

    // Root projection: producing the result counts as writing.
    auto root = std::make_shared<PhysicalPlan>();
    root->kind = PhysicalPlan::Kind::kProject;
    root->child = std::move(plan);
    double out_width = OutputWidth();
    root->est_rows = best.rows;
    root->est_cost = best.cost + best.rows * out_width * p_.write_per_byte +
                     best.rows * p_.cpu_per_tuple;
    root->est_seeks = best.seeks;  // output writing adds no read IO
    root->est_bytes = best.bytes;
    return PlannedBlock{root, root->est_cost, root->est_rows};
  }

 private:
  // ---- IO-term helpers ----
  //
  // At page_size == 0 (the historical default) these are identities that
  // reproduce the exact-byte cost formulas every golden was computed with.
  // At page_size > 0 they quantize the same terms to page granularity, the
  // unit the paged backend's buffer pool measures.

  // Bytes actually transferred to read `bytes` of payload.
  double PagedBytes(double bytes) const {
    if (p_.page_size <= 0) return bytes;
    return std::ceil(bytes / p_.page_size) * p_.page_size;
  }

  // Seeks for a sequential scan over `bytes` of payload: the classic single
  // positioning seek, or one pool fault per page on the paged backend.
  double ScanSeeks(double bytes) const {
    if (p_.page_size <= 0) return 1.0;
    return std::max(1.0, std::ceil(bytes / p_.page_size));
  }

  // Bytes read to fetch one matched row of `width` via an index probe: the
  // row itself, or the whole page holding it.
  double ProbeBytes(double width) const {
    return p_.page_size > 0 ? p_.page_size : width;
  }

  // ---- statistics helpers ----

  const rel::Column* Col(int rel, int column) const {
    const rel::Table* t = rels_[rel].table;
    return t->CheckColumn(column).ok() ? &t->columns[column] : nullptr;
  }

  double ColDistincts(int rel, int column) const {
    const rel::Column* c = Col(rel, column);
    return c ? std::max(1.0, c->distincts) : 1.0;
  }

  double ColNullFrac(int rel, int column) const {
    const rel::Column* c = Col(rel, column);
    return c ? std::clamp(c->null_fraction, 0.0, 1.0) : 0.0;
  }

  double BaseRows(int rel) const {
    return std::max(1.0, rels_[rel].table->row_count);
  }

  double RowWidth(int rel) const { return rels_[rel].width; }

  double FilterSelectivity(const FilterPred& f) const {
    double nn = 1.0 - ColNullFrac(f.rel, f.column);
    if (f.not_null) return std::clamp(nn, 1e-9, 1.0);
    double d = ColDistincts(f.rel, f.column);
    double sel;
    switch (f.op) {
      case xq::CompareOp::kEq:
        sel = 1.0 / d;
        break;
      case xq::CompareOp::kNe:
        sel = 1.0 - 1.0 / d;
        break;
      default:
        sel = RangeSelectivity(f);
        break;
    }
    return std::clamp(nn * sel, 1e-9, 1.0);
  }

  // Range selectivity from the column's min/max statistics when the bound
  // is a known integer literal; System-R's 1/3 otherwise.
  double RangeSelectivity(const FilterPred& f) const {
    const rel::Column* c = Col(f.rel, f.column);
    if (!c || c->type.kind != rel::SqlType::Kind::kInt ||
        f.value.kind != xq::Constant::Kind::kInt || c->max <= c->min) {
      return 1.0 / 3.0;
    }
    double lo = static_cast<double>(c->min);
    double hi = static_cast<double>(c->max);
    double bound = std::clamp(static_cast<double>(f.value.int_value), lo, hi);
    double below = (bound - lo) / (hi - lo);
    switch (f.op) {
      case xq::CompareOp::kLt:
      case xq::CompareOp::kLe:
        return below;
      case xq::CompareOp::kGt:
      case xq::CompareOp::kGe:
        return 1.0 - below;
      default:
        return 1.0 / 3.0;
    }
  }

  double FilteredRows(int rel) const {
    double rows = BaseRows(rel);
    for (const auto& f : block_.filters) {
      if (f.rel == rel) rows *= FilterSelectivity(f);
    }
    return std::max(rows, 1e-6);
  }

  // Effective distinct count of a join column among the filtered rows.
  double EffDistincts(int rel, int column) const {
    return std::max(1.0,
                    std::min(ColDistincts(rel, column), rels_[rel].rows));
  }

  bool Indexed(int rel, int column) const {
    const rel::Table* t = rels_[rel].table;
    if (column == rel::Table::kKeyColumn) return true;
    for (const auto& fk : t->foreign_keys) {
      if (fk.column == column) return true;
    }
    return p_.index_on_predicates && Col(rel, column) != nullptr;
  }

  double OutputWidth() const {
    double w = 0;
    for (const auto& out : block_.output) {
      if (out.rel < 0) {  // NULL-literal column
        w += 1.0;
        continue;
      }
      const rel::Column* c = Col(out.rel, out.column);
      w += c ? c->type.width : 8.0;
    }
    return std::max(w, 1.0);
  }

  // Selectivity of one join edge among the filtered rows, clamped.
  double EdgeSelectivity(const JoinEdge& e) const {
    double dl = EffDistincts(e.left_rel, e.left_column);
    double dr = EffDistincts(e.right_rel, e.right_column);
    double sel = 1.0 / std::max(dl, dr);
    sel *= (1.0 - ColNullFrac(e.left_rel, e.left_column)) *
           (1.0 - ColNullFrac(e.right_rel, e.right_column));
    if (e.left_outer) {
      // A preserved outer row always survives: at least one row per outer
      // row, i.e. the edge cannot reduce cardinality below 1 match.
      sel = std::max(sel, 1.0 / rels_[e.right_rel].rows);
    }
    return std::clamp(sel, 1e-12, 1.0);
  }

  // Distincts over the unfiltered base table (for index probe fan-out).
  double EffDistinctsBase(int rel, int column) const {
    return std::max(1.0, std::min(ColDistincts(rel, column), BaseRows(rel)));
  }

  // Index-nested-loops terms for probing `column` of base relation `rel`.
  ProbeTerms ProbeTermsOf(int rel, int column) const {
    return ProbeTerms{Indexed(rel, column),
                      BaseRows(rel) * (1.0 - ColNullFrac(rel, column)) /
                          EffDistinctsBase(rel, column),
                      ProbeBytes(RowWidth(rel))};
  }

  EdgeTerms EdgeTermsOf(const JoinEdge& e) const {
    return EdgeTerms{1ull << e.left_rel,
                     1ull << e.right_rel,
                     e.left_outer,
                     EdgeSelectivity(e),
                     {ProbeTermsOf(e.left_rel, e.left_column),
                      ProbeTermsOf(e.right_rel, e.right_column)}};
  }

  // Estimated cardinality of joining the relations in `mask`: product of
  // filtered cardinalities discounted by each internal join edge.
  double Card(uint64_t mask) const {
    double rows = 1;
    for (size_t i = 0; i < rels_.size(); ++i) {
      if (mask & (1ull << i)) rows *= rels_[i].rows;
    }
    for (const EdgeTerms& e : edges_) {
      if ((mask & e.left) && (mask & e.right)) rows *= e.selectivity;
    }
    return std::max(rows, 1e-6);
  }

  // Relations joined to some relation in `mask`.
  uint64_t Neighbours(uint64_t mask) const {
    uint64_t out = 0;
    for (; mask; mask &= mask - 1) out |= rels_[std::countr_zero(mask)].adjacent;
    return out;
  }

  // True when join edge `k` connects the disjoint subsets `a` and `b`.
  bool Joins(size_t k, uint64_t a, uint64_t b) const {
    uint64_t lm = edges_[k].left;
    uint64_t rm = edges_[k].right;
    return ((lm & a) && (rm & b)) || ((lm & b) && (rm & a));
  }

  // ---- leaf access paths ----

  // The cheapest access path for `rel`; its plan goes to rels_[rel].leaf.
  Entry AccessPath(int rel) {
    double base = BaseRows(rel);
    double width = RowWidth(rel);
    double out_rows = rels_[rel].rows;

    // Sequential scan.
    double seeks = ScanSeeks(base * width);
    double bytes = PagedBytes(base * width);
    Entry best{seeks * p_.seek_cost + bytes * p_.read_per_byte +
                   base * p_.cpu_per_tuple,
               out_rows, width, seeks, bytes, Entry::Op::kAccess};
    // Index lookup on the most selective indexed filter column (hash
    // indexes serve equality probes only).
    const FilterPred* index_filter = nullptr;
    for (const auto& f : block_.filters) {
      if (f.rel != rel || f.not_null || f.op != xq::CompareOp::kEq ||
          !Indexed(rel, f.column)) {
        continue;
      }
      double matches = base * FilterSelectivity(f);
      seeks = p_.index_probe_seeks + matches;
      bytes = matches * ProbeBytes(width);
      double cost = seeks * p_.seek_cost + bytes * p_.read_per_byte +
                    matches * p_.cpu_per_tuple;
      if (cost < best.cost) {
        best = Entry{cost, out_rows, width, seeks, bytes, Entry::Op::kAccess};
        index_filter = &f;
      }
    }

    auto plan = std::make_shared<PhysicalPlan>();
    if (index_filter) {
      plan->kind = PhysicalPlan::Kind::kIndexLookup;
      plan->index_column = index_filter->column;
    }
    plan->rel = rel;
    plan->filters = RelFilters(rel);  // residuals re-checked cheaply
    plan->residual_joins = SelfEdges(rel);
    SetEstimates(best, plan.get());
    rels_[rel].leaf = std::move(plan);
    return best;
  }

  std::vector<FilterPred> RelFilters(int rel) const {
    std::vector<FilterPred> filters;
    for (const auto& f : block_.filters) {
      if (f.rel == rel) filters.push_back(f);
    }
    return filters;
  }

  // The join edges with both ends on `rel`, which its access node applies.
  std::vector<JoinEdge> SelfEdges(int rel) const {
    std::vector<JoinEdge> edges;
    for (const JoinEdge& e : block_.joins) {
      if (e.left_rel == rel && e.right_rel == rel) edges.push_back(e);
    }
    return edges;
  }

  static void SetEstimates(const Entry& e, PhysicalPlan* plan) {
    plan->est_rows = e.rows;
    plan->est_cost = e.cost;
    plan->est_seeks = e.seeks;
    plan->est_bytes = e.bytes;
  }

  // ---- join combination ----

  // The join edges between two disjoint subsets, summarized: the first in
  // block order (it drives the join) and the left relation of each
  // left-outer one, which a join must keep on its probe/outer side.
  struct Link {
    int first = -1;  // -1: no edge joins the subsets
    uint64_t preserved = 0;
  };

  Link LinkBetween(uint64_t a, uint64_t b) const {
    Link link;
    for (size_t k = 0; k < edges_.size(); ++k) {
      if (!Joins(k, a, b)) continue;
      if (link.first < 0) link.first = static_cast<int>(k);
      if (edges_[k].outer) link.preserved |= edges_[k].left;
    }
    return link;
  }

  // The cheapest recipe joining planned subsets `a` and `b`, linked by
  // `link` (at least one edge), into a result of `out_rows`: a hash join
  // either way round, then index nested loops into `b` when it is one base
  // relation.
  Entry Combine(const Entry& a, uint64_t mask_a, const Entry& b,
                uint64_t mask_b, Link link, double out_rows) const {
    Entry best;
    // Hash join, either side building, with the preserved relations probing.
    for (int build_right = 0; build_right < 2; ++build_right) {
      if (link.preserved & ~(build_right ? mask_a : mask_b)) continue;
      const Entry& probe = build_right ? a : b;
      const Entry& build = build_right ? b : a;
      double cost = probe.cost + build.cost +
                    build.rows * p_.cpu_per_probe +  // build
                    probe.rows * p_.cpu_per_probe +  // probe
                    out_rows * p_.cpu_per_tuple;
      if (cost < best.cost) {
        // Joins add CPU, not IO.
        best = Entry{cost,
                     out_rows,
                     a.width + b.width,
                     probe.seeks + build.seeks,
                     probe.bytes + build.bytes,
                     Entry::Op::kHashJoin,
                     link.first,
                     build_right ? mask_a : mask_b,
                     build_right ? mask_b : mask_a};
      }
    }
    // Index nested loops: inner side must be a single base relation with an
    // index on its join column, and preserve no relation.
    if (std::popcount(mask_b) != 1 || (link.preserved & mask_b)) return best;
    int inner_rel = std::countr_zero(mask_b);
    for (auto k = static_cast<size_t>(link.first); k < edges_.size(); ++k) {
      if (!Joins(k, mask_a, mask_b)) continue;
      const EdgeTerms& e = edges_[k];
      const ProbeTerms& inner = e.probe[e.right == mask_b];
      if (!inner.indexed) continue;
      double seeks_added =
          a.rows * (p_.index_probe_seeks + inner.matches_per_probe);
      double bytes_added =
          a.rows * inner.matches_per_probe * inner.probe_bytes;
      double cost = a.cost + seeks_added * p_.seek_cost +
                    bytes_added * p_.read_per_byte +
                    a.rows * inner.matches_per_probe * p_.cpu_per_tuple +
                    out_rows * p_.cpu_per_tuple;
      if (cost < best.cost) {
        best = Entry{cost,
                     out_rows,
                     a.width + RowWidth(inner_rel),
                     a.seeks + seeks_added,
                     a.bytes + bytes_added,
                     Entry::Op::kIndexNLJoin,
                     static_cast<int>(k),
                     mask_a,
                     mask_b};
      }
    }
    return best;
  }

  // The join node a Combine recipe describes, over its inputs' plans
  // (`right` is unused for index nested loops, whose inner side is a base
  // relation probed in place).
  PhysicalPlanPtr BuildJoin(const Entry& e, PhysicalPlanPtr left,
                            PhysicalPlanPtr right) const {
    auto plan = std::make_shared<PhysicalPlan>();
    plan->left = std::move(left);
    const JoinEdge& d = block_.joins[e.edge];
    // The driving edge oriented probe/outer side first.
    bool d_left_first = (1ull << d.left_rel) & e.probe;
    if (e.op == Entry::Op::kHashJoin) {
      plan->kind = PhysicalPlan::Kind::kHashJoin;
      plan->right = std::move(right);
    } else {
      plan->kind = PhysicalPlan::Kind::kIndexNLJoin;
      plan->rel = std::countr_zero(e.build);
      plan->index_column = d_left_first ? d.right_column : d.left_column;
      plan->filters = RelFilters(plan->rel);
    }
    plan->left_join_rel = d_left_first ? d.left_rel : d.right_rel;
    plan->left_join_column = d_left_first ? d.left_column : d.right_column;
    plan->right_join_rel = d_left_first ? d.right_rel : d.left_rel;
    plan->right_join_column = d_left_first ? d.right_column : d.left_column;
    for (size_t k = 0; k < edges_.size(); ++k) {
      if (!Joins(k, e.probe, e.build)) continue;
      plan->left_outer |= block_.joins[k].left_outer;
      if (static_cast<int>(k) != e.edge) {
        plan->residual_joins.push_back(block_.joins[k]);
      }
    }
    if (e.op == Entry::Op::kIndexNLJoin) {
      for (const JoinEdge& self : SelfEdges(plan->rel)) {
        plan->residual_joins.push_back(self);
      }
    }
    SetEstimates(e, plan.get());
    return plan;
  }

  // Dynamic programming over the connected subsets of the join graph (no
  // other subset can be joined without a cartesian product, which is not
  // modeled). The memo is flat, indexed by subset mask. Masks run in
  // increasing value, so every proper subset is planned before its
  // supersets; each mask tries its splits in the historical order (sub
  // descending, each unordered split once, both directions) and keeps the
  // first strictly cheapest recipe.
  Entry PlanDp(PhysicalPlanPtr* plan) {
    size_t n = block_.rels.size();
    uint64_t full = (1ull << n) - 1;
    std::vector<Entry> memo(full + 1);
    std::vector<uint64_t> neighbours(full + 1, 0);
    for (uint64_t m = 1; m <= full; ++m) {
      neighbours[m] =
          neighbours[m & (m - 1)] | rels_[std::countr_zero(m)].adjacent;
    }
    for (size_t i = 0; i < n; ++i) {
      memo[1ull << i] = AccessPath(static_cast<int>(i));
    }
    size_t memo_size = n;
    for (uint64_t mask = 3; mask <= full; ++mask) {
      if (std::has_single_bit(mask)) continue;
      uint64_t reach = mask & -mask;  // grow from the lowest relation
      for (uint64_t prev = 0; reach != prev;) {
        prev = reach;
        reach |= neighbours[reach] & mask;
      }
      if (reach != mask) continue;  // disconnected

      double rows = Card(mask);
      Entry& entry = memo[mask];
      // The half of each split without the highest relation, descending.
      // Both halves of a connected mask are joined by some edge.
      uint64_t low = mask ^ std::bit_floor(mask);
      for (uint64_t sub = low; sub; sub = (sub - 1) & low) {
        uint64_t rest = mask ^ sub;
        ++splits_tried_;
        if (!memo[sub].valid() || !memo[rest].valid()) continue;
        Link link = LinkBetween(sub, rest);
        for (int dir = 0; dir < 2; ++dir) {
          uint64_t ma = dir ? rest : sub;
          uint64_t mb = dir ? sub : rest;
          Entry cand = Combine(memo[ma], ma, memo[mb], mb, link, rows);
          if (cand.valid() && cand.cost < entry.cost) entry = cand;
        }
      }
      if (entry.valid()) ++memo_size;
    }
    memo_size_ = memo_size;
    if (!memo[full].valid()) return Entry{};
    *plan = BuildDp(memo, full);
    return memo[full];
  }

  PhysicalPlanPtr BuildDp(const std::vector<Entry>& memo,
                          uint64_t mask) const {
    const Entry& e = memo[mask];
    if (e.op == Entry::Op::kAccess) return rels_[std::countr_zero(mask)].leaf;
    return BuildJoin(e, BuildDp(memo, e.probe),
                     e.op == Entry::Op::kHashJoin ? BuildDp(memo, e.build)
                                                  : nullptr);
  }

  // Greedy join ordering: repeatedly merge the pair of partial plans whose
  // join is cheapest (first strictly cheapest pair in (i, j) order).
  Entry PlanGreedy(PhysicalPlanPtr* plan) {
    size_t n = block_.rels.size();
    std::vector<uint64_t> masks;
    std::vector<Entry> entries;
    std::vector<PhysicalPlanPtr> plans;
    for (size_t i = 0; i < n; ++i) {
      masks.push_back(1ull << i);
      entries.push_back(AccessPath(static_cast<int>(i)));
      plans.push_back(rels_[i].leaf);
    }
    while (entries.size() > 1) {
      size_t bi = 0, bj = 0;
      Entry best;
      for (size_t i = 0; i < entries.size(); ++i) {
        uint64_t joined = Neighbours(masks[i]);
        for (size_t j = 0; j < entries.size(); ++j) {
          if (i == j || !(joined & masks[j])) continue;
          Entry cand = Combine(entries[i], masks[i], entries[j], masks[j],
                               LinkBetween(masks[i], masks[j]),
                               Card(masks[i] | masks[j]));
          if (cand.valid() && cand.cost < best.cost) {
            best = cand;
            bi = i;
            bj = j;
          }
        }
      }
      if (!best.valid()) return Entry{};  // disconnected
      bool i_probes = best.probe == masks[bi];
      PhysicalPlanPtr merged =
          BuildJoin(best, i_probes ? plans[bi] : plans[bj],
                    i_probes ? plans[bj] : plans[bi]);
      size_t lo = std::min(bi, bj), hi = std::max(bi, bj);
      masks.erase(masks.begin() + hi);
      entries.erase(entries.begin() + hi);
      plans.erase(plans.begin() + hi);
      masks[lo] = best.probe | best.build;
      entries[lo] = best;
      plans[lo] = std::move(merged);
    }
    *plan = plans[0];
    return entries[0];
  }

  const rel::Catalog& catalog_;
  const CostParams& p_;
  const QueryBlock& block_;
  struct Rel {
    const rel::Table* table = nullptr;
    double width = 0;       // RowWidth of the table
    double rows = 0;        // FilteredRows
    uint64_t adjacent = 0;  // join-graph neighbours
    PhysicalPlanPtr leaf;   // chosen access path
  };
  std::vector<Rel> rels_;         // per relation of the block
  std::vector<EdgeTerms> edges_;  // per join edge, in block order
  size_t memo_size_ = 0;
  size_t splits_tried_ = 0;
};

}  // namespace legodb::opt::reference

#endif  // LEGODB_TESTS_REFERENCE_PLANNER_H_
