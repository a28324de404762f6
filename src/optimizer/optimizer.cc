#include "optimizer/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/failpoint.h"
#include "obs/obs.h"

namespace legodb::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A memo entry: estimates for joining one subset of the block's relations,
// plus the recipe that achieves them. Candidates are compared on recipes;
// a PhysicalPlan is built only for the recipe that wins (BuildDp, or each
// merge greedy picks).
struct Entry {
  enum class Op : uint8_t { kNone, kAccess, kHashJoin, kIndexNLJoin };

  double cost = kInf;
  double rows = 0;
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
// the right endpoint's mask, the relation a left-outer edge preserves, the
// edge's selectivity and the probe terms with each side as the inner
// relation.
struct EdgeTerms {
  uint64_t right = 0;      // 1 << right_rel
  uint64_t preserved = 0;  // 1 << left_rel if left_outer, else 0
  double selectivity = 0;
  ProbeTerms probe[2];  // [0]: left side inner, [1]: right side inner
};

// Plans one SPJ block: access paths, join order, join methods.
class BlockPlanner {
 public:
  BlockPlanner(const rel::Catalog& catalog, const CostParams& p,
               const QueryBlock& block)
      : catalog_(catalog), p_(p), block_(block) {}

  StatusOr<PlannedBlock> Plan() {
    size_t n = block_.rels.size();
    if (n == 0) return Status::InvalidArgument("query block has no relations");
    if (n > 62) return Status::Unsupported("too many relations in block");
    obs::Count("optimizer.blocks_planned");
    obs::Observe("optimizer.block_rels", static_cast<double>(n));
    std::vector<const rel::Table*> tables;
    for (size_t i = 0; i < n; ++i) {
      const int t = block_.rels[i].table;
      if (t < 0 || static_cast<size_t>(t) >= catalog_.size()) {
        return Status::NotFound("no table #" + std::to_string(t));
      }
      Rel& r = rels_.emplace_back();
      r.table = tables.emplace_back(&catalog_.table(t));
      r.width = r.table->RowWidth();
    }
    LEGODB_RETURN_IF_ERROR(CheckColumns(block_, tables));
    for (size_t i = 0; i < n; ++i) {
      rels_[i].rows = FilteredRows(static_cast<int>(i));
    }
    words_ = std::max<size_t>(1, (block_.joins.size() + 63) / 64);
    edge_rows_.assign((n + 1) * words_, 0);
    uint64_t* outer = &edge_rows_[n * words_];
    for (size_t k = 0; k < block_.joins.size(); ++k) {
      const JoinEdge& e = block_.joins[k];
      rels_[e.left_rel].adjacent |= 1ull << e.right_rel;
      rels_[e.right_rel].adjacent |= 1ull << e.left_rel;
      uint64_t bit = 1ull << (k % 64);
      edge_rows_[e.left_rel * words_ + k / 64] |= bit;
      edge_rows_[e.right_rel * words_ + k / 64] |= bit;
      if (e.left_outer) outer[k / 64] |= bit;
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
    root->est_seeks = root->child->est_seeks;  // writing adds no read IO
    root->est_bytes = root->child->est_bytes;
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

  const rel::Column& Col(int rel, int column) const {
    return rels_[rel].table->columns[column];
  }

  double ColDistincts(int rel, int column) const {
    return std::max(1.0, Col(rel, column).distincts);
  }

  double ColNullFrac(int rel, int column) const {
    return std::clamp(Col(rel, column).null_fraction, 0.0, 1.0);
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
    const rel::Column& c = Col(f.rel, f.column);
    if (c.type.kind != rel::SqlType::Kind::kInt ||
        f.value.kind != xq::Constant::Kind::kInt || c.max <= c.min) {
      return 1.0 / 3.0;
    }
    double lo = static_cast<double>(c.min);
    double hi = static_cast<double>(c.max);
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
    const std::vector<rel::ForeignKey>& fks = rels_[rel].table->foreign_keys;
    return column == rel::Table::kKeyColumn || p_.index_on_predicates ||
           std::any_of(fks.begin(), fks.end(),
                       [&](const auto& fk) { return fk.column == column; });
  }

  double OutputWidth() const {
    double w = 0;
    for (const auto& out : block_.output) {
      // The NULL literal is one byte.
      w += out.rel < 0 ? 1.0 : Col(out.rel, out.column).type.width;
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
    return EdgeTerms{1ull << e.right_rel,
                     e.left_outer ? 1ull << e.left_rel : 0,
                     EdgeSelectivity(e),
                     {ProbeTermsOf(e.left_rel, e.left_column),
                      ProbeTermsOf(e.right_rel, e.right_column)}};
  }

  // ---- join-edge sets ----
  //
  // A set of join edges is a row of words_ 64-bit words: bit k % 64 of word
  // k / 64 stands for QueryBlock::joins[k]. A set is read through a function
  // that yields its words, so sets derived from stored rows (the edges in
  // both of two rows, say) are never materialized.

  // The edges touching relation `rel`.
  const uint64_t* Incident(int rel) const { return &edge_rows_[rel * words_]; }

  // The left-outer edges.
  const uint64_t* Outer() const { return &edge_rows_[rels_.size() * words_]; }

  // Calls fn(k) for each edge k of the set `word` yields, ascending.
  template <typename Word, typename Fn>
  void ForEachEdge(Word word, Fn fn) const {
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t bits = word(w); bits; bits &= bits - 1) {
        fn(static_cast<int>(w * 64) + std::countr_zero(bits));
      }
    }
  }

  // Estimated cardinality of joining the relations in `mask`, whose
  // internal join edges `internal` yields: product of filtered
  // cardinalities discounted by each internal edge.
  template <typename Word>
  double Card(uint64_t mask, Word internal) const {
    double rows = 1;
    for (; mask; mask &= mask - 1) rows *= rels_[std::countr_zero(mask)].rows;
    ForEachEdge(internal, [&](int k) { rows *= edges_[k].selectivity; });
    return std::max(rows, 1e-6);
  }

  // Relations joined to some relation in `mask`.
  uint64_t Neighbours(uint64_t mask) const {
    uint64_t out = 0;
    for (; mask; mask &= mask - 1) out |= rels_[std::countr_zero(mask)].adjacent;
    return out;
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
               out_rows, Entry::Op::kAccess};
    double best_seeks = seeks;
    double best_bytes = bytes;
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
        best = Entry{cost, out_rows, Entry::Op::kAccess};
        best_seeks = seeks;
        best_bytes = bytes;
        index_filter = &f;
      }
    }

    auto plan = std::make_shared<PhysicalPlan>();
    if (index_filter) {
      plan->kind = PhysicalPlan::Kind::kIndexLookup;
      plan->index_column = index_filter->column;
    }
    plan->rel = rel;
    for (const auto& f : block_.filters) {  // residuals re-checked cheaply
      if (f.rel == rel) plan->filters.push_back(f);
    }
    for (const JoinEdge& e : block_.joins) {  // the self edges
      if (e.left_rel == rel && e.right_rel == rel) {
        plan->residual_joins.push_back(e);
      }
    }
    SetEstimates(best, best_seeks, best_bytes, plan.get());
    rels_[rel].leaf = std::move(plan);
    return best;
  }

  // `seeks` and `bytes` are the predicted IO, inclusive of inputs.
  static void SetEstimates(const Entry& e, double seeks, double bytes,
                           PhysicalPlan* plan) {
    plan->est_rows = e.rows;
    plan->est_cost = e.cost;
    plan->est_seeks = seeks;
    plan->est_bytes = bytes;
  }

  // ---- join combination ----

  // The join edges between two disjoint subsets: those in both subsets'
  // touching-edge rows `a` and `b`. The lowest drives the join.
  struct Link {
    const uint64_t* a = nullptr;
    const uint64_t* b = nullptr;
    int first = -1;  // -1: no edge joins the subsets
    // The left_rel of each linking left-outer edge: a join of the two
    // subsets must have all of them on its probe/outer side.
    uint64_t preserved = 0;

    uint64_t word(size_t w) const { return a[w] & b[w]; }
    bool Preserves(uint64_t probe) const { return !(preserved & ~probe); }
  };

  Link LinkBetween(const uint64_t* a, const uint64_t* b) const {
    Link link{a, b};
    const uint64_t* outer = Outer();
    for (size_t w = words_; w-- > 0;) {
      uint64_t both = a[w] & b[w];
      if (both) link.first = static_cast<int>(w * 64) + std::countr_zero(both);
      for (uint64_t o = both & outer[w]; o; o &= o - 1) {
        link.preserved |= edges_[w * 64 + std::countr_zero(o)].preserved;
      }
    }
    return link;
  }

  // The seeks and bytes index nested loops add probing `inner` once per
  // outer row, for `outer_rows` rows.
  std::pair<double, double> ProbeIo(double outer_rows,
                                    const ProbeTerms& inner) const {
    return {outer_rows * (p_.index_probe_seeks + inner.matches_per_probe),
            outer_rows * inner.matches_per_probe * inner.probe_bytes};
  }

  // The cheapest recipe joining planned subsets `a` and `b`, linked by
  // `link` (at least one edge), into a result of `out_rows`: a hash join
  // either way round (unless `hash_join` is false), then index nested loops
  // into `b` when it is one base relation. Either join method is tried only
  // with every relation the link preserves on its probe/outer side.
  Entry Combine(const Entry& a, uint64_t mask_a, const Entry& b,
                uint64_t mask_b, const Link& link, double out_rows,
                bool hash_join = true) const {
    Entry best;
    for (int build_right = hash_join ? 0 : 2; build_right < 2; ++build_right) {
      if (!link.Preserves(build_right ? mask_a : mask_b)) continue;
      const Entry& probe = build_right ? a : b;
      const Entry& build = build_right ? b : a;
      double cost = probe.cost + build.cost +
                    build.rows * p_.cpu_per_probe +  // build
                    probe.rows * p_.cpu_per_probe +  // probe
                    out_rows * p_.cpu_per_tuple;
      if (cost < best.cost) {
        best = Entry{cost,
                     out_rows,
                     Entry::Op::kHashJoin,
                     link.first,
                     build_right ? mask_a : mask_b,
                     build_right ? mask_b : mask_a};
      }
    }
    // Index nested loops: inner side must be a single base relation with an
    // index on its join column.
    if (std::popcount(mask_b) != 1 || !link.Preserves(mask_a)) return best;
    ForEachEdge([&](size_t w) { return link.word(w); }, [&](int k) {
      const EdgeTerms& e = edges_[k];
      const ProbeTerms& inner = e.probe[e.right == mask_b];
      if (!inner.indexed) return;
      const auto [seeks_added, bytes_added] = ProbeIo(a.rows, inner);
      double cost = a.cost + seeks_added * p_.seek_cost +
                    bytes_added * p_.read_per_byte +
                    a.rows * inner.matches_per_probe * p_.cpu_per_tuple +
                    out_rows * p_.cpu_per_tuple;
      if (cost < best.cost) {
        best = Entry{cost,
                     out_rows,
                     Entry::Op::kIndexNLJoin,
                     k,
                     mask_a,
                     mask_b};
      }
    });
    return best;
  }

  // The join node a Combine recipe describes, over its inputs' plans
  // (`right` is unused for index nested loops, whose inner side is a base
  // relation probed in place); `link` holds the edges between its inputs.
  // Its predicted IO is its inputs' plus, for index nested loops, the
  // probes Combine priced.
  PhysicalPlanPtr BuildJoin(const Entry& e, const Link& link,
                            PhysicalPlanPtr left,
                            PhysicalPlanPtr right) const {
    auto plan = std::make_shared<PhysicalPlan>();
    plan->left = std::move(left);
    const JoinEdge& d = block_.joins[e.edge];
    // The driving edge oriented probe/outer side first.
    bool d_left_first = (1ull << d.left_rel) & e.probe;
    plan->left_outer = link.preserved != 0;
    plan->left_join_rel = d_left_first ? d.left_rel : d.right_rel;
    plan->left_join_column = d_left_first ? d.left_column : d.right_column;
    plan->right_join_rel = d_left_first ? d.right_rel : d.left_rel;
    plan->right_join_column = d_left_first ? d.right_column : d.left_column;
    ForEachEdge([&](size_t w) { return link.word(w); }, [&](int k) {
      if (k != e.edge) plan->residual_joins.push_back(block_.joins[k]);
    });
    if (e.op == Entry::Op::kHashJoin) {
      plan->kind = PhysicalPlan::Kind::kHashJoin;
      plan->right = std::move(right);
    } else {
      plan->kind = PhysicalPlan::Kind::kIndexNLJoin;
      plan->rel = std::countr_zero(e.build);
      plan->index_column = plan->right_join_column;
      // The inner relation's predicates, from the access path it replaces.
      const PhysicalPlan& leaf = *rels_[plan->rel].leaf;
      plan->filters = leaf.filters;
      plan->residual_joins.insert(plan->residual_joins.end(),
                                  leaf.residual_joins.begin(),
                                  leaf.residual_joins.end());
    }
    const PhysicalPlan& a = *plan->left;
    if (e.op == Entry::Op::kHashJoin) {  // joins add CPU, not IO
      SetEstimates(e, a.est_seeks + plan->right->est_seeks,
                   a.est_bytes + plan->right->est_bytes, plan.get());
    } else {
      const EdgeTerms& et = edges_[e.edge];
      const ProbeTerms& inner = et.probe[et.right == e.build];
      const auto [seeks_added, bytes_added] = ProbeIo(a.est_rows, inner);
      SetEstimates(e, a.est_seeks + seeks_added, a.est_bytes + bytes_added,
                   plan.get());
    }
    return plan;
  }

  // ---- dynamic programming over connected subsets ----
  //
  // Only connected subsets of the join graph are planned: no other subset
  // can be joined without a cartesian product, which is not modeled. Their
  // splits into two connected halves are enumerated as csg-cmp pairs the
  // DPccp way (Moerkotte & Neumann, VLDB 2006): each connected subset S1,
  // then each connected S2 adjacent to S1 that holds no relation at or
  // below S1's lowest. Every such split comes exactly once, after all splits
  // of both its halves, and no disconnected split is ever tried. The memo
  // and the per-subset neighbour and touching-edge tables are flat, indexed
  // by subset mask.
  //
  // A subset keeps its cheapest recipe; among equal costs, the first in the
  // historical split order (SplitBefore), so the result does not depend on
  // the order the pairs arrive in.
  Entry PlanDp(PhysicalPlanPtr* plan) {
    obs::Count("optimizer.dp_plans");
    size_t n = rels_.size();
    if (n == 1) {  // nothing to join: no per-subset tables
      obs::Observe("optimizer.memo_size", 1);
      obs::Observe("optimizer.dp_pairs", 0);
      Entry access = AccessPath(0);
      *plan = rels_[0].leaf;
      return access;
    }
    full_ = (1ull << n) - 1;
    memo_.assign(full_ + 1, Entry{});
    neighbours_.assign(full_ + 1, 0);
    touching_.assign((full_ + 1) * words_, 0);
    for (uint64_t m = 1; m <= full_; ++m) {
      uint64_t prev = m & (m - 1);
      int rel = std::countr_zero(m);
      neighbours_[m] = neighbours_[prev] | rels_[rel].adjacent;
      for (size_t w = 0; w < words_; ++w) {
        touching_[m * words_ + w] =
            touching_[prev * words_ + w] | Incident(rel)[w];
      }
    }
    for (size_t i = 0; i < n; ++i) {
      memo_[1ull << i] = AccessPath(static_cast<int>(i));
    }
    memo_size_ = n;
    dp_pairs_ = 0;
    for (int i = static_cast<int>(n) - 1; i >= 0; --i) {
      uint64_t v = 1ull << i;
      EnumerateCmp(v);
      EnumerateCsgRec(v, (v << 1) - 1, 0);
    }
    obs::Observe("optimizer.memo_size", static_cast<double>(memo_size_));
    obs::Observe("optimizer.dp_pairs", static_cast<double>(dp_pairs_));
    if (!memo_[full_].valid()) return Entry{};
    *plan = BuildDp(full_);
    return memo_[full_];
  }

  // The edges touching some relation of `mask`.
  const uint64_t* Touching(uint64_t mask) const {
    return &touching_[mask * words_];
  }

  // Grows the connected subset `s` by each nonempty subset of its
  // neighbours outside `x` (which holds `s`), smaller first, and emits the
  // result; then grows each result further with those neighbours excluded.
  // With `s1` zero every result is a csg, whose complements are enumerated
  // next; otherwise each is a complement of csg `s1`.
  void EnumerateCsgRec(uint64_t s, uint64_t x, uint64_t s1) {
    uint64_t grow = neighbours_[s] & ~x;
    if (!grow) return;
    for (uint64_t sub = grow & -grow; sub; sub = (sub - grow) & grow) {
      if (s1) {
        EmitPair(s1, s | sub);
      } else {
        EnumerateCmp(s | sub);
      }
    }
    for (uint64_t sub = grow & -grow; sub; sub = (sub - grow) & grow) {
      EnumerateCsgRec(s | sub, x | grow, s1);
    }
  }

  // Emits every connected complement of csg `s1`: the connected subsets
  // adjacent to it above its lowest relation, each grown from its lowest
  // neighbour of `s1` (highest such neighbour first).
  void EnumerateCmp(uint64_t s1) {
    uint64_t x = (((s1 & -s1) << 1) - 1) | s1;
    uint64_t grow = neighbours_[s1] & ~x;
    for (uint64_t rest = grow; rest;) {
      uint64_t v = std::bit_floor(rest);
      rest ^= v;
      EmitPair(s1, v);
      EnumerateCsgRec(v, x | (grow & ((v << 1) - 1)), s1);
    }
  }

  // Prices the split of `s1 | s2` into its planned connected halves, both
  // ways round.
  void EmitPair(uint64_t s1, uint64_t s2) {
    ++dp_pairs_;
    if (!memo_[s1].valid() || !memo_[s2].valid()) return;
    uint64_t mask = s1 | s2;
    Entry& entry = memo_[mask];
    if (entry.rows == 0) {  // the mask's first split
      const uint64_t* in = Touching(mask);
      const uint64_t* out = Touching(full_ ^ mask);
      entry.rows = Card(mask, [&](size_t w) { return in[w] & ~out[w]; });
    }
    // The half without the mask's highest relation goes first.
    uint64_t sub = s1 & std::bit_floor(mask) ? s2 : s1;
    uint64_t rest = mask ^ sub;
    Link link = LinkBetween(Touching(sub), Touching(rest));
    for (int dir = 0; dir < 2; ++dir) {
      uint64_t ma = dir ? rest : sub;
      uint64_t mb = dir ? sub : rest;
      const Entry& a = memo_[ma];
      const Entry& b = memo_[mb];
      // A recipe costs at least its left input, plus its right one unless
      // index nested loops probe that in place: a split that already costs
      // more than the entry cannot win. (A tie can, on split order.)
      if ((std::has_single_bit(mb) ? a.cost : a.cost + b.cost) > entry.cost) {
        continue;
      }
      // The hash joins were priced both ways round in the first direction,
      // and a tie cannot win in the second (SplitBefore).
      Entry cand = Combine(a, ma, b, mb, link, entry.rows, dir == 0);
      if (cand.valid() && SplitBefore(cand, sub, entry, mask)) {
        if (!entry.valid()) ++memo_size_;
        entry = cand;
      }
    }
  }

  // True when `cand`, a recipe for `mask` from the split whose half without
  // the mask's highest relation is `sub`, beats `entry`: cheaper, or as
  // cheap and first in the historical split order, where that half runs
  // descending and each split is tried with it as the left input first
  // (the strict comparison keeps the earlier direction of one split).
  static bool SplitBefore(const Entry& cand, uint64_t sub, const Entry& entry,
                          uint64_t mask) {
    if (cand.cost != entry.cost) return cand.cost < entry.cost;
    uint64_t entry_sub =
        entry.probe & std::bit_floor(mask) ? entry.build : entry.probe;
    return sub > entry_sub;
  }

  PhysicalPlanPtr BuildDp(uint64_t mask) const {
    const Entry& e = memo_[mask];
    if (e.op == Entry::Op::kAccess) return rels_[std::countr_zero(mask)].leaf;
    return BuildJoin(e, LinkBetween(Touching(e.probe), Touching(e.build)),
                     BuildDp(e.probe),
                     e.op == Entry::Op::kHashJoin ? BuildDp(e.build)
                                                  : nullptr);
  }

  // Greedy join ordering: repeatedly merge the pair of partial plans whose
  // join is cheapest (first strictly cheapest pair in (i, j) order).
  Entry PlanGreedy(PhysicalPlanPtr* plan) {
    obs::Count("optimizer.greedy_plans");
    size_t n = rels_.size();
    std::vector<uint64_t> masks;
    std::vector<Entry> entries;
    std::vector<PhysicalPlanPtr> plans;
    for (size_t i = 0; i < n; ++i) {
      masks.push_back(1ull << i);
      entries.push_back(AccessPath(static_cast<int>(i)));
      plans.push_back(rels_[i].leaf);
    }
    // Per partial plan, a row of the edges touching it and a row of the
    // edges inside it (a single relation's are its self-joins).
    std::vector<uint64_t> touching(edge_rows_.begin(),
                                   edge_rows_.begin() + n * words_);
    std::vector<uint64_t> inside(n * words_, 0);
    for (size_t k = 0; k < block_.joins.size(); ++k) {
      const JoinEdge& e = block_.joins[k];
      if (e.left_rel == e.right_rel) {
        inside[e.left_rel * words_ + k / 64] |= 1ull << (k % 64);
      }
    }
    while (entries.size() > 1) {
      size_t bi = 0, bj = 0;
      Entry best;
      for (size_t i = 0; i < entries.size(); ++i) {
        uint64_t joined = Neighbours(masks[i]);
        const uint64_t* ti = &touching[i * words_];
        const uint64_t* ii = &inside[i * words_];
        for (size_t j = 0; j < entries.size(); ++j) {
          if (i == j || !(joined & masks[j])) continue;
          const uint64_t* tj = &touching[j * words_];
          const uint64_t* ij = &inside[j * words_];
          double rows = Card(masks[i] | masks[j], [&](size_t w) {
            return ii[w] | ij[w] | (ti[w] & tj[w]);
          });
          Entry cand = Combine(entries[i], masks[i], entries[j], masks[j],
                               LinkBetween(ti, tj), rows);
          if (cand.valid() && cand.cost < best.cost) {
            best = cand;
            bi = i;
            bj = j;
          }
        }
      }
      if (!best.valid()) return Entry{};  // disconnected
      bool i_probes = best.probe == masks[bi];
      PhysicalPlanPtr merged = BuildJoin(
          best, LinkBetween(&touching[bi * words_], &touching[bj * words_]),
          i_probes ? plans[bi] : plans[bj], i_probes ? plans[bj] : plans[bi]);
      size_t lo = std::min(bi, bj), hi = std::max(bi, bj);
      for (size_t w = 0; w < words_; ++w) {
        uint64_t& t = touching[lo * words_ + w];
        uint64_t th = touching[hi * words_ + w];
        inside[lo * words_ + w] |= inside[hi * words_ + w] | (t & th);
        t |= th;
      }
      touching.erase(touching.begin() + hi * words_,
                     touching.begin() + (hi + 1) * words_);
      inside.erase(inside.begin() + hi * words_,
                   inside.begin() + (hi + 1) * words_);
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
  size_t words_ = 1;              // words per join-edge set
  // Rows of words_: the edges touching each relation, then the left-outer
  // edges.
  std::vector<uint64_t> edge_rows_;

  // PlanDp's state, indexed by relation-subset mask (touching_ by row).
  uint64_t full_ = 0;
  std::vector<Entry> memo_;
  std::vector<uint64_t> neighbours_;  // relations adjacent to the subset
  std::vector<uint64_t> touching_;    // edges touching the subset
  size_t memo_size_ = 0;              // planned subsets
  size_t dp_pairs_ = 0;               // csg-cmp pairs emitted
};

}  // namespace

StatusOr<PlannedBlock> Optimizer::PlanBlock(const QueryBlock& block) const {
  return BlockPlanner(catalog_, params_, block).Plan();
}

StatusOr<PlannedQuery> Optimizer::PlanQuery(const RelQuery& query) const {
  LEGODB_FAILPOINT("optimizer.plan_query");
  obs::ScopedTimer timer("optimizer.plan_ms");
  obs::Count("optimizer.queries_planned");
  PlannedQuery result;
  for (const auto& block : query.blocks) {
    LEGODB_ASSIGN_OR_RETURN(PlannedBlock pb, PlanBlock(block));
    result.total_cost += pb.cost;
    result.blocks.push_back(std::move(pb));
  }
  return result;
}

}  // namespace legodb::opt
