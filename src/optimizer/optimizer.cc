#include "optimizer/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>

#include "common/failpoint.h"
#include "obs/obs.h"

namespace legodb::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Entry {
  double cost = kInf;
  double rows = 0;
  double width = 0;  // bytes per intermediate tuple
  double seeks = 0;  // predicted seeks, inclusive of inputs
  double bytes = 0;  // predicted bytes read, inclusive of inputs
  PhysicalPlanPtr plan;

  bool valid() const { return plan != nullptr; }
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
    for (size_t i = 0; i < n; ++i) {
      const rel::Table* table = catalog_.FindTable(block_.rels[i].table);
      if (!table) {
        return Status::NotFound("table '" + block_.rels[i].table +
                                "' not in catalog");
      }
      tables_.push_back(table);
    }

    Entry best = n <= static_cast<size_t>(p_.dp_rel_limit) ? PlanDp()
                                                           : PlanGreedy();
    if (!best.valid()) {
      return Status::Internal("no plan found for block");
    }

    // Root projection: producing the result counts as writing.
    auto root = std::make_shared<PhysicalPlan>();
    root->kind = PhysicalPlan::Kind::kProject;
    root->child = best.plan;
    root->outputs = block_.output;
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

  const rel::Column* Col(int rel, const std::string& name) const {
    return tables_[rel]->FindColumn(name);
  }

  double ColDistincts(int rel, const std::string& name) const {
    const rel::Column* c = Col(rel, name);
    return c ? std::max(1.0, c->distincts) : 1.0;
  }

  double ColNullFrac(int rel, const std::string& name) const {
    const rel::Column* c = Col(rel, name);
    return c ? std::clamp(c->null_fraction, 0.0, 1.0) : 0.0;
  }

  double BaseRows(int rel) const {
    return std::max(1.0, tables_[rel]->row_count);
  }

  double RowWidth(int rel) const { return tables_[rel]->RowWidth(); }

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
  double EffDistincts(int rel, const std::string& column) const {
    return std::max(1.0,
                    std::min(ColDistincts(rel, column), FilteredRows(rel)));
  }

  bool Indexed(int rel, const std::string& column) const {
    const rel::Table* t = tables_[rel];
    if (column == t->key_column) return true;
    for (const auto& fk : t->foreign_keys) {
      if (fk.column == column) return true;
    }
    return p_.index_on_predicates && t->FindColumn(column) != nullptr;
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

  // Estimated cardinality of joining the relations in `mask`: product of
  // filtered cardinalities discounted by each internal join edge.
  double Card(uint64_t mask) {
    auto it = card_memo_.find(mask);
    if (it != card_memo_.end()) return it->second;
    double rows = 1;
    for (size_t i = 0; i < block_.rels.size(); ++i) {
      if (mask & (1ull << i)) rows *= FilteredRows(static_cast<int>(i));
    }
    for (const auto& e : block_.joins) {
      if (!(mask & (1ull << e.left_rel)) || !(mask & (1ull << e.right_rel))) {
        continue;
      }
      double dl = EffDistincts(e.left_rel, e.left_column);
      double dr = EffDistincts(e.right_rel, e.right_column);
      double sel = 1.0 / std::max(dl, dr);
      sel *= (1.0 - ColNullFrac(e.left_rel, e.left_column)) *
             (1.0 - ColNullFrac(e.right_rel, e.right_column));
      if (e.left_outer) {
        // A preserved outer row always survives: at least one row per outer
        // row, i.e. the edge cannot reduce cardinality below 1 match.
        double inner_rows = FilteredRows(e.right_rel);
        sel = std::max(sel, 1.0 / inner_rows);
      }
      rows *= std::clamp(sel, 1e-12, 1.0);
    }
    rows = std::max(rows, 1e-6);
    card_memo_[mask] = rows;
    return rows;
  }

  // ---- leaf access paths ----

  Entry AccessPath(int rel) {
    std::vector<FilterPred> filters;
    for (const auto& f : block_.filters) {
      if (f.rel == rel) filters.push_back(f);
    }
    double base = BaseRows(rel);
    double width = RowWidth(rel);
    double out_rows = FilteredRows(rel);

    Entry best;
    {  // sequential scan
      double seeks = ScanSeeks(base * width);
      double bytes = PagedBytes(base * width);
      auto plan = std::make_shared<PhysicalPlan>();
      plan->kind = PhysicalPlan::Kind::kSeqScan;
      plan->rel = rel;
      plan->filters = filters;
      plan->est_rows = out_rows;
      plan->est_cost = seeks * p_.seek_cost + bytes * p_.read_per_byte +
                       base * p_.cpu_per_tuple;
      plan->est_seeks = seeks;
      plan->est_bytes = bytes;
      best = Entry{plan->est_cost, out_rows, width, seeks, bytes, plan};
    }
    // Index lookup on the most selective indexed filter column (hash
    // indexes serve equality probes only).
    for (const auto& f : filters) {
      if (f.not_null || f.op != xq::CompareOp::kEq ||
          !Indexed(rel, f.column)) {
        continue;
      }
      double matches = base * FilterSelectivity(f);
      double seeks = p_.index_probe_seeks + matches;
      double bytes = matches * ProbeBytes(width);
      double cost = seeks * p_.seek_cost + bytes * p_.read_per_byte +
                    matches * p_.cpu_per_tuple;
      if (cost < best.cost) {
        auto plan = std::make_shared<PhysicalPlan>();
        plan->kind = PhysicalPlan::Kind::kIndexLookup;
        plan->rel = rel;
        plan->index_column = f.column;
        plan->filters = filters;  // residuals re-checked cheaply
        plan->est_rows = out_rows;
        plan->est_cost = cost;
        plan->est_seeks = seeks;
        plan->est_bytes = bytes;
        best = Entry{cost, out_rows, width, seeks, bytes, plan};
      }
    }
    return best;
  }

  // ---- join combination ----

  std::vector<const JoinEdge*> EdgesBetween(uint64_t a, uint64_t b) const {
    std::vector<const JoinEdge*> edges;
    for (const auto& e : block_.joins) {
      uint64_t lm = 1ull << e.left_rel;
      uint64_t rm = 1ull << e.right_rel;
      if (((lm & a) && (rm & b)) || ((lm & b) && (rm & a))) {
        edges.push_back(&e);
      }
    }
    return edges;
  }

  // Combines two planned subsets. `single_b_rel` >= 0 when the right subset
  // is one base relation (enables index nested loops).
  Entry Combine(const Entry& a, uint64_t mask_a, const Entry& b,
                uint64_t mask_b, int single_b_rel) {
    uint64_t mask = mask_a | mask_b;
    double out_rows = Card(mask);
    double width = a.width + b.width;
    std::vector<const JoinEdge*> edges = EdgesBetween(mask_a, mask_b);
    bool outer = false;
    for (const auto* e : edges) outer |= e->left_outer;

    Entry best;
    // Hash join: build the smaller side.
    for (int build_right = 0; build_right < 2; ++build_right) {
      const Entry& probe = build_right ? a : b;
      const Entry& build = build_right ? b : a;
      if (outer) {
        // Left-outer joins preserve the left (probe=a) side; only the
        // build_right orientation is valid.
        if (!build_right) continue;
      }
      if (edges.empty()) continue;
      double cost = probe.cost + build.cost +
                    build.rows * (p_.cpu_per_probe +
                                  build.width * 0.0) +  // build
                    probe.rows * p_.cpu_per_probe +     // probe
                    out_rows * p_.cpu_per_tuple;
      double seeks = probe.seeks + build.seeks;  // joins add CPU, not IO
      double bytes = probe.bytes + build.bytes;
      if (cost < best.cost) {
        auto plan = std::make_shared<PhysicalPlan>();
        plan->kind = PhysicalPlan::Kind::kHashJoin;
        plan->left = probe.plan;
        plan->right = build.plan;
        const JoinEdge* e = edges[0];
        bool e_left_in_probe =
            ((1ull << e->left_rel) & (build_right ? mask_a : mask_b)) != 0;
        plan->left_join_rel = e_left_in_probe ? e->left_rel : e->right_rel;
        plan->left_join_column =
            e_left_in_probe ? e->left_column : e->right_column;
        plan->right_join_rel = e_left_in_probe ? e->right_rel : e->left_rel;
        plan->right_join_column =
            e_left_in_probe ? e->right_column : e->left_column;
        plan->left_outer = outer;
        for (size_t k = 1; k < edges.size(); ++k) {
          plan->residual_joins.push_back(*edges[k]);
        }
        plan->est_rows = out_rows;
        plan->est_cost = cost;
        plan->est_seeks = seeks;
        plan->est_bytes = bytes;
        best = Entry{cost, out_rows, width, seeks, bytes, plan};
      }
    }
    // Index nested loops: inner side must be a single base relation with an
    // index on its join column.
    if (single_b_rel >= 0) {
      for (const auto* e : edges) {
        bool inner_is_right = e->right_rel == single_b_rel;
        int inner_rel = single_b_rel;
        const std::string& inner_col =
            inner_is_right ? e->right_column : e->left_column;
        int outer_rel = inner_is_right ? e->left_rel : e->right_rel;
        const std::string& outer_col =
            inner_is_right ? e->left_column : e->right_column;
        if (e->left_outer && !inner_is_right) continue;  // must preserve left
        if (!Indexed(inner_rel, inner_col)) continue;
        double matches_per_probe =
            BaseRows(inner_rel) * (1.0 - ColNullFrac(inner_rel, inner_col)) /
            EffDistinctsBase(inner_rel, inner_col);
        double seeks_added =
            a.rows * (p_.index_probe_seeks + matches_per_probe);
        double bytes_added =
            a.rows * matches_per_probe * ProbeBytes(RowWidth(inner_rel));
        double cost = a.cost + seeks_added * p_.seek_cost +
                      bytes_added * p_.read_per_byte +
                      a.rows * matches_per_probe * p_.cpu_per_tuple +
                      out_rows * p_.cpu_per_tuple;
        if (cost < best.cost) {
          auto plan = std::make_shared<PhysicalPlan>();
          plan->kind = PhysicalPlan::Kind::kIndexNLJoin;
          plan->left = a.plan;
          plan->rel = inner_rel;
          plan->index_column = inner_col;
          for (const auto& f : block_.filters) {
            if (f.rel == inner_rel) plan->filters.push_back(f);
          }
          plan->left_join_rel = outer_rel;
          plan->left_join_column = outer_col;
          plan->right_join_rel = inner_rel;
          plan->right_join_column = inner_col;
          plan->left_outer = e->left_outer;
          for (const auto* other : edges) {
            if (other != e) plan->residual_joins.push_back(*other);
          }
          plan->est_rows = out_rows;
          plan->est_cost = cost;
          plan->est_seeks = a.seeks + seeks_added;
          plan->est_bytes = a.bytes + bytes_added;
          best = Entry{cost,
                       out_rows,
                       a.width + RowWidth(inner_rel),
                       a.seeks + seeks_added,
                       a.bytes + bytes_added,
                       plan};
        }
      }
    }
    return best;
  }

  // Distincts over the unfiltered base table (for index probe fan-out).
  double EffDistinctsBase(int rel, const std::string& column) const {
    return std::max(1.0, std::min(ColDistincts(rel, column), BaseRows(rel)));
  }

  Entry PlanDp() {
    size_t n = block_.rels.size();
    std::map<uint64_t, Entry> best;
    for (size_t i = 0; i < n; ++i) {
      best[1ull << i] = AccessPath(static_cast<int>(i));
    }
    uint64_t full = n == 64 ? ~0ull : (1ull << n) - 1;
    // Enumerate subsets in increasing size.
    std::vector<uint64_t> masks;
    for (uint64_t m = 1; m <= full; ++m) {
      if (std::popcount(m) >= 2) masks.push_back(m);
    }
    std::sort(masks.begin(), masks.end(), [](uint64_t a, uint64_t b) {
      int pa = std::popcount(a), pb = std::popcount(b);
      return pa != pb ? pa < pb : a < b;
    });
    obs::Count("optimizer.dp_plans");
    for (uint64_t mask : masks) {
      Entry entry;
      bool found_connected = false;
      for (int pass = 0; pass < 2 && !entry.valid(); ++pass) {
        bool allow_cartesian = pass == 1;
        // Enumerate proper sub-splits.
        for (uint64_t sub = (mask - 1) & mask; sub; sub = (sub - 1) & mask) {
          uint64_t rest = mask ^ sub;
          if (sub > rest) continue;  // each split once; Combine tries both
          auto a_it = best.find(sub);
          auto b_it = best.find(rest);
          if (a_it == best.end() || b_it == best.end()) continue;
          if (!a_it->second.valid() || !b_it->second.valid()) continue;
          bool connected = !EdgesBetween(sub, rest).empty();
          if (!connected && !allow_cartesian) continue;
          if (connected) found_connected = true;
          if (!connected) {
            // Cartesian product via (degenerate) hash join is not modeled;
            // skip — translation never produces disconnected blocks.
            continue;
          }
          for (int dir = 0; dir < 2; ++dir) {
            uint64_t ma = dir ? rest : sub;
            uint64_t mb = dir ? sub : rest;
            const Entry& ea = best[ma];
            const Entry& eb = best[mb];
            int single = std::popcount(mb) == 1
                             ? std::countr_zero(mb)
                             : -1;
            Entry cand = Combine(ea, ma, eb, mb, single);
            if (cand.valid() && cand.cost < entry.cost) entry = cand;
          }
        }
        if (found_connected) break;
      }
      if (entry.valid()) best[mask] = entry;
    }
    obs::Observe("optimizer.memo_size", static_cast<double>(best.size()));
    auto it = best.find(full);
    return it == best.end() ? Entry{} : it->second;
  }

  Entry PlanGreedy() {
    obs::Count("optimizer.greedy_plans");
    size_t n = block_.rels.size();
    std::vector<uint64_t> masks;
    std::vector<Entry> entries;
    for (size_t i = 0; i < n; ++i) {
      masks.push_back(1ull << i);
      entries.push_back(AccessPath(static_cast<int>(i)));
    }
    while (entries.size() > 1) {
      double best_cost = kInf;
      size_t bi = 0, bj = 0;
      Entry best_entry;
      for (size_t i = 0; i < entries.size(); ++i) {
        for (size_t j = 0; j < entries.size(); ++j) {
          if (i == j) continue;
          if (EdgesBetween(masks[i], masks[j]).empty()) continue;
          int single = std::popcount(masks[j]) == 1
                           ? std::countr_zero(masks[j])
                           : -1;
          Entry cand =
              Combine(entries[i], masks[i], entries[j], masks[j], single);
          if (cand.valid() && cand.cost < best_cost) {
            best_cost = cand.cost;
            best_entry = cand;
            bi = i;
            bj = j;
          }
        }
      }
      if (!best_entry.valid()) return Entry{};  // disconnected
      uint64_t merged = masks[bi] | masks[bj];
      size_t lo = std::min(bi, bj), hi = std::max(bi, bj);
      masks.erase(masks.begin() + hi);
      entries.erase(entries.begin() + hi);
      masks[lo] = merged;
      entries[lo] = best_entry;
    }
    return entries[0];
  }

  const rel::Catalog& catalog_;
  const CostParams& p_;
  const QueryBlock& block_;
  std::vector<const rel::Table*> tables_;
  std::map<uint64_t, double> card_memo_;
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
