#include "engine/reference_executor.h"

#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "xquery/evaluator.h"

namespace legodb::engine {

using store::Row;
using store::StoredTable;

namespace {

// One intermediate tuple: a row pointer per base relation (nullptr when the
// relation is not yet joined or missed an outer join).
using Binding = std::vector<const Row*>;

}  // namespace

class ReferenceBlockExecutor {
 public:
  ReferenceBlockExecutor(ReferenceExecutor* e, const opt::QueryBlock& block)
      : e_(e), block_(block) {}

  StatusOr<xq::ResultSet> Run(const opt::PhysicalPlanPtr& plan) {
    std::vector<const rel::Table*> metas;
    for (const auto& rel : block_.rels) {
      if (rel.table < 0 || static_cast<size_t>(rel.table) >= e_->db_->size()) {
        return Status::NotFound("no table #" + std::to_string(rel.table));
      }
      tables_.push_back(&e_->db_->table(rel.table));
      metas.push_back(&tables_.back()->meta());
    }
    LEGODB_RETURN_IF_ERROR(opt::CheckPlan(block_, metas, plan));
    LEGODB_ASSIGN_OR_RETURN(std::vector<Binding> bindings, Exec(plan->child));
    xq::ResultSet result;
    for (const auto& out : block_.output) {
      result.labels.push_back(
          !out.label.empty() ? out.label
          : out.rel == -1
              ? "NULL"
              : tables_[out.rel]->meta().columns[out.column].name);
    }
    for (const Binding& binding : bindings) {
      std::vector<Value> row;
      row.reserve(block_.output.size());
      for (const auto& out : block_.output) {
        if (out.rel == -1 || binding[out.rel] == nullptr) {
          row.push_back(Value::MakeNull());
          continue;
        }
        row.push_back((*binding[out.rel])[out.column]);
      }
      for (const Value& v : row) e_->stats_.bytes_out += v.ByteSize();
      e_->stats_.rows_out += 1;
      result.rows.push_back(std::move(row));
    }
    return result;
  }

 private:
  StatusOr<Value> ResolveConstant(const xq::Constant& c) const {
    switch (c.kind) {
      case xq::Constant::Kind::kInt:
        return Value::Int(c.int_value);
      case xq::Constant::Kind::kString:
        return xq::CanonicalValue(c.string_value);
      case xq::Constant::Kind::kSymbol: {
        auto it = e_->params_.find(c.symbol);
        if (it == e_->params_.end()) {
          return Status::InvalidArgument("unbound query parameter '" +
                                         c.symbol + "'");
        }
        return it->second;
      }
    }
    return Status::Internal("bad constant");
  }

  // Whether `row` of `p`'s relation passes `p`'s filters and, at a scan or
  // lookup, its residual (self) edges.
  StatusOr<bool> PassFilters(const opt::PhysicalPlan& p, const Row& row) const {
    for (const auto& f : p.filters) {
      if (f.rel != p.rel) continue;
      if (row[f.column].is_null()) return false;
      if (f.not_null) continue;
      LEGODB_ASSIGN_OR_RETURN(Value want, ResolveConstant(f.value));
      if (!xq::ApplyCompare(f.op, row[f.column], want)) return false;
    }
    return p.kind == opt::PhysicalPlan::Kind::kIndexNLJoin ||
           p.residual_joins.empty() ||
           ResidualsPass(p, NewBinding(p.rel, &row));
  }

  // Extra join predicates beyond the driving hash/index edge.
  bool ResidualsPass(const opt::PhysicalPlan& p, const Binding& merged) const {
    for (const auto& e : p.residual_joins) {
      const Row* l = merged[e.left_rel];
      const Row* r = merged[e.right_rel];
      if (!l || !r) return false;
      const Value& lv = (*l)[e.left_column];
      const Value& rv = (*r)[e.right_column];
      if (lv.is_null() || rv.is_null() || !(lv == rv)) return false;
    }
    return true;
  }

  Binding NewBinding(int rel, const Row* row) const {
    Binding b(block_.rels.size(), nullptr);
    b[rel] = row;
    return b;
  }

  // Keeps a row read through StoredTable::ReadRow alive for the bindings
  // that point at it.
  const Row* Keep(Row row) {
    arena_.push_back(std::move(row));
    return &arena_.back();
  }

  double RowWidth(int rel) const { return tables_[rel]->meta().RowWidth(); }

  // Runs node `p` of a plan CheckPlan has passed.
  StatusOr<std::vector<Binding>> Exec(const opt::PhysicalPlanPtr& p) {
    switch (p->kind) {
      case opt::PhysicalPlan::Kind::kSeqScan:
      case opt::PhysicalPlan::Kind::kIndexLookup: {
        // A scan reads every row after one seek, a lookup seeks each hit.
        StoredTable& t = *tables_[p->rel];
        const bool lookup = p->kind == opt::PhysicalPlan::Kind::kIndexLookup;
        std::span<const int32_t> hits;
        if (lookup) {
          LEGODB_ASSIGN_OR_RETURN(const store::HashIndex* index,
                                  t.GetOrBuildIndex(p->index_column));
          LEGODB_ASSIGN_OR_RETURN(Value key,
                                  ResolveConstant(p->DrivingFilter()->value));
          hits = index->Find(key);
        }
        const size_t n = lookup ? hits.size() : t.row_count();
        e_->stats_.seeks += 1 + (lookup ? static_cast<double>(n) : 0);
        e_->stats_.tuples_processed += static_cast<double>(n);
        e_->stats_.bytes_read += static_cast<double>(n) * RowWidth(p->rel);
        std::vector<Binding> out;
        for (size_t i = 0; i < n; ++i) {
          LEGODB_ASSIGN_OR_RETURN(
              Row row, t.ReadRow(lookup ? static_cast<size_t>(hits[i]) : i));
          LEGODB_ASSIGN_OR_RETURN(bool pass, PassFilters(*p, row));
          if (pass) out.push_back(NewBinding(p->rel, Keep(std::move(row))));
        }
        return out;
      }
      case opt::PhysicalPlan::Kind::kHashJoin: {
        LEGODB_ASSIGN_OR_RETURN(std::vector<Binding> probe, Exec(p->left));
        LEGODB_ASSIGN_OR_RETURN(std::vector<Binding> build, Exec(p->right));
        e_->stats_.tuples_processed +=
            static_cast<double>(probe.size() + build.size());
        int build_rel = p->right_join_rel;
        int build_col = p->right_join_column;
        int probe_rel = p->left_join_rel;
        int probe_col = p->left_join_column;
        std::unordered_map<Value, std::vector<const Binding*>, ValueHash>
            table;
        for (const Binding& b : build) {
          const Row* row = b[build_rel];
          if (!row || (*row)[build_col].is_null()) continue;
          table[(*row)[build_col]].push_back(&b);
        }
        std::vector<Binding> out;
        for (const Binding& l : probe) {
          const Row* row = l[probe_rel];
          bool matched = false;
          if (row && !(*row)[probe_col].is_null()) {
            auto it = table.find((*row)[probe_col]);
            if (it != table.end()) {
              for (const Binding* r : it->second) {
                Binding merged = l;
                for (size_t i = 0; i < merged.size(); ++i) {
                  if ((*r)[i]) merged[i] = (*r)[i];
                }
                if (!ResidualsPass(*p, merged)) continue;
                out.push_back(std::move(merged));
                matched = true;
              }
            }
          }
          if (!matched && p->left_outer) out.push_back(l);
        }
        return out;
      }
      case opt::PhysicalPlan::Kind::kIndexNLJoin: {
        LEGODB_ASSIGN_OR_RETURN(std::vector<Binding> outer, Exec(p->left));
        StoredTable& inner = *tables_[p->rel];
        LEGODB_ASSIGN_OR_RETURN(const store::HashIndex* index,
                                inner.GetOrBuildIndex(p->index_column));
        int outer_rel = p->left_join_rel;
        int outer_col = p->left_join_column;
        std::vector<Binding> out;
        for (const Binding& l : outer) {
          const Row* row = l[outer_rel];
          bool matched = false;
          e_->stats_.seeks += 1;
          if (row && !(*row)[outer_col].is_null()) {
            std::span<const int32_t> hits = index->Find((*row)[outer_col]);
            e_->stats_.seeks += static_cast<double>(hits.size());
            e_->stats_.tuples_processed += static_cast<double>(hits.size());
            e_->stats_.bytes_read +=
                static_cast<double>(hits.size()) * RowWidth(p->rel);
            for (int32_t idx : hits) {
              LEGODB_ASSIGN_OR_RETURN(Row irow,
                                      inner.ReadRow(static_cast<size_t>(idx)));
              LEGODB_ASSIGN_OR_RETURN(bool pass, PassFilters(*p, irow));
              if (!pass) continue;
              Binding merged = l;
              merged[p->rel] = Keep(std::move(irow));
              if (!ResidualsPass(*p, merged)) continue;
              out.push_back(std::move(merged));
              matched = true;
            }
          }
          if (!matched && p->left_outer) out.push_back(l);
        }
        return out;
      }
      case opt::PhysicalPlan::Kind::kProject:  // CheckPlan admits none here
        break;
    }
    return Status::Internal("unknown plan node");
  }

  ReferenceExecutor* e_;
  const opt::QueryBlock& block_;
  std::vector<StoredTable*> tables_;
  // The rows the bindings point at: only those that passed their filters,
  // so memory follows what the block binds, not the table sizes.
  std::deque<Row> arena_;
};

StatusOr<xq::ResultSet> ReferenceExecutor::ExecuteBlock(
    const opt::QueryBlock& block, const opt::PhysicalPlanPtr& plan) {
  return ReferenceBlockExecutor(this, block).Run(plan);
}

StatusOr<xq::ResultSet> ReferenceExecutor::ExecuteQuery(
    const opt::RelQuery& query,
    const std::vector<opt::PhysicalPlanPtr>& block_plans) {
  if (block_plans.size() != query.blocks.size()) {
    return Status::InvalidArgument("plan count mismatch");
  }
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
