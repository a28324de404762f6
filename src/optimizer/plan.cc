#include "optimizer/plan.h"

#include <algorithm>
#include <tuple>

namespace legodb::opt {

namespace {

// The name of column `column` of relation `rel`, after "alias." when
// `qualified`: empty for the NULL literal (`rel` -1), "#<position>" outside
// the block or the table.
std::string ColumnName(const rel::Catalog& catalog, const QueryBlock& block,
                       int rel, int column, bool qualified = false) {
  if (rel < 0) return "";
  if (static_cast<size_t>(rel) >= block.rels.size()) {
    return "#" + std::to_string(column);
  }
  const rel::Table& table = catalog.table(block.rels[rel].table);
  return (qualified ? block.rels[rel].alias + "." : "") +
         (table.CheckColumn(column).ok() ? table.columns[column].name
                                         : "#" + std::to_string(column));
}

}  // namespace

std::string QueryBlock::ToSql(const rel::Catalog& catalog) const {
  std::string sql = "SELECT ";
  if (output.empty()) {
    sql += "*";
  } else {
    for (size_t i = 0; i < output.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += ColumnName(catalog, *this, output[i].rel, output[i].column, true);
    }
  }
  sql += "\nFROM ";
  for (size_t i = 0; i < rels.size(); ++i) {
    if (i > 0) sql += ", ";
    const std::string& table = catalog.table(rels[i].table).name;
    sql += table;
    if (rels[i].alias != table) sql += " " + rels[i].alias;
  }
  bool first = true;
  auto add_cond = [&](const std::string& cond) {
    sql += first ? "\nWHERE " : "\n  AND ";
    first = false;
    sql += cond;
  };
  for (const auto& j : joins) {
    std::string cond =
        ColumnName(catalog, *this, j.left_rel, j.left_column, true) + " = " +
        ColumnName(catalog, *this, j.right_rel, j.right_column, true);
    if (j.left_outer) cond += " (+)";  // Oracle-style outer marker, display only
    add_cond(cond);
  }
  for (const auto& f : filters) {
    add_cond(ColumnName(catalog, *this, f.rel, f.column, true) +
             (f.not_null ? " IS NOT NULL"
                         : std::string(" ") + xq::CompareOpName(f.op) + " " +
                               f.value.ToString()));
  }
  return sql;
}

std::string RelQuery::ToSql(const rel::Catalog& catalog) const {
  std::string sql;
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (i > 0) sql += publish ? "\n-- next publish block --\n" : "\nUNION ALL\n";
    sql += blocks[i].ToSql(catalog);
  }
  return sql;
}

const FilterPred* PhysicalPlan::DrivingFilter() const {
  for (const FilterPred& f : filters) {
    if (f.rel == rel && f.column == index_column && !f.not_null &&
        f.op == xq::CompareOp::kEq) {
      return &f;
    }
  }
  return nullptr;
}

std::string PhysicalPlan::ToString(const rel::Catalog& catalog,
                                   const QueryBlock& block, int indent) const {
  std::string pad(2 * indent, ' ');
  std::string out = pad;
  auto rel_name = [&](int r) {
    return r >= 0 && r < static_cast<int>(block.rels.size())
               ? block.rels[r].alias
               : "?";
  };
  auto column = [&](int r, int c) {
    return ColumnName(catalog, block, r, c, true);
  };
  auto filters_str = [&]() {
    std::string s;
    for (const auto& f : filters) {
      s += " [" + ColumnName(catalog, block, f.rel, f.column) +
           (f.not_null ? " NOT NULL]"
                       : std::string(xq::CompareOpName(f.op)) +
                             f.value.ToString() + "]");
    }
    return s;
  };
  switch (kind) {
    case Kind::kSeqScan:
      out += "SeqScan(" + rel_name(rel) + ")" + filters_str();
      break;
    case Kind::kIndexLookup:
      out += "IndexLookup(" + column(rel, index_column) + ")" + filters_str();
      break;
    case Kind::kHashJoin:
      out += std::string("HashJoin") + (left_outer ? "[left-outer]" : "") +
             "(" + column(left_join_rel, left_join_column) + " = " +
             column(right_join_rel, right_join_column) + ")";
      break;
    case Kind::kIndexNLJoin:
      out += std::string("IndexNLJoin") + (left_outer ? "[left-outer]" : "") +
             "(" + column(left_join_rel, left_join_column) + " -> " +
             column(rel, index_column) + ")" + filters_str();
      break;
    case Kind::kProject:
      out += "Project";
      break;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  {rows=%.0f cost=%.1f}", est_rows,
                est_cost);
  out += buf;
  out += "\n";
  if (left) out += left->ToString(catalog, block, indent + 1);
  if (right) out += right->ToString(catalog, block, indent + 1);
  if (child) out += child->ToString(catalog, block, indent + 1);
  return out;
}

Status CheckColumns(const QueryBlock& block,
                    std::span<const rel::Table* const> tables) {
  Status st;  // the first violation
  auto check = [&](int rel, int column) {
    if (!st.ok()) return;
    st = rel < 0 || static_cast<size_t>(rel) >= tables.size()
             ? Status::InvalidArgument("column of a relation outside the block")
             : tables[rel]->CheckColumn(column);
  };
  for (const FilterPred& f : block.filters) check(f.rel, f.column);
  for (const JoinEdge& e : block.joins) {
    check(e.left_rel, e.left_column);
    check(e.right_rel, e.right_column);
  }
  for (const ColumnRef& out : block.output) {
    if (out.rel != -1) check(out.rel, out.column);
  }
  return st;
}

namespace {

using Kind = PhysicalPlan::Kind;

uint64_t Bit(int rel) { return 1ull << rel; }

Status Bad(const std::string& why) { return Status::InvalidArgument(why); }

// Whether two edges compare the same two columns, either way round.
bool SameColumns(const JoinEdge& a, const JoinEdge& b) {
  auto ends = [](const JoinEdge& e, bool flip) {
    return flip ? std::tie(e.right_rel, e.right_column, e.left_rel,
                           e.left_column)
                : std::tie(e.left_rel, e.left_column, e.right_rel,
                           e.right_column);
  };
  return ends(a, false) == ends(b, false) || ends(a, false) == ends(b, true);
}

// CheckPlan's two walks over one plan: Ranges (R1), then Walk (R2-R5).
class PlanChecker {
 public:
  PlanChecker(const QueryBlock& block,
              std::span<const rel::Table* const> tables)
      : block_(block), tables_(tables) {}

  Status Ranges(const PhysicalPlan* p) const {
    if (!p) return Status::OK();  // R2 reports it
    const bool nl = p->kind == Kind::kIndexNLJoin;
    if (p->kind != Kind::kHashJoin && p->kind != Kind::kProject) {
      LEGODB_RETURN_IF_ERROR(Rel(nl ? "index join inner" : "scan", p->rel));
    }
    if (p->kind == Kind::kIndexLookup || nl) {
      LEGODB_RETURN_IF_ERROR(tables_[p->rel]->CheckColumn(p->index_column));
    }
    if (p->kind == Kind::kHashJoin || nl) {
      LEGODB_RETURN_IF_ERROR(Column(nl ? "index join outer" : "hash join probe",
                                    p->left_join_rel, p->left_join_column));
      LEGODB_RETURN_IF_ERROR(Column(nl ? "index join inner" : "hash join build",
                                    p->right_join_rel, p->right_join_column));
    }
    for (const FilterPred& f : p->filters) {
      LEGODB_RETURN_IF_ERROR(Column("filter", f.rel, f.column));
    }
    for (const JoinEdge& e : p->residual_joins) {
      LEGODB_RETURN_IF_ERROR(Column("residual", e.left_rel, e.left_column));
      LEGODB_RETURN_IF_ERROR(Column("residual", e.right_rel, e.right_column));
    }
    LEGODB_RETURN_IF_ERROR(Ranges(p->left.get()));
    LEGODB_RETURN_IF_ERROR(Ranges(p->right.get()));
    return Ranges(p->child.get());
  }

  // The relations `p`'s subtree binds.
  StatusOr<uint64_t> Walk(const PhysicalPlan* p) const {
    if (!p) return Bad("null plan node");
    if (p->kind == Kind::kProject) return Bad("nested projection");
    if (p->kind == Kind::kIndexLookup && !p->DrivingFilter()) {
      return Bad("index lookup without driving filter");
    }
    const bool join = p->kind == Kind::kHashJoin || p->kind == Kind::kIndexNLJoin;
    uint64_t left = 0;  // a join's probe/outer side
    uint64_t right = p->kind == Kind::kHashJoin ? 0 : Bit(p->rel);
    if (join) {
      LEGODB_ASSIGN_OR_RETURN(left, Walk(p->left.get()));
      if (!(left & Bit(p->left_join_rel))) return Bad("probe key off its side");
    }
    if (p->kind == Kind::kHashJoin) {
      LEGODB_ASSIGN_OR_RETURN(right, Walk(p->right.get()));
    }
    if (join && !(right & Bit(p->right_join_rel))) {
      return Bad("build/inner key off its side");
    }
    if (left & right) return Bad("join sides share a relation");
    for (const FilterPred& f : block_.filters) {  // at the access node
      if (p->kind != Kind::kHashJoin && f.rel == p->rel &&
          std::find(p->filters.begin(), p->filters.end(), f) ==
              p->filters.end()) {
        return Bad("filter on relation #" + std::to_string(f.rel) +
                   " missing at its access node");
      }
    }
    // R4 and R5 over the predicates of `p`: its residuals, then a join's
    // driving edge (for index nested loops, into the inner index column).
    std::vector<JoinEdge> preds = p->residual_joins;
    if (join) {
      preds.push_back(JoinEdge{
          p->left_join_rel, p->left_join_column, p->right_join_rel,
          p->kind == Kind::kHashJoin ? p->right_join_column : p->index_column});
    }
    std::vector<bool> used(preds.size(), false);
    bool outer = false;
    for (size_t k = 0; k < block_.joins.size(); ++k) {
      const JoinEdge& e = block_.joins[k];
      const uint64_t ends = Bit(e.left_rel) | Bit(e.right_rel);
      // Met here: inside both sides, not inside the left one, and not
      // inside a hash join's build side (an access node's self edges are).
      if ((ends & ~(left | right)) || !(ends & ~left) ||
          (p->kind == Kind::kHashJoin && !(ends & ~right))) {
        continue;
      }
      size_t i = 0;
      while (i < preds.size() && (used[i] || !SameColumns(preds[i], e))) ++i;
      if (i == preds.size()) {
        return Bad("join edge #" + std::to_string(k) +
                   " missing where its relations meet");
      }
      used[i] = true;
      if (e.left_outer && e.left_rel != e.right_rel) {
        if (!(left & Bit(e.left_rel))) {
          return Bad("left-outer join edge #" + std::to_string(k) +
                     " preserves its right side");
        }
        outer = true;
      }
    }
    for (size_t i = 0; i < preds.size(); ++i) {
      for (size_t k = 0; k < block_.joins.size() && !used[i]; ++k) {
        if (SameColumns(preds[i], block_.joins[k])) {
          return Bad("join edge #" + std::to_string(k) +
                     " applied twice or where its relations do not meet");
        }
      }
    }
    if (join && p->left_outer != outer) {
      return Bad("join's left_outer disagrees with the edges it applies");
    }
    return left | right;
  }

 private:
  Status Rel(const char* what, int r) const {
    if (r >= 0 && static_cast<size_t>(r) < tables_.size()) return Status::OK();
    return Status::NotFound(std::string(what) + " names relation #" +
                            std::to_string(r) + " of a block of " +
                            std::to_string(tables_.size()));
  }

  Status Column(const char* what, int r, int column) const {
    LEGODB_RETURN_IF_ERROR(Rel(what, r));
    return tables_[r]->CheckColumn(column);
  }

  const QueryBlock& block_;
  std::span<const rel::Table* const> tables_;
};

}  // namespace

Status CheckPlan(const QueryBlock& block,
                 std::span<const rel::Table* const> tables,
                 const PhysicalPlanPtr& plan) {
  LEGODB_RETURN_IF_ERROR(CheckColumns(block, tables));
  PlanChecker checker(block, tables);
  LEGODB_RETURN_IF_ERROR(checker.Ranges(plan.get()));
  if (!plan || plan->kind != Kind::kProject) {
    return Bad("plan root must be a projection");
  }
  if (block.rels.size() > 64) {
    return Status::Unsupported("too many relations in block");
  }
  LEGODB_ASSIGN_OR_RETURN(uint64_t bound, checker.Walk(plan->child.get()));
  // A walk that passes R1 has scanned a relation, so the block has one.
  if (bound != ~0ull >> (64 - block.rels.size())) {
    return Bad("plan leaves a block relation unbound");
  }
  return Status::OK();
}

}  // namespace legodb::opt
