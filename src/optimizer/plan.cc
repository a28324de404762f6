#include "optimizer/plan.h"

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

Status PhysicalPlan::CheckRelations(size_t block_rels) const {
  auto check = [&](const char* what, int r) {
    if (r >= 0 && static_cast<size_t>(r) < block_rels) return Status::OK();
    return Status::NotFound(std::string(what) + " names relation #" +
                            std::to_string(r) + " of a block of " +
                            std::to_string(block_rels));
  };
  switch (kind) {
    case Kind::kSeqScan:
    case Kind::kIndexLookup:
      return check("scan", rel);
    case Kind::kHashJoin:
      LEGODB_RETURN_IF_ERROR(check("hash join probe", left_join_rel));
      return check("hash join build", right_join_rel);
    case Kind::kIndexNLJoin:
      LEGODB_RETURN_IF_ERROR(check("index join inner", rel));
      return check("index join outer", left_join_rel);
    case Kind::kProject:
      return Status::OK();
  }
  return Status::OK();
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

}  // namespace legodb::opt
