#include "optimizer/plan.h"

namespace legodb::opt {

namespace {
std::string QualifiedName(const QueryBlock& block, int rel,
                          const std::string& column) {
  if (rel < 0 || rel >= static_cast<int>(block.rels.size())) return column;
  return block.rels[rel].alias + "." + column;
}
}  // namespace

std::string QueryBlock::ToSql() const {
  std::string sql = "SELECT ";
  if (output.empty()) {
    sql += "*";
  } else {
    for (size_t i = 0; i < output.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += QualifiedName(*this, output[i].rel, output[i].column);
    }
  }
  sql += "\nFROM ";
  for (size_t i = 0; i < rels.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += rels[i].table;
    if (rels[i].alias != rels[i].table) sql += " " + rels[i].alias;
  }
  bool first = true;
  auto add_cond = [&](const std::string& cond) {
    sql += first ? "\nWHERE " : "\n  AND ";
    first = false;
    sql += cond;
  };
  for (const auto& j : joins) {
    std::string cond = QualifiedName(*this, j.left_rel, j.left_column) +
                       " = " + QualifiedName(*this, j.right_rel, j.right_column);
    if (j.left_outer) cond += " (+)";  // Oracle-style outer marker, display only
    add_cond(cond);
  }
  for (const auto& f : filters) {
    add_cond(QualifiedName(*this, f.rel, f.column) +
             (f.not_null ? " IS NOT NULL"
                         : std::string(" ") + xq::CompareOpName(f.op) + " " +
                               f.value.ToString()));
  }
  return sql;
}

std::string RelQuery::ToSql() const {
  std::string sql;
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (i > 0) sql += publish ? "\n-- next publish block --\n" : "\nUNION ALL\n";
    sql += blocks[i].ToSql();
  }
  return sql;
}

std::string PhysicalPlan::ToString(const QueryBlock& block, int indent) const {
  std::string pad(2 * indent, ' ');
  std::string out = pad;
  auto rel_name = [&](int r) {
    return r >= 0 && r < static_cast<int>(block.rels.size())
               ? block.rels[r].alias
               : "?";
  };
  auto filters_str = [&]() {
    std::string s;
    for (const auto& f : filters) {
      s += " [" + f.column +
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
      out += "IndexLookup(" + rel_name(rel) + "." + index_column + ")" +
             filters_str();
      break;
    case Kind::kHashJoin:
      out += std::string("HashJoin") + (left_outer ? "[left-outer]" : "") +
             "(" + rel_name(left_join_rel) + "." + left_join_column + " = " +
             rel_name(right_join_rel) + "." + right_join_column + ")";
      break;
    case Kind::kIndexNLJoin:
      out += std::string("IndexNLJoin") + (left_outer ? "[left-outer]" : "") +
             "(" + rel_name(left_join_rel) + "." + left_join_column + " -> " +
             rel_name(rel) + "." + index_column + ")" + filters_str();
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
  if (left) out += left->ToString(block, indent + 1);
  if (right) out += right->ToString(block, indent + 1);
  if (child) out += child->ToString(block, indent + 1);
  return out;
}

}  // namespace legodb::opt
