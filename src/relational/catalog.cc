#include "relational/catalog.h"

#include <cmath>

namespace legodb::rel {

std::string SqlType::ToString() const {
  switch (kind) {
    case Kind::kInt:
      return "INT";
    case Kind::kChar:
      return "CHAR(" + std::to_string(static_cast<int64_t>(width)) + ")";
    case Kind::kVarchar:
      return "STRING";
  }
  return "?";
}

double Table::RowWidth() const {
  double width = kRowOverheadBytes;
  for (const auto& col : columns) {
    width += col.type.width * (1.0 - col.null_fraction) +
             (col.nullable ? 1 : 0);  // null bitmap byte
  }
  return width;
}

int Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Table::CheckColumn(int column) const {
  if (column >= 0 && static_cast<size_t>(column) < columns.size()) {
    return Status::OK();
  }
  return Status::NotFound("no column #" + std::to_string(column) +
                          " in table '" + name + "'");
}

StatusOr<int> Catalog::AddTable(Table table) {
  if (IndexOf(table.name) >= 0) {
    return Status::InvalidArgument("duplicate table '" + table.name + "'");
  }
  for (size_t i = 0; i < table.columns.size(); ++i) {
    if (table.ColumnIndex(table.columns[i].name) != static_cast<int>(i)) {
      return Status::InvalidArgument("duplicate column '" +
                                     table.columns[i].name + "' in table '" +
                                     table.name + "'");
    }
  }
  for (const ForeignKey& fk : table.foreign_keys) {
    if (!table.CheckColumn(fk.column).ok()) {
      return Status::InvalidArgument("foreign key outside table '" +
                                     table.name + "'");
    }
  }
  tables_.push_back(std::move(table));
  return static_cast<int>(tables_.size()) - 1;
}

int Catalog::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

double Catalog::TotalBytes() const {
  double total = 0;
  for (const Table& table : tables_) {
    total += table.row_count * table.RowWidth();
  }
  return total;
}

std::string Catalog::ToDdl() const {
  std::string out;
  for (const Table& t : tables_) {
    out += "TABLE " + t.name + " (";
    for (int i = 0; i < static_cast<int>(t.columns.size()); ++i) {
      const Column& c = t.columns[i];
      if (i > 0) out += ",";
      out += "\n  " + c.name + " " + c.type.ToString();
      if (c.nullable) out += " NULL";
      if (i == Table::kKeyColumn) out += " PRIMARY KEY";
    }
    for (const auto& fk : t.foreign_keys) {
      out += ",\n  FOREIGN KEY (" + t.columns[fk.column].name +
             ") REFERENCES " + table(fk.parent).name;
    }
    out += "\n)  -- " + std::to_string(static_cast<int64_t>(t.row_count)) +
           " rows, width " +
           std::to_string(static_cast<int64_t>(std::llround(t.RowWidth()))) +
           "\n";
  }
  return out;
}

}  // namespace legodb::rel
