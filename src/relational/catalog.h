#ifndef LEGODB_RELATIONAL_CATALOG_H_
#define LEGODB_RELATIONAL_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace legodb::rel {

// SQL column types produced by the fixed mapping (Table 1 of the paper).
struct SqlType {
  enum class Kind { kInt, kChar, kVarchar };

  static SqlType Int() { return SqlType{Kind::kInt, 4}; }
  static SqlType Char(double size) { return SqlType{Kind::kChar, size}; }
  static SqlType Varchar(double avg_size) {
    return SqlType{Kind::kVarchar, avg_size};
  }

  std::string ToString() const;

  Kind kind = Kind::kInt;
  // Storage width in bytes (average width for varchar).
  double width = 4;

  bool operator==(const SqlType&) const = default;
};

// Per-column statistics used by the optimizer's cardinality estimation.
struct Column {
  std::string name;
  SqlType type;
  bool nullable = false;
  // Fraction of rows where the column is NULL.
  double null_fraction = 0;
  // Number of distinct non-null values (>= 1 when the table is non-empty).
  double distincts = 1;
  // Value range, meaningful for integer columns.
  int64_t min = 0;
  int64_t max = 0;
};

// A foreign key column referencing the key of a parent table.
struct ForeignKey {
  int column = -1;  // its position in the child table
  int parent = -1;  // the parent table's index in the catalog
};

// Queries, plans, foreign keys and stored tables name a column by its
// position in `columns`, as the mapper lays it out: the key, the type's
// slots, one foreign key per parent. Names are for display, SQL and DDL.
struct Table {
  static constexpr int kKeyColumn = 0;  // the primary key, "<name>_id"

  std::string name;
  std::vector<Column> columns;  // includes key and FK columns
  std::vector<ForeignKey> foreign_keys;
  double row_count = 0;

  // Sum of column widths (plus a fixed per-row overhead).
  double RowWidth() const;

  // The column named `name`, or -1: a linear scan, for names from outside.
  int ColumnIndex(const std::string& name) const;
  // OK when `column` is a position in this table; otherwise NotFound
  // naming the table and the position.
  Status CheckColumn(int column) const;

  static constexpr double kRowOverheadBytes = 8;
};

// The relational configuration rel(ps): schema plus statistics, i.e. the
// "relational catalog" box of Figure 7. A table's index is its position in
// tables(), the order the mapper added it in; queries, foreign keys and
// databases name tables by it. Names remain for display, SQL and DDL.
class Catalog {
 public:
  Catalog() = default;

  // Appends `table` and returns its index. Rejects a duplicate table name,
  // a table with two columns of one name and a foreign key outside the
  // table's columns with InvalidArgument (reachable from ingestion via the
  // mapper, so recoverable).
  StatusOr<int> AddTable(Table table);

  const std::vector<Table>& tables() const { return tables_; }
  // Aborts (LEGODB_CHECK, all build modes) outside [0, size()): callers
  // holding an index from outside the catalog range-check it first.
  const Table& table(int index) const {
    LEGODB_CHECK(index >= 0 && static_cast<size_t>(index) < tables_.size(),
                 "Catalog::table: index outside the catalog");
    return tables_[index];
  }
  size_t size() const { return tables_.size(); }
  // The table named `name`, or -1: a linear scan, for names from outside.
  int IndexOf(const std::string& name) const;

  // Total data size in bytes across all tables.
  double TotalBytes() const;

  // CREATE TABLE statements for the whole configuration.
  std::string ToDdl() const;

 private:
  std::vector<Table> tables_;
};

}  // namespace legodb::rel

#endif  // LEGODB_RELATIONAL_CATALOG_H_
