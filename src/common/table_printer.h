#ifndef LEGODB_COMMON_TABLE_PRINTER_H_
#define LEGODB_COMMON_TABLE_PRINTER_H_

#include <string>
#include <vector>

namespace legodb {

// Renders aligned ASCII tables for benchmark-harness output, e.g.
//
//   | query | map1 | map2 |
//   |-------|------|------|
//   | Q1    | 1.00 | 0.83 |
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);
  // Formats a row of doubles with the given precision.
  void AddRow(const std::string& label, const std::vector<double>& values,
              int precision = 2);

  std::string ToString() const;
  // Prints to stdout.
  void Print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> body_;
};

// Formats a double with fixed precision.
std::string FormatDouble(double v, int precision = 2);

}  // namespace legodb

#endif  // LEGODB_COMMON_TABLE_PRINTER_H_
