#include "common/table_printer.h"

#include <cstdio>
#include <sstream>

namespace legodb {

std::string FormatDouble(double v, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  row.resize(header_.size());
  body_.push_back(std::move(row));
}

void TablePrinter::AddRow(const std::string& label,
                          const std::vector<double>& values, int precision) {
  std::vector<std::string> row;
  row.reserve(values.size() + 1);
  row.push_back(label);
  for (double v : values) row.push_back(FormatDouble(v, precision));
  AddRow(std::move(row));
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(header_.size());
  for (size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : body_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      line += " " + cell + std::string(widths[i] - cell.size(), ' ') + " |";
    }
    return line + "\n";
  };
  std::string out = render_row(header_);
  std::string sep = "|";
  for (size_t w : widths) sep += std::string(w + 2, '-') + "|";
  out += sep + "\n";
  for (const auto& row : body_) out += render_row(row);
  return out;
}

void TablePrinter::Print() const { std::fputs(ToString().c_str(), stdout); }

}  // namespace legodb
