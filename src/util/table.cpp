#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace fbist::util {

void Table::set_header(std::vector<std::string> header) { header_ = std::move(header); }

void Table::add_row(std::vector<std::string> row) {
  if (row.size() < header_.size()) row.resize(header_.size());
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size(), 0);
  auto widen = [&](const std::vector<std::string>& row) {
    if (row.size() > widths.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string{};
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2) << cell;
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (const auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string Table::fmt(double v, int prec) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(prec) << v;
  return ss.str();
}

std::string Table::fmt(std::size_t v) { return std::to_string(v); }
std::string Table::fmt(long long v) { return std::to_string(v); }

}  // namespace fbist::util
