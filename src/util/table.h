// Plain-text table rendering for the benchmark harnesses.
//
// Every bench binary regenerates one of the paper's tables/figures; this
// helper keeps their output format uniform and machine-greppable.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace fbist::util {

/// Column-aligned text table with an optional title, rendered to a
/// stream.
class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  /// Sets the header row; call before adding rows.
  void set_header(std::vector<std::string> header);

  /// Appends a data row.  Short rows are padded with empty cells.
  void add_row(std::vector<std::string> row);

  const std::vector<std::string>& row(std::size_t i) const { return rows_.at(i); }
  const std::vector<std::string>& header() const { return header_; }

  /// Renders as an aligned text table.
  void print(std::ostream& os) const;

  /// Formats a double with `prec` fraction digits.
  static std::string fmt(double v, int prec = 2);
  static std::string fmt(std::size_t v);
  static std::string fmt(long long v);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace fbist::util
