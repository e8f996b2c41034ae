#include "cover/instance_io.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/record.h"

namespace fbist::cover {

std::string instance_to_string(const DetectionMatrix& m) {
  std::ostringstream out;
  out << "scp " << m.num_rows() << " " << m.num_cols() << "\n";
  for (std::size_t r = 0; r < m.num_rows(); ++r) {
    out << "row";
    m.row(r).for_each_set([&](std::size_t c) { out << ' ' << c; });
    out << "\n";
  }
  return out.str();
}

DetectionMatrix instance_from_string(const std::string& text) {
  util::RecordReader in(text, "scp");
  if (!in.next()) in.fail_input("empty input");
  if (in.key() != "scp") in.fail("expected 'scp <rows> <cols>' header");
  const std::uint64_t rows = in.count("row count");
  const std::uint64_t cols = in.count("column count");
  in.end();
  in.check_lines(rows, 4, "rows");  // "row\n"
  if (rows != 0 && cols > (std::uint64_t{1} << 32) / rows) {
    in.fail("instance exceeds 2^32 cells");
  }
  DetectionMatrix m(rows, cols);
  std::size_t next_row = 0;
  while (in.next()) {
    if (in.key() != "row") in.fail("expected 'row' record");
    if (next_row >= rows) in.fail("more rows than declared");
    while (in.more()) {
      const std::uint64_t c = in.count("column index");
      if (c >= cols) in.fail("column index out of range");
      m.set(next_row, c);
    }
    ++next_row;
  }
  if (next_row != rows) {
    in.fail_input("declared " + std::to_string(rows) + " rows, found " +
                  std::to_string(next_row));
  }
  return m;
}

void write_instance_file(const DetectionMatrix& m, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << instance_to_string(m);
}

DetectionMatrix read_instance_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << f.rdbuf();
  return instance_from_string(text.str());
}

}  // namespace fbist::cover
