#include "reseed/serialize.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/record.h"

namespace fbist::reseed {

std::size_t RomImage::test_length() const {
  std::size_t n = 0;
  for (const auto& t : triplets) n += t.cycles;
  return n;
}

std::size_t RomImage::rom_bits() const {
  return triplets.size() * (2 * width + 32);
}

bool RomImage::operator==(const RomImage& o) const {
  return circuit == o.circuit && tpg_name == o.tpg_name && width == o.width &&
         triplets == o.triplets;
}

RomImage to_rom_image(const ReseedingSolution& sol, const std::string& circuit,
                      const std::string& tpg_name, std::size_t width) {
  RomImage rom;
  rom.circuit = circuit;
  rom.tpg_name = tpg_name;
  rom.width = width;
  rom.triplets.reserve(sol.selected.size());
  for (const auto& st : sol.selected) rom.triplets.push_back(st.triplet);
  return rom;
}

std::string rom_to_string(const RomImage& rom) {
  std::ostringstream out;
  out << "fbist-rom v1\n";
  out << "circuit " << rom.circuit << "\n";
  out << "tpg " << rom.tpg_name << "\n";
  out << "width " << rom.width << "\n";
  out << "# " << rom.triplets.size() << " triplets, " << rom.test_length()
      << " patterns, " << rom.rom_bits() << " ROM bits\n";
  for (const auto& t : rom.triplets) {
    out << "triplet " << t.delta.to_hex() << " " << t.sigma.to_hex() << " "
        << t.cycles << "\n";
  }
  return out.str();
}

namespace {

/// One triplet register word: exactly ceil(width / 4) hex digits, the
/// form WideWord::to_hex writes, so the allocation is bounded by the
/// line that holds the digits.
util::WideWord read_word(util::RecordReader& in, std::size_t width,
                         const char* what) {
  const std::string_view hex = in.token(what);
  const std::size_t digits = width / 4 + (width % 4 != 0 ? 1 : 0);
  if (hex.size() != digits) {
    in.fail(std::string(what) + " must be " + std::to_string(digits) +
            " hex digits, got '" + std::string(hex) + "'");
  }
  try {
    return util::WideWord::from_hex(width, std::string(hex));
  } catch (const std::invalid_argument& e) {
    in.fail(e.what());
  }
}

}  // namespace

RomImage rom_from_string(const std::string& text) {
  util::RecordReader in(text, "rom");
  in.header("fbist-rom", "v1");
  RomImage rom;
  while (in.next()) {
    const std::string_view key = in.key();
    if (key == "circuit") {
      rom.circuit = in.rest();
    } else if (key == "tpg") {
      rom.tpg_name = std::string(in.token("tpg name"));
    } else if (key == "width") {
      rom.width = in.count("width");
      if (rom.width == 0) in.fail("bad width");
    } else if (key == "triplet") {
      if (rom.width == 0) in.fail("triplet before width");
      tpg::Triplet t;
      t.delta = read_word(in, rom.width, "delta");
      t.sigma = read_word(in, rom.width, "sigma");
      t.cycles = in.count("triplet cycles");
      if (t.cycles == 0) in.fail("bad triplet record: zero cycles");
      rom.triplets.push_back(std::move(t));
    } else {
      in.fail("unknown record '" + std::string(key) + "'");
    }
    in.end();
  }
  if (rom.circuit.empty() || rom.tpg_name.empty() || rom.width == 0) {
    in.fail_input("incomplete header (circuit/tpg/width)");
  }
  return rom;
}

void write_rom_file(const RomImage& rom, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << rom_to_string(rom);
}

RomImage read_rom_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << f.rdbuf();
  return rom_from_string(text.str());
}

std::string matrix_to_string(const cover::DetectionMatrix& m) {
  const std::size_t rows = m.num_rows();
  const std::size_t cols = m.num_cols();
  std::ostringstream out;
  out << "fbist-dmx v1\n";
  out << "dims " << rows << " " << cols << "\n";
  out << "has-earliest " << (m.has_earliest() ? 1 : 0) << "\n";
  for (std::size_t r = 0; r < rows; ++r) {
    out << "row " << r;
    for (const util::BitVector::Word w : m.row(r).words()) {
      out << " " << util::hex64(w);
    }
    out << "\n";
  }
  if (!m.has_earliest()) return out.str();
  // Earliest indices are sparse in practice (only detected pairs carry
  // one), so each row stores its (col, index) pairs, not the full C
  // vector.  Detected bits and earliest entries coincide by
  // construction, but the format does not assume it: pairs round-trip
  // whatever the matrix holds.
  for (std::size_t r = 0; r < rows; ++r) {
    std::size_t k = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      if (m.earliest(r, c) != UINT32_MAX) ++k;
    }
    out << "edet " << r << " " << k;
    for (std::size_t c = 0; c < cols; ++c) {
      const std::uint32_t e = m.earliest(r, c);
      if (e != UINT32_MAX) out << " " << c << " " << e;
    }
    out << "\n";
  }
  return out.str();
}

cover::DetectionMatrix matrix_from_string(const std::string& text) {
  util::RecordReader in(text, "dmx");
  in.header("fbist-dmx", "v1");
  bool dims_seen = false;
  int has_earliest = -1;
  std::size_t rows = 0, cols = 0, row_words = 0;
  cover::DetectionMatrix m;
  std::vector<std::vector<std::uint32_t>> earliest;

  while (in.next()) {
    const std::string_view key = in.key();
    if (key == "dims") {
      if (dims_seen) in.fail("duplicate dims");
      rows = in.count("row count");
      cols = in.count("column count");
      row_words = cols / 64 + (cols % 64 != 0 ? 1 : 0);
      // Every row needs its own line holding "row" and 17 bytes (" "
      // plus 16 digits) per 64 columns.  Clamping the word count to the
      // input size keeps the product from overflowing and still fails
      // any count the text cannot hold.
      const std::uint64_t words =
          std::min<std::uint64_t>(row_words, text.size());
      in.check_lines(rows, 4 + 17 * words, "rows");
      m = cover::DetectionMatrix(rows, cols);
      dims_seen = true;
    } else if (key == "has-earliest") {
      const std::uint64_t flag = in.count("has-earliest flag");
      if (flag > 1) in.fail("bad has-earliest flag");
      if (!dims_seen) in.fail("has-earliest before dims");
      has_earliest = static_cast<int>(flag);
      if (has_earliest == 1 && rows != 0) {
        earliest.assign(rows, std::vector<std::uint32_t>(cols, UINT32_MAX));
      }
    } else if (key == "row") {
      if (!dims_seen) in.fail("row before dims");
      const std::uint64_t r = in.count("row index");
      if (r >= rows) in.fail("bad row index");
      for (std::size_t w = 0; w < row_words; ++w) {
        util::BitVector::Word bits = in.hex64("row word");
        while (bits != 0) {
          const int b = __builtin_ctzll(bits);
          const std::size_t c = w * 64 + static_cast<std::size_t>(b);
          if (c >= cols) in.fail("row bit beyond cols");
          m.set(r, c);
          bits &= bits - 1;
        }
      }
    } else if (key == "edet") {
      if (has_earliest != 1) in.fail("edet record without has-earliest 1");
      const std::uint64_t r = in.count("edet row");
      const std::uint64_t k = in.count("edet pair count");
      if (r >= rows) in.fail("bad edet header");
      for (std::uint64_t i = 0; i < k; ++i) {
        const std::uint64_t c = in.count("edet column");
        const std::uint64_t e = in.count("earliest index");
        if (c >= cols || e > UINT32_MAX) in.fail("bad edet pair");
        earliest[r][c] = static_cast<std::uint32_t>(e);
      }
    } else {
      in.fail("unknown record '" + std::string(key) + "'");
    }
    in.end();
  }
  if (!dims_seen) in.fail_input("missing dims");
  if (has_earliest == -1) in.fail_input("missing has-earliest");
  if (has_earliest == 1) m.attach_earliest(std::move(earliest));
  return m;
}

}  // namespace fbist::reseed
