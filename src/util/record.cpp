#include "util/record.h"

#include <algorithm>
#include <stdexcept>

namespace fbist::util {

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

}  // namespace

bool parse_u64(std::string_view tok, std::uint64_t* out) {
  if (tok.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : tok) {
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (c < '0' || c > '9' || v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

std::string hex64(std::uint64_t v) {
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0; v >>= 4) {
    out[i] = "0123456789abcdef"[v & 0xf];
  }
  return out;
}

bool parse_hex64(std::string_view tok, std::uint64_t* out) {
  if (tok.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : tok) {
    const bool digit = c >= '0' && c <= '9';
    if (!digit && (c < 'a' || c > 'f')) return false;
    v = (v << 4) | static_cast<std::uint64_t>(digit ? c - '0' : c - 'a' + 10);
  }
  *out = v;
  return true;
}

bool RecordReader::next() {
  while (next_line_ < text_.size()) {
    const std::size_t end =
        std::min(text_.find('\n', next_line_), text_.size());
    line_ = text_.substr(next_line_, end - next_line_);
    next_line_ = end + 1;
    ++line_no_;
    cursor_ = 0;
    if (!more() || line_[0] == '#') continue;  // blank or comment
    key_ = token("key");
    return true;
  }
  return false;
}

void RecordReader::header(const char* magic, const char* version) {
  if (!next()) fail_input("empty input");
  const std::string found(more() ? token("version") : "");
  if (key_ != magic) {
    fail(std::string(magic) + ": expected '" + magic + " " + version +
         "' header, found '" + std::string(key_) + "'");
  }
  if (found != version) {
    fail(std::string(magic) + ": unsupported version '" + found +
         "' (this build reads '" + version + "'); rebuild or evict the blob");
  }
  end();
}

bool RecordReader::more() {
  while (cursor_ < line_.size() && is_space(line_[cursor_])) ++cursor_;
  return cursor_ < line_.size();
}

std::string_view RecordReader::token(const char* what) {
  if (!more()) fail(std::string("missing ") + what);
  const std::size_t begin = cursor_;
  while (cursor_ < line_.size() && !is_space(line_[cursor_])) ++cursor_;
  return line_.substr(begin, cursor_ - begin);
}

std::uint64_t RecordReader::count(const char* what) {
  const std::string_view tok = token(what);
  std::uint64_t v = 0;
  if (!parse_u64(tok, &v)) bad(what, tok);
  return v;
}

std::uint64_t RecordReader::hex64(const char* what) {
  const std::string_view tok = token(what);
  std::uint64_t v = 0;
  if (!parse_hex64(tok, &v)) bad(what, tok);
  return v;
}

std::string RecordReader::rest() {
  const std::size_t begin = std::min(cursor_ + 1, line_.size());
  cursor_ = line_.size();
  return std::string(line_.substr(begin));
}

void RecordReader::end() {
  if (!more()) return;
  const std::string extra(token("field"));
  fail("trailing field '" + extra + "' in '" + std::string(key_) + "' record");
}

void RecordReader::check_lines(std::uint64_t n, std::uint64_t line_bytes,
                               const char* what) const {
  // +1: the last line of the input may lack its newline.
  const std::uint64_t left =
      next_line_ < text_.size() ? text_.size() - next_line_ + 1 : 0;
  if (n > left / line_bytes) {
    fail(std::to_string(n) + " " + what + " declared but only " +
         std::to_string(left) + " bytes of input follow");
  }
}

void RecordReader::bad(const char* what, std::string_view tok) const {
  fail(std::string("bad ") + what + " '" + std::string(tok) + "'");
}

void RecordReader::fail(const std::string& msg) const {
  throw std::runtime_error(std::string(fmt_) + " line " +
                           std::to_string(line_no_) + ": " + msg);
}

void RecordReader::fail_input(const std::string& msg) const {
  throw std::runtime_error(std::string(fmt_) + ": " + msg);
}

}  // namespace fbist::util
