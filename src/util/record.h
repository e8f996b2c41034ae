// Line-oriented text records: the one reader behind every durable text
// format (fbist-rom, fbist-dmx, fbist-ckpt and the scp covering
// instance), plus the strict number and 16-hex-digit codecs that the
// campaign spec, the CLI, cache keys and spec hashes share.
//
// A record is one line: a key token, then whitespace-separated fields.
// Blank lines and lines whose first character is '#' are skipped.  There
// are no inline comments: rest-of-line fields (a checkpoint's circuit
// path and error message) may contain '#'.  Every decode error is a
// std::runtime_error "<fmt> line N: <what>", or "<fmt>: <what>" for a
// check on the whole input, so the message always names the format.
// A declared count passes check_lines() against the bytes left in the
// input before anything is allocated from it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace fbist::util {

/// Strict unsigned decimal: one or more ASCII digits and nothing else (no
/// sign, no space, no trailing junk), at most 2^64 - 1.
bool parse_u64(std::string_view tok, std::uint64_t* out);

/// The 16-lowercase-hex-digit form of cache keys, spec hashes and
/// fbist-dmx row words, and its exact inverse.
std::string hex64(std::uint64_t v);
bool parse_hex64(std::string_view tok, std::uint64_t* out);

/// Cursor over the records of one text blob.  `text` must outlive it.
class RecordReader {
 public:
  /// `fmt` names the format in every error message ("rom", "dmx", ...).
  RecordReader(std::string_view text, const char* fmt)
      : text_(text), fmt_(fmt) {}

  /// Advances to the next record; false at end of input.
  bool next();
  /// Reads the first record as a "<magic> <version>" header.  A foreign
  /// file and a stale version fail differently; the latter names both
  /// versions.
  void header(const char* magic, const char* version);

  /// The current record's first token.
  std::string_view key() const { return key_; }
  /// Next field as a strict unsigned decimal / exactly 16 hex digits /
  /// any whitespace-delimited token.
  std::uint64_t count(const char* what);
  std::uint64_t hex64(const char* what);
  std::string_view token(const char* what);
  /// Everything after the key and one separator, verbatim (may be empty,
  /// may contain spaces or '#'); consumes the record.
  std::string rest();
  /// True while the current record has fields left.
  bool more();
  /// Fails when the current record has fields left over.
  void end();

  /// Fails unless the input after the current record can hold `n` more
  /// lines of at least `line_bytes` (>= 1) bytes each, newline included.
  void check_lines(std::uint64_t n, std::uint64_t line_bytes,
                   const char* what) const;

  /// Throws "<fmt> line N: msg" / "<fmt>: msg".
  [[noreturn]] void fail(const std::string& msg) const;
  [[noreturn]] void fail_input(const std::string& msg) const;

 private:
  [[noreturn]] void bad(const char* what, std::string_view tok) const;

  std::string_view text_;
  const char* fmt_;
  std::size_t next_line_ = 0;  // offset of the line after the current one
  std::size_t line_no_ = 0;
  std::string_view line_;      // the current record
  std::size_t cursor_ = 0;     // parse position in line_
  std::string_view key_;
};

}  // namespace fbist::util
