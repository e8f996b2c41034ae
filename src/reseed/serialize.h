// Persistence of reseeding solutions — the "BIST ROM image".
//
// A reseeding solution is what the BIST controller actually consumes:
// an ordered list of (delta, sigma, T) records plus the TPG
// configuration they target.  This module defines a small line-oriented
// text format so solutions can be computed offline, versioned, diffed
// and loaded back:
//
//   fbist-rom v1
//   circuit s1238
//   tpg adder
//   width 32
//   triplet <delta-hex> <sigma-hex> <cycles>
//   triplet ...
//
// The same layer persists built detection matrices ("fbist-dmx v1"),
// which back the cross-run matrix cache (reseed/matrix_cache.h):
//
//   fbist-dmx v1
//   dims <rows> <cols>
//   has-earliest <0|1>
//   row <r> <16-hex-digit word>...     one line per row, LSB-first words
//   edet <r> <k> <col> <idx> ...       k detected (col, earliest) pairs
//
// Both formats are read by the shared record codec (util/record.h):
// '#' comment lines, space-separated fields, no trailing fields, and a
// versioned header — a blob whose magic matches but whose version does
// not fails with a message naming both versions, so stale on-disk cache
// files fail loudly instead of being misparsed.
#pragma once

#include <string>
#include <vector>

#include "cover/detection_matrix.h"
#include "reseed/optimizer.h"
#include "tpg/triplet.h"

namespace fbist::reseed {

/// Everything needed to replay a reseeding solution on hardware.
struct RomImage {
  std::string circuit;
  std::string tpg_name;   // "adder", "multiplier", ...
  std::size_t width = 0;  // TPG register width in bits
  std::vector<tpg::Triplet> triplets;

  /// Total pattern count (sum of triplet cycles).
  std::size_t test_length() const;
  /// Storage cost in bits: per triplet 2*width (delta, sigma) + 32 (T).
  std::size_t rom_bits() const;

  bool operator==(const RomImage& o) const;
};

/// Builds the ROM image of a computed solution.
RomImage to_rom_image(const ReseedingSolution& sol, const std::string& circuit,
                      const std::string& tpg_name, std::size_t width);

/// Serialization.  Readers throw std::runtime_error with a
/// line-numbered message on malformed input.  The circuit field runs to
/// the end of its line (paths may contain spaces); every triplet word
/// has exactly ceil(width / 4) hex digits.
std::string rom_to_string(const RomImage& rom);
RomImage rom_from_string(const std::string& text);

void write_rom_file(const RomImage& rom, const std::string& path);
RomImage read_rom_file(const std::string& path);

/// Detection-matrix persistence ("fbist-dmx v1").  Round-trips the bits
/// and, when attached, the earliest-detection indices exactly;
/// matrix_from_string throws std::runtime_error with a line-numbered
/// message on malformed input and a version-naming message on a
/// future-version blob.
std::string matrix_to_string(const cover::DetectionMatrix& m);
cover::DetectionMatrix matrix_from_string(const std::string& text);

}  // namespace fbist::reseed
