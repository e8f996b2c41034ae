// Deterministic pseudo-random number generation (xoshiro256**) and the
// one 64-bit hasher (FNV-1a) every seed and content key is derived from.
//
// Every stochastic choice in the library (random ATPG patterns, random
// seeds sigma, GA mutations) flows from an explicitly seeded Rng so that
// experiments are exactly reproducible run-to-run and machine-to-machine.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace fbist::util {

/// xoshiro256** generator.  Not thread-safe; use one stream per thread.
class Rng {
 public:
  /// Seeds from a 64-bit value via splitmix64 expansion.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  std::uint64_t next_u64();
  /// Uniform in [0, bound).  bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);
  /// Uniform double in [0, 1).
  double next_double();
  /// Bernoulli(p).
  bool next_bool(double p = 0.5);

 private:
  std::uint64_t s_[4];
};

/// splitmix64 step — also useful as a cheap string/int mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// FNV-1a 64-bit accumulator.
class Fnv1a {
 public:
  /// The standard offset basis.  util::hash_string uses it, and through
  /// it every per-circuit ATPG and sigma seed.
  static constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
  /// The standard basis's decimal spelling, 14695981039346656037, with
  /// its last digit dropped (0x14650fb0739d0383).  Matrix-cache keys,
  /// campaign spec hashes and failpoint firing decisions were defined
  /// with it, and changing it would rename every on-disk .dmx blob,
  /// orphan every checkpoint directory and reshuffle every chaos run —
  /// so both bases stay, and each caller names the one it uses.
  static constexpr std::uint64_t kShortBasis = 1469598103934665603ull;

  explicit Fnv1a(std::uint64_t basis) : h_(basis) {}

  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  void bytes(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  /// Little-endian, 8 bytes.
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  /// Length-framed, so moving a byte between adjacent variable-length
  /// fields changes the hash.
  void str(std::string_view s) {
    u64(s.size());
    bytes(s);
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_;
};

/// FNV-1a 64-bit hash of a string (standard basis).
std::uint64_t hash_string(const std::string& s);

}  // namespace fbist::util
