// Seeded mutation test over the text decoders: fbist-rom, fbist-dmx,
// fbist-ckpt, scp, .bench netlists, the campaign spec and the
// FBIST_FAILPOINTS grammar.
//
// A deterministic mutator (no libFuzzer: the toolchain is g++ only)
// derives a few hundred mutants from one valid blob per format — byte
// flips, truncation, a digit replaced by '-', 20-digit numbers, and
// duplicated or dropped lines.  Every mutant must either parse or throw
// a std::runtime_error whose message starts with the format's name;
// anything else (another exception type, a crash, a sanitizer report,
// an allocation sized from a corrupt count) fails the suite.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/spec.h"
#include "cover/instance_io.h"
#include "netlist/bench_io.h"
#include "reseed/serialize.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace fbist {
namespace {

constexpr int kMutantsPerFormat = 400;

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) {
      lines.push_back(text.substr(begin));
      break;
    }
    lines.push_back(text.substr(begin, end - begin + 1));
    begin = end + 1;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l;
  return out;
}

/// Positions of every ASCII digit in `s`.
std::vector<std::size_t> digits_of(const std::string& s) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] >= '0' && s[i] <= '9') at.push_back(i);
  }
  return at;
}

/// One edit, chosen and placed by `rng`.
void mutate_once(std::string& s, util::Rng& rng) {
  if (s.empty()) return;
  switch (rng.next_below(6)) {
    case 0: {  // byte flip
      s[rng.next_below(s.size())] = static_cast<char>(rng.next_below(256));
      break;
    }
    case 1: {  // truncation
      s.resize(rng.next_below(s.size()));
      break;
    }
    case 2: {  // a digit replaced by '-'
      const auto at = digits_of(s);
      if (!at.empty()) s[at[rng.next_below(at.size())]] = '-';
      break;
    }
    case 3: {  // a number replaced by a 20-digit one
      const auto at = digits_of(s);
      if (at.empty()) break;
      std::size_t begin = at[rng.next_below(at.size())];
      std::size_t end = begin;
      while (begin > 0 && s[begin - 1] >= '0' && s[begin - 1] <= '9') --begin;
      while (end < s.size() && s[end] >= '0' && s[end] <= '9') ++end;
      // Half the time straddle 2^64: the largest value that fits, or the
      // smallest that does not.
      std::string big;
      switch (rng.next_below(4)) {
        case 0: big = "18446744073709551615"; break;
        case 1: big = "18446744073709551616"; break;
        default:
          big = std::to_string(1 + rng.next_below(9));
          while (big.size() < 20) big += std::to_string(rng.next_below(10));
      }
      s.replace(begin, end - begin, big);
      break;
    }
    case 4: {  // a line duplicated
      auto lines = split_lines(s);
      const std::size_t i = rng.next_below(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      s = join(lines);
      break;
    }
    default: {  // a line dropped
      auto lines = split_lines(s);
      lines.erase(lines.begin() +
                  static_cast<std::ptrdiff_t>(rng.next_below(lines.size())));
      s = join(lines);
      break;
    }
  }
}

/// Runs `decode` over kMutantsPerFormat mutants of `blob` (one to three
/// edits each) and returns how many parsed.
int fuzz(const std::string& name, const std::string& blob,
         const std::function<void(const std::string&)>& decode,
         std::uint64_t seed) {
  decode(blob);  // the seed blob itself is valid
  util::Rng rng(seed);
  int parsed = 0;
  for (int m = 0; m < kMutantsPerFormat; ++m) {
    std::string mutant = blob;
    const std::uint64_t edits = 1 + rng.next_below(3);
    for (std::uint64_t e = 0; e < edits; ++e) mutate_once(mutant, rng);
    try {
      decode(mutant);
      ++parsed;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(name, 0), 0u)
          << "mutant " << m << " error does not name '" << name
          << "': " << e.what() << "\n--- mutant ---\n" << mutant;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " threw a non-runtime_error: "
                    << e.what() << "\n--- mutant ---\n" << mutant;
    }
  }
  return parsed;
}

reseed::RomImage sample_rom() {
  util::Rng rng(11);
  reseed::RomImage rom;
  rom.circuit = "c432";
  rom.tpg_name = "adder";
  rom.width = 36;
  for (std::size_t i = 0; i < 4; ++i) {
    tpg::Triplet t;
    t.delta = util::WideWord::random(rom.width, rng);
    t.sigma = util::WideWord::random(rom.width, rng);
    t.cycles = 3 + 7 * i;
    rom.triplets.push_back(std::move(t));
  }
  return rom;
}

cover::DetectionMatrix sample_matrix(bool with_earliest) {
  util::Rng rng(13);
  const std::size_t rows = 5, cols = 70;
  cover::DetectionMatrix m(rows, cols);
  std::vector<std::vector<std::uint32_t>> earliest(
      rows, std::vector<std::uint32_t>(cols, UINT32_MAX));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.next_below(4) == 0) {
        m.set(r, c);
        earliest[r][c] = static_cast<std::uint32_t>(rng.next_below(300));
      }
    }
  }
  if (with_earliest) m.attach_earliest(std::move(earliest));
  return m;
}

// Each format parses some mutants (the edits are not all fatal) and
// rejects the rest by name.
TEST(DecoderMutation, RomMutantsParseOrFailByName) {
  const int parsed =
      fuzz("rom", reseed::rom_to_string(sample_rom()),
           [](const std::string& t) { reseed::rom_from_string(t); }, 1);
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutantsPerFormat);
}

TEST(DecoderMutation, DmxMutantsParseOrFailByName) {
  for (const bool with_earliest : {false, true}) {
    const int parsed = fuzz(
        "dmx", reseed::matrix_to_string(sample_matrix(with_earliest)),
        [](const std::string& t) { reseed::matrix_from_string(t); },
        2 + with_earliest);
    EXPECT_GT(parsed, 0);
    EXPECT_LT(parsed, kMutantsPerFormat);
  }
}

TEST(DecoderMutation, CheckpointMutantsParseOrFailByName) {
  campaign::CheckpointRecord ok;
  ok.spec = 0x0123456789abcdefull;
  ok.position = 3;
  ok.total_runs = 12;
  ok.result.spec = {"dir/c 432.bench", tpg::TpgKind::kLfsr, 32,
                    reseed::SolverChoice::kGreedy};
  ok.result.ok = true;
  ok.result.circuit_inputs = 36;
  ok.result.faults_targeted = 520;
  ok.result.num_triplets = 7;
  ok.result.test_length = 224;
  ok.result.faults_covered = 516;
  ok.result.rom_bits = 672;
  ok.result.wall_ms = 12.5;
  campaign::CheckpointRecord failed = ok;
  failed.result.ok = false;
  failed.result.error = "run timeout: exceeded 5 ms # 7";
  for (const auto* rec : {&ok, &failed}) {
    const int parsed = fuzz(
        "ckpt", campaign::checkpoint_to_string(*rec),
        [](const std::string& t) { campaign::checkpoint_from_string(t); },
        4 + rec->result.ok);
    EXPECT_GT(parsed, 0);
    EXPECT_LT(parsed, kMutantsPerFormat);
  }
}

TEST(DecoderMutation, ScpMutantsParseOrFailByName) {
  const int parsed =
      fuzz("scp", cover::instance_to_string(sample_matrix(false)),
           [](const std::string& t) { cover::instance_from_string(t); }, 6);
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutantsPerFormat);
}

TEST(DecoderMutation, BenchMutantsParseOrFailByName) {
  // Scan flip-flops, a three-input gate and a unary gate, declared out
  // of order, so mutants reach every resolution path.
  const std::string bench =
      "# sample\n"
      "INPUT(a)\n"
      "INPUT(b)\n"
      "INPUT(c)\n"
      "OUTPUT(y)\n"
      "OUTPUT(z)\n"
      "y = AND(g2, g3)\n"
      "g1 = NAND(a, b)\n"
      "g2 = XOR(g1, q0)\n"
      "g3 = NOR(g2, c, q1)\n"
      "q0 = DFF(g2)\n"
      "q1 = DFF(g3)\n"
      "z = NOT(g1)\n";
  const int parsed = fuzz(
      ".bench", bench,
      [](const std::string& t) { netlist::parse_bench_string(t); }, 9);
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutantsPerFormat);
}

TEST(DecoderMutation, SpecMutantsParseOrFailByName) {
  const std::string spec =
      "# sweep\n"
      "circuits c17 c432 path/to/x.bench\n"
      "tpgs adder lfsr  # two kinds\n"
      "cycles 8 32 1024\n"
      "solvers exact greedy\n";
  const int parsed = fuzz(
      "campaign spec", spec,
      [](const std::string& t) { campaign::parse_spec_string(t); }, 7);
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutantsPerFormat);
}

TEST(DecoderMutation, FailpointSpecMutantsParseOrFailByName) {
  const std::string spec =
      "builder.pack=delay(1,64);cache.disk_read=err(0.4,11);"
      "checkpoint.write=perm(1,14,2);spec.read=enospc(0.5);trace.write=off";
  const int parsed = fuzz(
      "FBIST_FAILPOINTS", spec,
      [](const std::string& t) { util::failpoint::configure(t); }, 8);
  util::failpoint::clear();
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutantsPerFormat);
}

}  // namespace
}  // namespace fbist
