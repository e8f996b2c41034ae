// Golden pins for every durable text format and every content hash.
//
// Each blob below was produced by the writers as they stood before the
// formats shared one record codec (util/record.h); reading it and
// writing it back must reproduce it byte for byte.  The hash values pin
// the two FNV-1a offset bases and the splitmix64 finaliser: any drift
// renames on-disk cache blobs, invalidates checkpoint directories,
// reseeds ATPG, or reshuffles failpoint firing sequences.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/spec.h"
#include "circuits/registry.h"
#include "cover/instance_io.h"
#include "fault/fault.h"
#include "netlist/compiled.h"
#include "reseed/matrix_cache.h"
#include "reseed/serialize.h"
#include "tpg/tpg.h"
#include "util/failpoint.h"
#include "util/record.h"
#include "util/rng.h"

namespace fbist {
namespace {

const char kRom[] =
    "fbist-rom v1\n"
    "circuit c17\n"
    "tpg adder\n"
    "width 5\n"
    "# 2 triplets, 40 patterns, 84 ROM bits\n"
    "triplet 13 05 32\n"
    "triplet 1f 00 8\n";

const char kDmxBits[] =
    "fbist-dmx v1\n"
    "dims 3 70\n"
    "has-earliest 0\n"
    "row 0 8000000000000001 0000000000000020\n"
    "row 1 0000000000000000 0000000000000000\n"
    "row 2 ffffffffffffffff 000000000000003f\n";

const char kDmxEarliest[] =
    "fbist-dmx v1\n"
    "dims 2 3\n"
    "has-earliest 1\n"
    "row 0 0000000000000005\n"
    "row 1 0000000000000002\n"
    "edet 0 2 0 7 2 0\n"
    "edet 1 1 1 4294967294\n";

const char kCkptOk[] =
    "fbist-ckpt v2\n"
    "spec 0123456789abcdef\n"
    "run 3 12\n"
    "circuit c432\n"
    "tpg adder\n"
    "cycles 32\n"
    "solver exact\n"
    "ok 1\n"
    "counts 36 160 50 520 4 0 7 224 516 0 3 4 1 672\n"
    "wall_ms 12.345678\n";

const char kCkptFailed[] =
    "fbist-ckpt v2\n"
    "spec fedcba9876543210\n"
    "run 0 1\n"
    "circuit dir with space/x#1.bench\n"
    "tpg lfsr\n"
    "cycles 4\n"
    "solver greedy\n"
    "ok 0\n"
    "error run timeout: exceeded 5 ms # not a comment\n"
    "wall_ms 0.000000\n";

const char kScp[] =
    "scp 3 5\n"
    "row 0 4\n"
    "row\n"
    "row 1 2 3 4\n";

const char kSpec[] =
    "circuits c17 c432\n"
    "tpgs adder lfsr\n"
    "cycles 8 32\n"
    "solvers exact greedy\n";

/// The spec format has no writer; this renders a parsed spec in the
/// canonical one-line-per-key form kSpec is written in.
std::string render_spec(const campaign::CampaignSpec& spec) {
  std::ostringstream out;
  out << "circuits";
  for (const auto& c : spec.circuits) out << ' ' << c;
  out << "\ntpgs";
  for (const auto k : spec.tpgs) out << ' ' << tpg::tpg_kind_name(k);
  out << "\ncycles";
  for (const auto t : spec.cycle_values) out << ' ' << t;
  out << "\nsolvers";
  for (const auto s : spec.solvers) out << ' ' << campaign::solver_name(s);
  out << "\n";
  return out.str();
}

TEST(FormatGolden, RomReadsAndWritesBackByteIdentical) {
  const reseed::RomImage rom = reseed::rom_from_string(kRom);
  EXPECT_EQ(rom.circuit, "c17");
  EXPECT_EQ(rom.width, 5u);
  ASSERT_EQ(rom.triplets.size(), 2u);
  EXPECT_EQ(rom.triplets[1].cycles, 8u);
  EXPECT_EQ(reseed::rom_to_string(rom), kRom);
}

TEST(FormatGolden, DmxReadsAndWritesBackByteIdentical) {
  for (const char* blob : {kDmxBits, kDmxEarliest}) {
    SCOPED_TRACE(blob);
    EXPECT_EQ(reseed::matrix_to_string(reseed::matrix_from_string(blob)),
              blob);
  }
  const cover::DetectionMatrix m = reseed::matrix_from_string(kDmxEarliest);
  EXPECT_EQ(m.earliest(1, 1), 4294967294u);
  EXPECT_EQ(m.earliest(1, 0), UINT32_MAX);
}

TEST(FormatGolden, CheckpointReadsAndWritesBackByteIdentical) {
  for (const char* blob : {kCkptOk, kCkptFailed}) {
    SCOPED_TRACE(blob);
    EXPECT_EQ(campaign::checkpoint_to_string(
                  campaign::checkpoint_from_string(blob)),
              blob);
  }
  const campaign::CheckpointRecord failed =
      campaign::checkpoint_from_string(kCkptFailed);
  EXPECT_EQ(failed.result.spec.circuit, "dir with space/x#1.bench");
  EXPECT_EQ(failed.result.error, "run timeout: exceeded 5 ms # not a comment");
}

TEST(FormatGolden, ScpReadsAndWritesBackByteIdentical) {
  EXPECT_EQ(cover::instance_to_string(cover::instance_from_string(kScp)), kScp);
}

TEST(FormatGolden, SpecReadsBackToItsCanonicalText) {
  EXPECT_EQ(render_spec(campaign::parse_spec_string(kSpec)), kSpec);
}

TEST(FormatGolden, MatrixCacheKeyIsPinned) {
  const netlist::Netlist nl = circuits::make_circuit("c17");
  const netlist::CompiledCircuit cc(nl);
  const fault::FaultList faults = fault::FaultList::collapsed(cc);
  const auto tpg = tpg::make_tpg(tpg::TpgKind::kAdder, nl.num_inputs());
  std::vector<tpg::Triplet> candidates;
  for (const auto& [delta, sigma, cycles] :
       std::vector<std::tuple<const char*, const char*, std::size_t>>{
           {"13", "05", 32}, {"1f", "00", 8}, {"01", "1e", 16}}) {
    tpg::Triplet t;
    t.delta = util::WideWord::from_hex(nl.num_inputs(), delta);
    t.sigma = util::WideWord::from_hex(nl.num_inputs(), sigma);
    t.cycles = cycles;
    candidates.push_back(std::move(t));
  }
  const reseed::MatrixCache::Key k =
      reseed::MatrixCache::key(cc, faults, *tpg, candidates);
  EXPECT_EQ(k, 0xe95570ed87e52d4full);
  EXPECT_EQ(util::hex64(k), "e95570ed87e52d4f");
}

TEST(FormatGolden, SpecHashIsPinned) {
  const std::uint64_t h =
      campaign::spec_hash(campaign::parse_spec_string(kSpec));
  EXPECT_EQ(h, 0x955c1faa4f9ef76bull);
  EXPECT_EQ(util::hex64(h), "955c1faa4f9ef76b");
}

TEST(FormatGolden, HashStringIsPinned) {
  EXPECT_EQ(util::hash_string("c432"), 0x6eadc791e24dcd73ull);
}

TEST(FormatGolden, FailpointFiringSequenceIsPinned) {
  util::failpoint::configure("spec.read=err(0.5,1234)");
  std::uint64_t fired = 0;
  for (int i = 0; i < 64; ++i) {
    try {
      util::failpoint::eval("spec.read");
    } catch (const util::failpoint::InjectedError&) {
      fired |= std::uint64_t{1} << i;
    }
  }
  util::failpoint::clear();
  EXPECT_EQ(fired, 0xc703d5a399cde259ull);
}

}  // namespace
}  // namespace fbist
