#include "atpg/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "circuits/generator.h"
#include "circuits/registry.h"

namespace fbist::atpg {
namespace {

TEST(AtpgEngine, FullCoverageOnC17) {
  const auto nl = circuits::make_c17();
  const auto fl = fault::FaultList::full(nl);
  const AtpgResult r = run_atpg(nl, fl);
  EXPECT_EQ(r.redundant_faults, 0u);  // c17 is fully testable
  EXPECT_DOUBLE_EQ(r.testable_coverage_percent(), 100.0);
  EXPECT_GT(r.patterns.size(), 0u);
}

TEST(AtpgEngine, PatternsActuallyCoverClaimedFaults) {
  const auto nl = circuits::make_c17();
  const auto fl = fault::FaultList::full(nl);
  const AtpgResult r = run_atpg(nl, fl);
  sim::FaultSim fsim(nl, fl);
  const sim::FaultSimResult check = fsim.run(r.patterns);
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    if (r.verdict[fid] == FaultVerdict::kDetected) {
      EXPECT_TRUE(check.detected.get(fid)) << fault_name(nl, fl[fid]);
    }
  }
}

TEST(AtpgEngine, CompactionPreservesCoverage) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 100;
  spec.seed = 17;
  const auto nl = circuits::generate(spec);
  const auto fl = fault::FaultList::collapsed(nl);

  const AtpgResult a = run_atpg(nl, fl);

  // Compaction only drops patterns from the uncompacted pool, which
  // holds the kept random patterns plus the deterministic ones.
  EXPECT_LE(a.patterns.size(),
            a.random_patterns_used + a.deterministic_patterns);

  sim::FaultSim fsim(nl, fl);
  const auto check = fsim.run(a.patterns);
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    if (a.verdict[fid] == FaultVerdict::kDetected) {
      EXPECT_TRUE(check.detected.get(fid));
    }
  }
}

TEST(AtpgEngine, DeterministicForSameSeed) {
  const auto nl = circuits::make_circuit("c432");
  const auto fl = fault::FaultList::collapsed(nl);
  AtpgOptions opts;
  opts.seed = 5;
  const AtpgResult a = run_atpg(nl, fl, opts);
  const AtpgResult b = run_atpg(nl, fl, opts);
  EXPECT_EQ(a.patterns.size(), b.patterns.size());
  EXPECT_EQ(a.verdict, b.verdict);
  for (std::size_t p = 0; p < a.patterns.size(); ++p) {
    EXPECT_EQ(a.patterns.pattern(p), b.patterns.pattern(p));
  }
}

TEST(AtpgEngine, HighCoverageOnRegistryCircuit) {
  const auto nl = circuits::make_circuit("s820");
  const auto fl = fault::FaultList::collapsed(nl);
  const AtpgResult r = run_atpg(nl, fl);
  EXPECT_GT(r.testable_coverage_percent(), 95.0);
  // A compacted deterministic set should be far smaller than the fault
  // count.
  EXPECT_LT(r.patterns.size(), fl.size());
}

// FNV-1a over every pattern's bits (input 0 first), one separator per
// pattern, so reordering, resizing or flipping any bit changes it.
std::uint64_t pattern_fingerprint(const sim::PatternSet& ps) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (std::size_t p = 0; p < ps.size(); ++p) {
    for (const char c : ps.pattern_string(p)) mix(static_cast<unsigned char>(c));
    mix('|');
  }
  return h;
}

// Pins run_atpg's output on registry circuits, so a refactor of the
// engine or the fault simulator cannot drift patterns, verdict tallies
// or the X-fill RNG draw order unnoticed.  A deliberate policy change
// refreshes these values and says so in its changelog.  The c880 run
// at backtrack_limit 4 forces more SAT escalation through its drop path.
TEST(AtpgEngine, GoldenFingerprint) {
  // One atpg_many-shaped circuit: ~400 gates at logic depth 8.
  circuits::GeneratorSpec deep;
  deep.num_inputs = 36;
  deep.num_outputs = 18;
  deep.num_gates = 400;
  deep.layers = 8;
  deep.xor_share = 0.22;
  deep.wide_gate_share = 0.06;
  deep.seed = 8;
  struct Golden {
    const char* circuit;  // registry name, or "deep8" for `deep`
    std::size_t backtrack_limit;  // 0 = default PodemOptions
    std::size_t patterns, random, deterministic;
    std::size_t redundant, sat_detected, sat_redundant;
    std::uint64_t fingerprint;
  };
  const Golden goldens[] = {
      {"c17", 0, 6, 6, 0, 0, 0, 0, 9647798959854458122ull},
      {"c432", 0, 25, 30, 3, 25, 0, 23, 10015249281273688735ull},
      {"c880", 0, 36, 65, 17, 87, 7, 63, 17841512216515266964ull},
      {"c880", 4, 40, 65, 18, 87, 17, 74, 9341020332839906239ull},
      {"deep8", 0, 52, 66, 21, 52, 1, 16, 2676892301493295677ull},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(std::string(g.circuit) + " backtrack_limit=" +
                 std::to_string(g.backtrack_limit));
    const netlist::Netlist nl = std::string(g.circuit) == "deep8"
                                    ? circuits::generate(deep)
                                    : circuits::make_circuit(g.circuit);
    const auto fl = fault::FaultList::collapsed(nl);
    AtpgOptions opts;
    if (g.backtrack_limit != 0) opts.podem.backtrack_limit = g.backtrack_limit;
    const AtpgResult r = run_atpg(nl, fl, opts);
    EXPECT_EQ(r.patterns.size(), g.patterns);
    EXPECT_EQ(r.random_patterns_used, g.random);
    EXPECT_EQ(r.deterministic_patterns, g.deterministic);
    EXPECT_EQ(r.redundant_faults, g.redundant);
    EXPECT_EQ(r.sat_detected_faults, g.sat_detected);
    EXPECT_EQ(r.sat_redundant_faults, g.sat_redundant);
    EXPECT_EQ(pattern_fingerprint(r.patterns), g.fingerprint);
  }
}

TEST(AtpgEngine, ReportsPhaseStatistics) {
  const auto nl = circuits::make_circuit("c432");
  const auto fl = fault::FaultList::collapsed(nl);
  const AtpgResult r = run_atpg(nl, fl);
  EXPECT_GT(r.random_patterns_used + r.deterministic_patterns, 0u);
}

}  // namespace
}  // namespace fbist::atpg
