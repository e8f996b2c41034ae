// Conformance sweep: the full-flow invariants every circuit in the
// registry must satisfy, parameterized over the small/medium set (large
// circuits are exercised by the bench harness, not unit tests).
#include <gtest/gtest.h>

#include "reseed/pipeline.h"
#include "reseed/serialize.h"
#include "tpg/triplet.h"

namespace fbist {
namespace {

class ConformanceTest : public ::testing::TestWithParam<const char*> {
 protected:
  static reseed::Pipeline& pipeline() {
    // One pipeline per circuit per process: ATPG is the expensive part.
    static std::map<std::string, std::unique_ptr<reseed::Pipeline>> cache;
    auto& slot = cache[GetParam()];
    if (!slot) slot = std::make_unique<reseed::Pipeline>(GetParam());
    return *slot;
  }
};

TEST_P(ConformanceTest, AtpgCoversItsTargetList) {
  auto& p = pipeline();
  const auto r = p.fault_sim().run(p.atpg_patterns());
  EXPECT_EQ(r.num_detected(), p.faults().size());
}

TEST_P(ConformanceTest, SolutionFeasibleMinimalAndVerifiable) {
  auto& p = pipeline();
  const auto init = p.build(tpg::TpgKind::kAdder, 32);
  const auto sol = reseed::optimize(init, p.options().optimizer);
  // Feasible + minimal in the paper's sense.
  EXPECT_EQ(sol.faults_covered, sol.faults_targeted);
  EXPECT_TRUE(reseed::solution_is_minimal(init, sol));
  // Triplet accounting consistent.
  EXPECT_EQ(sol.num_triplets(), sol.necessary_count + sol.solver_count);
  // Re-expansion on the TPG reproduces the coverage (end-to-end check).
  const auto tpg = tpg::make_tpg(tpg::TpgKind::kAdder, p.circuit().num_inputs());
  sim::PatternSet all(p.circuit().num_inputs(), 0);
  for (const auto& st : sol.selected) {
    all.append_all(tpg::expand_triplet(*tpg, st.triplet));
  }
  EXPECT_EQ(all.size(), sol.test_length);
  EXPECT_EQ(p.fault_sim().run(all).num_detected(), sol.faults_targeted);
}

TEST_P(ConformanceTest, RomRoundTripIsLossless) {
  auto& p = pipeline();
  const auto sol = p.run({tpg::TpgKind::kSubtracter, 32});
  const auto rom = reseed::to_rom_image(sol, GetParam(), "subtracter",
                                        p.circuit().num_inputs());
  EXPECT_EQ(reseed::rom_from_string(reseed::rom_to_string(rom)), rom);
}

TEST_P(ConformanceTest, SolutionNoLargerThanAtpgTestSet) {
  auto& p = pipeline();
  const auto sol = p.run({tpg::TpgKind::kAdder, 32});
  EXPECT_LE(sol.num_triplets(), p.atpg_patterns().size());
}

INSTANTIATE_TEST_SUITE_P(Registry, ConformanceTest,
                         ::testing::Values("c17", "c432", "c499", "s420",
                                           "s820"));

}  // namespace
}  // namespace fbist
