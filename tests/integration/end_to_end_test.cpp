#include <gtest/gtest.h>

#include "baseline/gatsby.h"
#include "reseed/pipeline.h"
#include "reseed/tradeoff.h"
#include "tpg/triplet.h"

namespace fbist {
namespace {

// Full flow on a medium circuit: the selected triplets, expanded on the
// real TPG and fault-simulated on the real circuit, must detect every
// targeted fault.  This closes the loop across netlist, fault model,
// simulator, ATPG, TPG, covering and optimizer.
TEST(EndToEnd, TrimmedSolutionDetectsAllTargetFaultsOnHardware) {
  const reseed::Pipeline p("s420");
  const auto tpg = tpg::make_tpg(tpg::TpgKind::kAdder, p.circuit().num_inputs());
  const reseed::ReseedingSolution sol = p.run({tpg::TpgKind::kAdder, 32});

  sim::PatternSet all(p.circuit().num_inputs(), 0);
  for (const auto& st : sol.selected) {
    all.append_all(tpg::expand_triplet(*tpg, st.triplet));
  }
  EXPECT_EQ(all.size(), sol.test_length);

  const sim::FaultSimResult r = p.fault_sim().run(all);
  EXPECT_EQ(r.num_detected(), sol.faults_targeted);
}

// The cardinality claim of the paper: the set-covering solution uses at
// most as many triplets as the number of ATPG patterns, and usually far
// fewer.
TEST(EndToEnd, SolutionSmallerThanInitialReseeding) {
  const reseed::Pipeline p("c432");
  const auto init = p.build(tpg::TpgKind::kAdder, 64);
  const auto sol = reseed::optimize(init, p.options().optimizer);
  EXPECT_LT(sol.num_triplets(), init.triplets.size());
}

// Determinism across the whole pipeline: identical runs give identical
// tables.
TEST(EndToEnd, FullPipelineDeterministic) {
  const reseed::Pipeline a("s420");
  const reseed::Pipeline b("s420");
  const auto sa = a.run({tpg::TpgKind::kMultiplier, 32});
  const auto sb = b.run({tpg::TpgKind::kMultiplier, 32});
  EXPECT_EQ(sa.num_triplets(), sb.num_triplets());
  EXPECT_EQ(sa.test_length, sb.test_length);
  for (std::size_t i = 0; i < sa.selected.size(); ++i) {
    EXPECT_EQ(sa.selected[i].triplet_index, sb.selected[i].triplet_index);
  }
}

// All three accumulator TPGs complete the flow on the same circuit.
class TpgSweepTest : public ::testing::TestWithParam<tpg::TpgKind> {};

TEST_P(TpgSweepTest, FullCoverageSolution) {
  const reseed::Pipeline p("s641");
  const auto sol = p.run({GetParam(), 32});
  EXPECT_EQ(sol.faults_covered, sol.faults_targeted)
      << tpg::tpg_kind_name(GetParam());
  EXPECT_GT(sol.num_triplets(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTpgs, TpgSweepTest,
                         ::testing::Values(tpg::TpgKind::kAdder,
                                           tpg::TpgKind::kSubtracter,
                                           tpg::TpgKind::kMultiplier,
                                           tpg::TpgKind::kLfsr));

}  // namespace
}  // namespace fbist
