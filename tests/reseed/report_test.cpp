#include "reseed/report.h"

#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "circuits/registry.h"
#include "reseed/initial_builder.h"
#include "tpg/accumulator.h"

namespace fbist::reseed {
namespace {

ReseedingSolution sample_solution() {
  const auto nl = circuits::make_c17();
  const auto fl = fault::FaultList::full(nl);
  sim::FaultSim fsim(nl, fl);
  const auto atpg = atpg::run_atpg(nl, fl);
  tpg::AdderTpg tpg(nl.num_inputs());
  BuilderOptions opts;
  opts.cycles_per_triplet = 8;
  return optimize(build_initial_reseeding(fsim, tpg, atpg.patterns, opts));
}

TEST(Report, SolutionStringMentionsKeyNumbers) {
  const auto sol = sample_solution();
  const std::string s = solution_to_string(sol, "label");
  EXPECT_NE(s.find("label"), std::string::npos);
  EXPECT_NE(s.find("triplets=" + std::to_string(sol.num_triplets())),
            std::string::npos);
  EXPECT_NE(s.find("test_length=" + std::to_string(sol.test_length)),
            std::string::npos);
  // One line per selected triplet.
  std::size_t lines = 0;
  for (const char c : s) {
    if (c == '\n') ++lines;
  }
  EXPECT_GE(lines, 2u + sol.num_triplets());
}

TEST(Report, SolutionStringMarksNecessary) {
  const auto sol = sample_solution();
  if (sol.necessary_count > 0) {
    EXPECT_NE(solution_to_string(sol).find("[necessary]"), std::string::npos);
  }
}

}  // namespace
}  // namespace fbist::reseed
