#include "atpg/podem.h"

#include <gtest/gtest.h>

#include "circuits/generator.h"
#include "circuits/registry.h"
#include "sim/fault_sim.h"
#include "util/rng.h"

namespace fbist::atpg {
namespace {

using netlist::GateType;
using netlist::Netlist;

// X-fill helper: fill don't-cares with zeros.
util::WideWord zero_fill(const PodemResult& r) { return r.pattern; }

TEST(Podem, FindsTestForEveryC17Fault) {
  const auto nl = circuits::make_c17();
  const auto fl = fault::FaultList::full(nl);
  sim::FaultSim fsim(nl, fl);
  Podem podem(nl);
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    const PodemResult r = podem.generate(fl[fid]);
    ASSERT_EQ(r.status, PodemStatus::kTestFound)
        << fault_name(nl, fl[fid]);
    EXPECT_TRUE(fsim.detects(zero_fill(r), fid))
        << fault_name(nl, fl[fid]) << " pattern " << r.pattern.to_hex();
  }
}

TEST(Podem, GeneratedPatternsDetectOnGeneratedCircuit) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 6;
  spec.num_gates = 120;
  spec.seed = 31;
  const Netlist nl = circuits::generate(spec);
  const auto fl = fault::FaultList::collapsed(nl);
  sim::FaultSim fsim(nl, fl);
  Podem podem(nl);

  std::size_t found = 0, untestable = 0, aborted = 0;
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    const PodemResult r = podem.generate(fl[fid]);
    switch (r.status) {
      case PodemStatus::kTestFound:
        ++found;
        EXPECT_TRUE(fsim.detects(zero_fill(r), fid))
            << fault_name(nl, fl[fid]);
        break;
      case PodemStatus::kUntestable:
        ++untestable;
        break;
      case PodemStatus::kAborted:
        ++aborted;
        break;
    }
  }
  // Sanity: the vast majority of faults should get a verdict.
  EXPECT_GT(found, fl.size() / 2);
  EXPECT_LT(aborted, fl.size() / 10);
}

TEST(Podem, ProvesRedundancy) {
  // y = OR(a, NOT(a)) is constantly 1 => y stuck-at-1 is undetectable.
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto na = nl.add_gate(GateType::kNot, "na", {a});
  const auto y = nl.add_gate(GateType::kOr, "y", {a, na});
  const auto out = nl.add_gate(GateType::kBuf, "out", {y});
  nl.mark_output(out);

  Podem podem(nl);
  const PodemResult r1 = podem.generate(fault::Fault{y, true});
  EXPECT_EQ(r1.status, PodemStatus::kUntestable);
  // y stuck-at-0 *is* testable (any input works).
  const PodemResult r0 = podem.generate(fault::Fault{y, false});
  EXPECT_EQ(r0.status, PodemStatus::kTestFound);
}

TEST(Podem, UntestableDueToBlockedPropagation) {
  // h = AND(g, NOT(g)) is constant 0, so h stuck-at-0 never changes the
  // circuit and is untestable; h stuck-at-1 flips the constant and any
  // pattern detects it.
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_gate(GateType::kAnd, "g", {a, b});
  const auto ng = nl.add_gate(GateType::kNot, "ng", {g});
  const auto h = nl.add_gate(GateType::kAnd, "h", {g, ng});
  nl.mark_output(h);
  Podem podem(nl);
  EXPECT_EQ(podem.generate(fault::Fault{h, false}).status,
            PodemStatus::kUntestable);
  EXPECT_EQ(podem.generate(fault::Fault{h, true}).status,
            PodemStatus::kTestFound);
}

TEST(Podem, CareBitsAreSubsetOfInputs) {
  const auto nl = circuits::make_c17();
  const auto fl = fault::FaultList::full(nl);
  Podem podem(nl);
  const PodemResult r = podem.generate(fl[0]);
  ASSERT_EQ(r.status, PodemStatus::kTestFound);
  EXPECT_EQ(r.care.bits(), nl.num_inputs());
  // Pattern bits outside care must be zero (unfilled).
  for (std::size_t i = 0; i < r.pattern.bits(); ++i) {
    if (!r.care.get_bit(i)) {
      EXPECT_FALSE(r.pattern.get_bit(i));
    }
  }
}

TEST(Podem, DecisionStatisticsPopulated) {
  const auto nl = circuits::make_circuit("c432");
  const auto fl = fault::FaultList::collapsed(nl);
  Podem podem(nl);
  std::size_t total_decisions = 0;
  for (std::size_t fid = 0; fid < 20 && fid < fl.size(); ++fid) {
    total_decisions += podem.generate(fl[fid]).decisions;
  }
  EXPECT_GT(total_decisions, 0u);
}

// Pins the search itself, not only run_atpg's output: every collapsed
// fault's verdict, backtrack and decision counts and cube go into one
// hash, so a change to implication, objective or backtrace order that
// keeps the patterns but walks a different tree still shows.  Budget 4
// exercises the abort path on most hard faults.  With `pause_after`
// set, every search pauses there and is resumed, which must not change
// a single search.
void expect_search_golden(std::size_t pause_after) {
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
    std::size_t backtrack_limit;
    std::uint64_t hash;
  };
  const Golden goldens[] = {
      {"c880", 600, 17480179406063461125ull},
      {"c880", 4, 15013908891516379379ull},
      {"c1908", 600, 14118349602597935179ull},
      {"c1908", 4, 12220292606144432666ull},
      {"deep8", 600, 16570946008375129893ull},
      {"deep8", 4, 2838780257475869901ull},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(std::string(g.circuit) + " backtrack_limit=" +
                 std::to_string(g.backtrack_limit));
    const Netlist nl = std::string(g.circuit) == "deep8"
                           ? circuits::generate(deep)
                           : circuits::make_circuit(g.circuit);
    const auto fl = fault::FaultList::collapsed(nl);
    Podem podem(nl, PodemOptions{g.backtrack_limit});
    util::Fnv1a h(util::Fnv1a::kBasis);
    std::size_t paused = 0;
    for (std::size_t fid = 0; fid < fl.size(); ++fid) {
      PodemResult r = podem.generate(fl[fid], pause_after);
      if (r.status == PodemStatus::kAborted &&
          r.backtracks <= g.backtrack_limit) {
        ++paused;
        r = podem.resume();
      }
      h.u64(static_cast<std::uint64_t>(r.status));
      h.u64(r.backtracks);
      h.u64(r.decisions);
      h.str(r.pattern.to_hex());
      h.str(r.care.to_hex());
    }
    EXPECT_EQ(h.value(), g.hash);
    // Below the budget some searches really pause.
    if (pause_after < g.backtrack_limit) {
      EXPECT_GT(paused, 0u);
    }
  }
}

TEST(Podem, SearchGolden) { expect_search_golden(SIZE_MAX); }

TEST(Podem, SearchGoldenPausedAt32AndResumed) { expect_search_golden(32); }

// Parameterized property: PODEM patterns validated by fault simulation
// across a sweep of generator seeds.
class PodemPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemPropertyTest, PatternsValidatedBySimulation) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  spec.num_gates = 60;
  spec.seed = GetParam();
  const Netlist nl = circuits::generate(spec);
  const auto fl = fault::FaultList::collapsed(nl);
  sim::FaultSim fsim(nl, fl);
  Podem podem(nl);
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    const PodemResult r = podem.generate(fl[fid]);
    if (r.status == PodemStatus::kTestFound) {
      EXPECT_TRUE(fsim.detects(r.pattern, fid))
          << "seed=" << GetParam() << " fault=" << fault_name(nl, fl[fid]);
    }
    // (kUntestable / kAborted verdicts carry no pattern to validate.)
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace fbist::atpg
