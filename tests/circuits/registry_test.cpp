#include "circuits/registry.h"

#include <gtest/gtest.h>

#include "netlist/bench_io.h"

namespace fbist::circuits {
namespace {

TEST(Registry, HasAllPaperCircuits) {
  std::vector<std::string> names;
  for (const auto& p : benchmark_profiles()) names.push_back(p.name);
  for (const char* expect :
       {"c432", "c499", "c880", "c1355", "c1908", "c7552", "s420", "s641",
        "s820", "s838", "s953", "s1238", "s1423", "s5378", "s9234", "s13207",
        "s15850"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expect), names.end())
        << expect;
  }
}

TEST(Registry, ProfileLookup) {
  const auto& p = profile("s1238");
  EXPECT_EQ(p.num_inputs, 32u);
  EXPECT_EQ(p.num_outputs, 32u);
  EXPECT_TRUE(p.sequential_origin);
  EXPECT_FALSE(p.too_large_for_gatsby);
  EXPECT_THROW(profile("c9999"), std::out_of_range);
}

TEST(Registry, LargestCircuitsFlaggedForGatsby) {
  EXPECT_TRUE(profile("s13207").too_large_for_gatsby);
  EXPECT_TRUE(profile("s15850").too_large_for_gatsby);
  EXPECT_FALSE(profile("s1238").too_large_for_gatsby);
}

TEST(Registry, MakeCircuitMatchesProfileInterface) {
  for (const char* name : {"c432", "s820", "s1238"}) {
    const auto& p = profile(name);
    const auto nl = make_circuit(name);
    EXPECT_EQ(nl.num_inputs(), p.num_inputs) << name;
    EXPECT_EQ(nl.num_outputs(), p.num_outputs) << name;
    EXPECT_GE(nl.num_gates(), p.num_gates) << name;
    EXPECT_NO_THROW(nl.validate()) << name;
  }
}

TEST(Registry, C17IsTheRealBenchmark) {
  const auto nl = make_c17();
  EXPECT_EQ(nl.num_inputs(), 5u);
  EXPECT_EQ(nl.num_gates(), 6u);
  // All six gates are NANDs.
  std::size_t nands = 0;
  for (netlist::NetId id = 0; id < nl.num_nets(); ++id) {
    if (nl.gate(id).type == netlist::GateType::kNand) ++nands;
  }
  EXPECT_EQ(nands, 6u);
  EXPECT_EQ(make_circuit("c17").num_gates(), 6u);
}

TEST(Registry, Deterministic) {
  const std::string a = netlist::to_bench_string(make_circuit("c880"));
  const std::string b = netlist::to_bench_string(make_circuit("c880"));
  EXPECT_EQ(a, b);
}

TEST(Registry, DistinctCircuitsDiffer) {
  const std::string a = netlist::to_bench_string(make_circuit("c432"));
  const std::string b = netlist::to_bench_string(make_circuit("c499"));
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace fbist::circuits
