#include "support/levelize.h"

#include <gtest/gtest.h>

#include "circuits/generator.h"
#include "circuits/registry.h"

namespace fbist::netlist {
namespace {

TEST(Levelize, InputsAreLevelZero) {
  const Netlist nl = circuits::make_c17();
  const auto levels = levelize(nl);
  for (const NetId i : nl.inputs()) EXPECT_EQ(levels[i], 0u);
}

TEST(Levelize, GateIsOnePlusMaxFanin) {
  const Netlist nl = circuits::make_c17();
  const auto levels = levelize(nl);
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    const auto& g = nl.gate(id);
    if (g.type == GateType::kInput) continue;
    std::size_t expect = 0;
    for (const NetId f : g.fanin) expect = std::max(expect, levels[f] + 1);
    EXPECT_EQ(levels[id], expect);
  }
}

TEST(Levelize, C17DepthIsThree) {
  // c17: two NAND levels feed two more NAND levels -> depth 3.
  EXPECT_EQ(depth(circuits::make_c17()), 3u);
}

TEST(Levelize, TopologicalOrderIsIdentity) {
  const Netlist nl = circuits::make_c17();
  const auto order = topological_order(nl);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ReachesOutput, AllC17NetsReach) {
  const Netlist nl = circuits::make_c17();
  const auto reach = reaches_output(nl);
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    EXPECT_TRUE(reach[id]) << nl.gate(id).name;
  }
}

TEST(ReachesOutput, DanglingGateExcluded) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto keep = nl.add_gate(GateType::kAnd, "keep", {a, b});
  nl.add_gate(GateType::kOr, "dangling", {a, b});
  nl.mark_output(keep);
  const auto reach = reaches_output(nl);
  EXPECT_TRUE(reach[keep]);
  EXPECT_FALSE(reach[nl.find("dangling")]);
}

TEST(ReachesOutput, GeneratedCircuitsFullyObservable) {
  // The generator folds dangling nets into outputs, so every net must
  // reach an output.
  circuits::GeneratorSpec spec;
  spec.num_inputs = 12;
  spec.num_outputs = 5;
  spec.num_gates = 120;
  spec.seed = 5;
  const Netlist nl = circuits::generate(spec);
  const auto reach = reaches_output(nl);
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    EXPECT_TRUE(reach[id]) << nl.gate(id).name;
  }
}

}  // namespace
}  // namespace fbist::netlist
