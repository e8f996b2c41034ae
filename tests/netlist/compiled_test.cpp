// Equivalence tests pinning netlist::CompiledCircuit to the legacy
// reference walkers (levelize.h, cone.h, Netlist::fanouts) on the
// genuine c17, generated circuits, and a scan-flattened netlist.
#include "netlist/compiled.h"

#include <gtest/gtest.h>

#include "circuits/generator.h"
#include "circuits/registry.h"
#include "netlist/bench_io.h"
#include "netlist/cone.h"
#include "support/levelize.h"

namespace fbist::netlist {
namespace {

std::vector<Netlist> test_circuits() {
  std::vector<Netlist> circuits;
  circuits.push_back(circuits::make_c17());

  circuits::GeneratorSpec spec;
  spec.num_inputs = 14;
  spec.num_outputs = 6;
  spec.num_gates = 180;
  spec.seed = 11;
  circuits.push_back(circuits::generate(spec));

  spec.num_inputs = 24;
  spec.num_outputs = 10;
  spec.num_gates = 420;
  spec.xor_share = 0.35;
  spec.seed = 99;
  circuits.push_back(circuits::generate(spec));

  // Scan-flattened sequential circuit: DFFs become PI/PO pairs, so the
  // compiled core must cope with nets that are both PI and PO-adjacent.
  circuits.push_back(parse_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
q0 = DFF(d0)
q1 = DFF(q0)
d0 = AND(a, q1)
n1 = XOR(q0, b)
y = NAND(n1, d0)
)"));
  return circuits;
}

TEST(CompiledCircuit, FanoutMatchesNetlistCache) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    const auto& legacy = nl.fanouts();
    ASSERT_EQ(cc.num_nets(), nl.num_nets());
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      const auto span = cc.fanout(n);
      ASSERT_EQ(span.size(), legacy[n].size()) << "net " << nl.gate(n).name;
      for (std::size_t i = 0; i < span.size(); ++i) {
        EXPECT_EQ(span[i], legacy[n][i]) << "net " << nl.gate(n).name;
      }
    }
  }
}

TEST(CompiledCircuit, FaninAndTypesMatchGates) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      const Gate& g = nl.gate(n);
      EXPECT_EQ(cc.type(n), g.type);
      const auto span = cc.fanin(n);
      ASSERT_EQ(span.size(), g.fanin.size());
      for (std::size_t i = 0; i < span.size(); ++i) {
        EXPECT_EQ(span[i], g.fanin[i]);
      }
    }
  }
}

TEST(CompiledCircuit, LevelsMatchLevelize) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    const auto legacy = levelize(nl);
    EXPECT_EQ(cc.depth(), depth(nl));
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      EXPECT_EQ(static_cast<std::size_t>(cc.level(n)), legacy[n]);
    }
  }
}

TEST(CompiledCircuit, ScheduleIsTopologicalAndComplete) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    const auto sched = cc.schedule();
    EXPECT_EQ(sched.size(), nl.num_gates());
    NetId prev = 0;
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const NetId id = sched[i];
      EXPECT_NE(cc.type(id), GateType::kInput);
      if (i > 0) EXPECT_GT(id, prev);  // ascending == topological here
      for (const NetId f : cc.fanin(id)) EXPECT_LT(f, id);
      prev = id;
    }
  }
}

TEST(CompiledCircuit, ConeSlicesMatchFanoutCone) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      const Cone legacy = fanout_cone(nl, n);
      const auto gates = cc.cone_gates(n);
      ASSERT_EQ(gates.size(), legacy.gates.size()) << "net " << nl.gate(n).name;
      for (std::size_t i = 0; i < gates.size(); ++i) {
        EXPECT_EQ(gates[i], legacy.gates[i]);
      }
      const auto outs = cc.cone_outputs(n);
      ASSERT_EQ(outs.size(), legacy.output_positions.size())
          << "net " << nl.gate(n).name;
      for (std::size_t i = 0; i < outs.size(); ++i) {
        EXPECT_EQ(static_cast<std::size_t>(outs[i]), legacy.output_positions[i]);
      }
    }
  }
}

TEST(CompiledCircuit, ConeOutputSlotsPointAtTheRightNets) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      const auto gates = cc.cone_gates(n);
      const auto outs = cc.cone_outputs(n);
      const auto slots = cc.cone_output_slots(n);
      ASSERT_EQ(outs.size(), slots.size());
      for (std::size_t i = 0; i < outs.size(); ++i) {
        const NetId out_net = nl.outputs()[outs[i]];
        const std::uint32_t slot = slots[i];
        // Slot 0 is the root; slot j+1 is cone gate j.
        const NetId slot_net = slot == 0 ? n : gates[slot - 1];
        EXPECT_EQ(slot_net, out_net);
      }
    }
  }
}

TEST(CompiledCircuit, InputOutputIndexMatchesNetlist) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    EXPECT_EQ(cc.inputs(), nl.inputs());
    EXPECT_EQ(cc.outputs(), nl.outputs());
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      EXPECT_EQ(cc.input_index(n), nl.input_index(n));
      EXPECT_EQ(cc.output_index(n), nl.output_index(n));
    }
  }
}

TEST(CompiledCircuit, ReachesOutputMatchesLegacy) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    const auto legacy = reaches_output(nl);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      EXPECT_EQ(cc.reaches_output(n), legacy[n]) << "net " << nl.gate(n).name;
    }
  }
}

TEST(CompiledCircuit, MaxConeGatesIsTheMaximum) {
  for (const Netlist& nl : test_circuits()) {
    const CompiledCircuit cc(nl);
    std::size_t expect = 0;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      expect = std::max(expect, cc.cone_gates(n).size());
    }
    EXPECT_EQ(cc.max_cone_gates(), expect);
  }
}

TEST(CompiledCircuit, DanglingGateDoesNotReachOutput) {
  Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto keep = nl.add_gate(GateType::kAnd, "keep", {a, b});
  nl.add_gate(GateType::kOr, "dangling", {a, b});
  nl.mark_output(keep);
  const CompiledCircuit cc(nl);
  EXPECT_TRUE(cc.reaches_output(keep));
  EXPECT_FALSE(cc.reaches_output(nl.find("dangling")));
}

}  // namespace
}  // namespace fbist::netlist
