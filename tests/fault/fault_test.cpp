#include "fault/fault.h"

#include <gtest/gtest.h>

#include "circuits/generator.h"
#include "circuits/registry.h"
#include "support/levelize.h"

namespace fbist::fault {
namespace {

TEST(FaultList, FullListHasTwoPerReachableNet) {
  const auto nl = circuits::make_c17();
  const FaultList fl = FaultList::full(nl);
  // c17: all 11 nets reach an output -> 22 faults.
  EXPECT_EQ(fl.size(), 22u);
}

TEST(FaultList, FullListSkipsDeadLogic) {
  netlist::Netlist nl;
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto keep = nl.add_gate(netlist::GateType::kAnd, "keep", {a, b});
  nl.add_gate(netlist::GateType::kOr, "dead", {a, b});
  nl.mark_output(keep);
  const FaultList fl = FaultList::full(nl);
  // dead gate excluded: faults on a, b, keep only.
  EXPECT_EQ(fl.size(), 6u);
  for (const auto& f : fl.faults()) {
    EXPECT_NE(f.net, nl.find("dead"));
  }
}

// The full list's order is part of every fault index downstream:
// ascending net id, stuck-at-0 before stuck-at-1, over exactly the nets
// the reference walker finds reaching an output.
TEST(FaultList, FullListOrderMatchesReferenceReachability) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = 8;
  spec.num_outputs = 3;
  spec.num_gates = 60;
  spec.seed = 5;
  netlist::Netlist dead_logic;
  const auto a = dead_logic.add_input("a");
  const auto b = dead_logic.add_input("b");
  dead_logic.add_gate(netlist::GateType::kOr, "dead", {a, b});
  dead_logic.mark_output(
      dead_logic.add_gate(netlist::GateType::kAnd, "keep", {a, b}));
  for (const auto& nl :
       {circuits::make_c17(), circuits::generate(spec), dead_logic}) {
    const auto reach = netlist::reaches_output(nl);
    std::vector<Fault> want;
    for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
      if (!reach[n]) continue;
      want.push_back(Fault{n, false});
      want.push_back(Fault{n, true});
    }
    EXPECT_EQ(FaultList::full(nl).faults(), want);
  }
}

TEST(FaultList, FindLocatesFaults) {
  const auto nl = circuits::make_c17();
  const FaultList fl = FaultList::full(nl);
  const Fault f{nl.find("G11"), true};
  const std::size_t id = fl.find(f);
  ASSERT_NE(id, static_cast<std::size_t>(-1));
  EXPECT_EQ(fl[id], f);
  EXPECT_EQ(fl.find(Fault{netlist::kNullNet, false}),
            static_cast<std::size_t>(-1));
}

TEST(FaultList, WithoutDropsFlagged) {
  const auto nl = circuits::make_c17();
  const FaultList fl = FaultList::full(nl);
  std::vector<bool> drop(fl.size(), false);
  drop[0] = true;
  drop[5] = true;
  const FaultList smaller = fl.without(drop);
  EXPECT_EQ(smaller.size(), fl.size() - 2);
  EXPECT_EQ(smaller.find(fl[0]), static_cast<std::size_t>(-1));
  EXPECT_NE(smaller.find(fl[1]), static_cast<std::size_t>(-1));
}

TEST(FaultName, Format) {
  const auto nl = circuits::make_c17();
  EXPECT_EQ(fault_name(nl, Fault{nl.find("G10"), false}), "G10/0");
  EXPECT_EQ(fault_name(nl, Fault{nl.find("G10"), true}), "G10/1");
}

}  // namespace
}  // namespace fbist::fault
