#include "circuits/generator.h"

#include <gtest/gtest.h>

#include "netlist/bench_io.h"
#include "support/levelize.h"

namespace fbist::circuits {
namespace {

using netlist::Netlist;
using netlist::NetId;

TEST(Generator, ProducesRequestedInterface) {
  GeneratorSpec spec;
  spec.num_inputs = 17;
  spec.num_outputs = 9;
  spec.num_gates = 150;
  spec.seed = 3;
  const Netlist nl = generate(spec);
  EXPECT_EQ(nl.num_inputs(), 17u);
  EXPECT_EQ(nl.num_outputs(), 9u);
  // Dangling-net folding may add a few gates beyond the request.
  EXPECT_GE(nl.num_gates(), 150u);
  EXPECT_LE(nl.num_gates(), 150u + 60u);
}

TEST(Generator, DeterministicForSameSeed) {
  GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 4;
  spec.num_gates = 80;
  spec.seed = 42;
  const std::string a = netlist::to_bench_string(generate(spec));
  const std::string b = netlist::to_bench_string(generate(spec));
  EXPECT_EQ(a, b);
}

TEST(Generator, DifferentSeedsProduceDifferentCircuits) {
  GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 4;
  spec.num_gates = 80;
  spec.seed = 1;
  const std::string a = netlist::to_bench_string(generate(spec));
  spec.seed = 2;
  const std::string b = netlist::to_bench_string(generate(spec));
  EXPECT_NE(a, b);
}

TEST(Generator, ValidatesAndIsFullyObservable) {
  GeneratorSpec spec;
  spec.num_inputs = 25;
  spec.num_outputs = 12;
  spec.num_gates = 300;
  spec.seed = 9;
  const Netlist nl = generate(spec);
  EXPECT_NO_THROW(nl.validate());
  const auto reach = netlist::reaches_output(nl);
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    EXPECT_TRUE(reach[id]);
  }
}

TEST(Generator, RespectsDepthTarget) {
  GeneratorSpec spec;
  spec.num_inputs = 20;
  spec.num_outputs = 8;
  spec.num_gates = 200;
  spec.layers = 12;
  spec.seed = 4;
  const Netlist nl = generate(spec);
  // Depth is approximately layers (long edges and folds may add a bit).
  EXPECT_GE(netlist::depth(nl), 6u);
  EXPECT_LE(netlist::depth(nl), 40u);
}

TEST(Generator, XorShareControlsXorPresence) {
  GeneratorSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 200;
  spec.seed = 6;
  spec.xor_share = 0.0;
  const Netlist none = generate(spec);
  std::size_t xor_count = 0;
  for (NetId id = 0; id < none.num_nets(); ++id) {
    const auto t = none.gate(id).type;
    // Folding gates are XOR by design; only count non-fold gates.
    if ((t == netlist::GateType::kXor || t == netlist::GateType::kXnor) &&
        none.gate(id).name.find("_fold") == std::string::npos) {
      ++xor_count;
    }
  }
  EXPECT_EQ(xor_count, 0u);

  spec.xor_share = 0.5;
  const Netlist lots = generate(spec);
  std::size_t xor_lots = 0;
  for (NetId id = 0; id < lots.num_nets(); ++id) {
    const auto t = lots.gate(id).type;
    if (t == netlist::GateType::kXor || t == netlist::GateType::kXnor) ++xor_lots;
  }
  EXPECT_GT(xor_lots, 20u);
}

TEST(Generator, RejectsEmptySpecs) {
  GeneratorSpec spec;
  spec.num_inputs = 0;
  EXPECT_THROW(generate(spec), std::invalid_argument);
  spec.num_inputs = 4;
  spec.num_gates = 0;
  EXPECT_THROW(generate(spec), std::invalid_argument);
  spec.num_gates = 10;
  spec.layers = 0;
  EXPECT_THROW(generate(spec), std::invalid_argument);
}

TEST(Generator, TinySpecStillValid) {
  GeneratorSpec spec;
  spec.num_inputs = 2;
  spec.num_outputs = 1;
  spec.num_gates = 1;
  spec.layers = 1;
  spec.seed = 8;
  const Netlist nl = generate(spec);
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(nl.num_outputs(), 1u);
}

}  // namespace
}  // namespace fbist::circuits
