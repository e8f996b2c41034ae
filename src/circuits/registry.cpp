#include "circuits/registry.h"

#include <stdexcept>

#include "circuits/generator.h"
#include "util/rng.h"

namespace fbist::circuits {

namespace {

// Gate counts of the look-alikes are the published benchmark gate counts
// scaled down (factor ~0.5 for the giants) so that the full evaluation
// matrix (17 circuits x 3 TPGs, each requiring an M x |F| fault-
// simulation campaign) completes in minutes.  PI/PO counts follow the
// published profiles of the scan-flattened circuits.
const std::vector<BenchmarkProfile> kProfiles = {
    // name      PI   PO   gates  seq    no-GATSBY
    {"c17",      5,   2,     6,  false, false},
    {"c432",    36,   7,   160,  false, false},
    {"c499",    41,  32,   202,  false, false},
    {"c880",    60,  26,   383,  false, false},
    {"c1355",   41,  32,   400,  false, false},
    {"c1908",   33,  25,   500,  false, false},
    {"c2670",  233, 140,   700,  false, false},
    {"c3540",   50,  22,   900,  false, false},
    {"c5315",  178, 123,  1100,  false, false},
    {"c6288",   32,  32,  1100,  false, false},
    {"c7552",  207, 108,  1200,  false, false},
    {"s420",    35,  18,   220,  true,  false},
    {"s641",    54,  43,   380,  true,  false},
    {"s820",    23,  24,   290,  true,  false},
    {"s838",    67,  34,   450,  true,  false},
    {"s953",    45,  52,   420,  true,  false},
    {"s1238",   32,  32,   510,  true,  false},
    {"s1423",   91,  79,   660,  true,  false},
    {"s5378",  214, 228,  1400,  true,  false},
    {"s9234",  247, 250,  1800,  true,  false},
    {"s13207", 700, 790,  2200,  true,  true},
    {"s15850", 611, 684,  2600,  true,  true},
};

}  // namespace

const std::vector<BenchmarkProfile>& benchmark_profiles() { return kProfiles; }

const BenchmarkProfile& profile(const std::string& name) {
  for (const auto& p : kProfiles) {
    if (p.name == name) return p;
  }
  throw std::out_of_range("unknown benchmark circuit: " + name);
}

netlist::Netlist make_circuit(const std::string& name) {
  if (name == "c17") return make_c17();
  const BenchmarkProfile& p = profile(name);
  GeneratorSpec spec;
  spec.num_inputs = p.num_inputs;
  spec.num_outputs = p.num_outputs;
  spec.num_gates = p.num_gates;
  // Depth grows slowly with size; scan-flattened circuits are shallower
  // (state fan-in cut at the flip-flop boundary).
  spec.layers = p.sequential_origin ? 10 + p.num_gates / 200
                                    : 14 + p.num_gates / 120;
  spec.xor_share = p.sequential_origin ? 0.15 : 0.22;
  spec.wide_gate_share = 0.06;
  spec.seed = util::hash_string(p.name);
  return generate(spec, p.name);
}

}  // namespace fbist::circuits
