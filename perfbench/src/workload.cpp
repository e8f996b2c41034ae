#include "workload.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace perfbench {

namespace fc = fbist::campaign;
using fbist::reseed::SolverChoice;
using fbist::tpg::TpgKind;

namespace {

/// Pin/gate shape of one generated circuit, after the registry's ISCAS
/// profiles (circuits/registry.cpp), with an explicit logic depth.
struct Shape {
  std::size_t inputs;
  std::size_t outputs;
  std::size_t gates;
  bool sequential_origin;  // scan-flattened ISCAS'89 profile
  std::size_t layers;
};

fbist::circuits::GeneratorSpec generator_spec(const Shape& s,
                                              const std::string& file) {
  // The registry's XOR and wide-gate shares, so the generated circuits
  // resemble its look-alikes.
  fbist::circuits::GeneratorSpec g;
  g.num_inputs = s.inputs;
  g.num_outputs = s.outputs;
  g.num_gates = s.gates;
  g.layers = s.layers;
  g.xor_share = s.sequential_origin ? 0.15 : 0.22;
  g.wide_gate_share = 0.06;
  g.seed = fbist::util::hash_string(file);
  return g;
}

Shape shrink(Shape s) {
  s.inputs = std::min<std::size_t>(s.inputs, 16);
  s.outputs = std::min<std::size_t>(s.outputs, 8);
  s.gates = std::max<std::size_t>(48, s.gates / 12);
  return s;
}

template <typename T>
void keep_first(std::vector<T>& v, std::size_t n) {
  if (v.size() > n) v.resize(n);
}

}  // namespace

// Circuit counts are what keeps the figures steady: one circuit's ATPG
// time varies by ~40% between seeds of one shape, so every workload
// sums many circuits, and each stays a closed loop of one sweep with
// the worker pool as its only concurrency.  There is no large-circuit
// ATPG workload: on a busy host, 1200-gate circuits slowed ~1.6x as
// much as atpg_many's, past any bound the metrics may have (README.md).
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  std::vector<Shape> shapes;
  fc::CampaignSpec campaign;
  campaign.solvers = {SolverChoice::kExact};
  campaign.tpgs = {TpgKind::kAdder};
  campaign.cycle_values = {16};
  if (name == "reseed_sweep") {
    // Shallow 450-gate circuits over the c880 and c1908 pin profiles,
    // crossed with every TPG and a T range from multi-row lane packing
    // (T=4) to multi-block walks (T=1024).  Depth 4 keeps ATPG cheap,
    // so the matrix build dominates.
    for (std::size_t k = 0; k < 32; ++k) {
      shapes.push_back(k % 2 == 0 ? Shape{60, 26, 450, false, 4}
                                  : Shape{33, 25, 450, false, 4});
    }
    campaign.tpgs = {TpgKind::kAdder, TpgKind::kSubtracter,
                     TpgKind::kMultiplier, TpgKind::kLfsr};
    campaign.cycle_values = {4, 16, 64, 256, 1024};
  } else if (name == "atpg_many") {
    // A hundred 300..500-gate circuits over ten ISCAS pin profiles, one
    // cheap run each: small ATPG jobs saturate the pool.  Sizes stay
    // close so that no few circuits dominate the sum.
    static const Shape kPins[] = {
        {36, 7, 0, false, 8},  {41, 32, 0, false, 8}, {60, 26, 0, false, 8},
        {33, 25, 0, false, 8}, {54, 43, 0, true, 8},  {23, 24, 0, true, 8},
        {67, 34, 0, true, 8},  {45, 52, 0, true, 8},  {32, 32, 0, true, 8},
        {35, 18, 0, true, 8}};
    for (std::size_t k = 0; k < 100; ++k) {
      Shape s = kPins[k % 10];
      s.gates = 300 + 50 * (k / 10 % 5);
      shapes.push_back(s);
    }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  if (tiny) {
    keep_first(shapes, 3);
    for (Shape& s : shapes) s = shrink(s);
    keep_first(campaign.tpgs, 2);
    keep_first(campaign.cycle_values, 2);
  }

  Workload w;
  w.name = name;
  w.seed = seed;
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    const std::string file = name + "-s" + std::to_string(seed) + "-c" +
                             std::to_string(k) + ".bench";
    w.circuits.push_back({file, generator_spec(shapes[k], file)});
    campaign.circuits.push_back(file);
  }
  w.campaign = std::move(campaign);
  return w;
}

}  // namespace perfbench
