// Benchmark circuit registry.
//
// Maps the circuit names used in the paper's evaluation (ISCAS'85 and
// full-scan ISCAS'89) to netlists.  `c17` is the real benchmark; all
// others are deterministic synthetic look-alikes whose PI/PO counts
// follow the published circuit profiles and whose gate counts are the
// published counts scaled by `kGateScale` (documented in DESIGN.md —
// scaling keeps the full 17-circuit × 3-TPG evaluation within minutes on
// one workstation while preserving the matrix structure the paper
// measures).
//
// Full-scan ISCAS'89 circuits appear in their scan-flattened
// combinational form: PI = functional inputs + flip-flop outputs,
// PO = functional outputs + flip-flop inputs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace fbist::circuits {

/// Published profile of a benchmark circuit (scan-flattened for s-*).
struct BenchmarkProfile {
  std::string name;
  std::size_t num_inputs;     // PIs of the combinational core
  std::size_t num_outputs;    // POs of the combinational core
  std::size_t num_gates;      // gate count used for the look-alike
  bool sequential_origin;     // true for full-scan ISCAS'89 circuits
  /// Circuits the paper could not run GATSBY on (too large).
  bool too_large_for_gatsby;
};

/// The evaluation set of the paper, in paper order.
const std::vector<BenchmarkProfile>& benchmark_profiles();

/// Profile by name; throws std::out_of_range for unknown names.
const BenchmarkProfile& profile(const std::string& name);

/// Instantiates the named benchmark (real c17, synthetic otherwise).
/// Deterministic: same name -> identical netlist.
netlist::Netlist make_circuit(const std::string& name);

/// The genuine ISCAS'85 c17 netlist.
netlist::Netlist make_c17();

}  // namespace fbist::circuits
