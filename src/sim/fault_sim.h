// Parallel-pattern single-fault-propagation (PPSFP) fault simulation.
//
// Every campaign runs one loop, FaultSim::run_packed: good values are
// computed once per 64-pattern block, then for each live fault site the
// fault's fanout cone is re-evaluated with the site forced, and cone
// primary outputs are compared against the good response.  The earliest
// detecting pattern index per fault is recorded — it drives the
// paper's per-triplet test-length trimming.  A campaign's patterns may
// hold many independent rows (lane packing, sim::pack_rows), each with
// its own results; run / run_subset / detects are one-row adapters.
//
// The cone walk streams the precompiled cone programs of a
// netlist::CompiledCircuit (cone-local slot numbering, flat fanin
// references, reachable-PO positions), with work distributed across
// hardware threads via util::parallel_for_workers and per-worker
// scratch.  Two campaign-level optimizations apply on top:
//
//  * site pairing: sa0 and sa1 on the same net activate on disjoint
//    pattern lanes, so one walk with the site complemented per lane
//    simulates both faults exactly — dual-polarity nets cost one walk;
//  * wide chunks: a single-block campaign takes one narrow walk per
//    site; a multi-block campaign evaluates four or eight 64-pattern
//    blocks per walk over block-interleaved good values (runtime SIMD
//    dispatch, util/simd.h).
//
// A fault stops being simulated once detected (per row): blocks are
// walked in pattern order, so the first detection is final.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "fault/fault.h"
#include "netlist/compiled.h"
#include "sim/logic_sim.h"
#include "sim/pattern.h"
#include "util/bitvector.h"

namespace fbist::sim {

/// Sentinel for "fault never detected".
constexpr std::uint32_t kNotDetected = std::numeric_limits<std::uint32_t>::max();

/// Cone-program length (uint32 words) above which the fault simulator's
/// narrow walk uses the touched-scan skip; shorter programs evaluate
/// the whole cone (the skip branch mispredicts on small dense cones).
/// Public so equivalence tests can pin both walk variants to the
/// reference simulator.
constexpr std::size_t kScanMinProgWords = 2048;

/// Result of a fault-simulation campaign over one pattern set.
struct FaultSimResult {
  /// detected.get(f) == fault f was detected by at least one pattern.
  util::BitVector detected;
  /// earliest[f]: index of the first detecting pattern, or kNotDetected.
  std::vector<std::uint32_t> earliest;

  std::size_t num_detected() const { return detected.count(); }
  double coverage_percent(std::size_t total_faults) const {
    return total_faults == 0
               ? 100.0
               : 100.0 * static_cast<double>(detected.count()) /
                     static_cast<double>(total_faults);
  }
};

/// Fault simulator bound to one netlist + fault list.  The compiled
/// circuit is built once per circuit and shared across campaigns (and,
/// via the sharing constructor, across engines).
class FaultSim {
 public:
  /// Compiles the netlist privately.
  FaultSim(const netlist::Netlist& nl, const fault::FaultList& faults);
  /// Shares an existing compiled form (must describe `nl`).
  FaultSim(const netlist::Netlist& nl, const fault::FaultList& faults,
           std::shared_ptr<const netlist::CompiledCircuit> compiled);

  /// Simulates all patterns against all faults.  `parallel`
  /// distributes fault sites across the shared worker pool.
  FaultSimResult run(const PatternSet& patterns, bool parallel = true) const;

  /// Simulates patterns against the subset of faults flagged `active`
  /// (size = fault count); the others stay undetected.  Used by the
  /// ATPG's fault-dropping loop.
  FaultSimResult run_subset(const PatternSet& patterns,
                            const std::vector<bool>& active,
                            bool parallel = true) const;

  /// The campaign loop.  Simulates one packed pattern set whose lane
  /// layout is described by `packing`: several independent rows (e.g.
  /// one per reseeding candidate triplet, expanded straight into their
  /// lanes by tpg::expand_triplet_into) share each 64-pattern block, so
  /// good values are computed once per block and each fault's cone is
  /// walked once per block instead of once per row — the dominant cost
  /// of the detection-matrix build at the paper's small T values.  Lane
  /// ranges must be disjoint, a row of length <= 64 must not straddle a
  /// block boundary, and packed lanes outside every row are ignored.
  ///
  /// Returns one result per packing.rows entry, in that order, each
  /// bit-identical to a run() over that row alone (detection bits and
  /// row-local earliest indices).  When `active` is given (size = fault
  /// count), only flagged faults are simulated.
  std::vector<FaultSimResult> run_packed(
      const PatternSet& packed, const LanePacking& packing,
      bool parallel = true, const std::vector<bool>* active = nullptr) const;

  /// True iff `pattern` detects fault `f` (single-pattern probe).
  bool detects(const util::WideWord& pattern, std::size_t fault_id) const;

  const fault::FaultList& faults() const { return faults_; }
  const netlist::Netlist& netlist() const { return nl_; }
  const netlist::CompiledCircuit& compiled() const { return *cc_; }
  const std::shared_ptr<const netlist::CompiledCircuit>& compiled_ptr() const {
    return cc_;
  }

 private:
  /// Faults sharing one injection site: fid[s] is the id of the
  /// stuck-at-s fault on `net`, or SIZE_MAX.
  struct Site {
    netlist::NetId net;
    std::size_t fid[2];
  };

  const netlist::Netlist& nl_;
  const fault::FaultList& faults_;
  std::shared_ptr<const netlist::CompiledCircuit> cc_;
  LogicSim good_sim_;
  std::vector<Site> sites_;
};

}  // namespace fbist::sim
