// Deterministic ATPG driver — the TestGen substitute.
//
// Pipeline (standard industrial shape):
//   1. random-pattern phase: 64-pattern blocks, fault simulation with
//      dropping, stops after a run of unproductive blocks;
//   2. deterministic phase: PODEM per remaining fault, screened by
//      atpg::SatEngine when SAT escalation is on.  A search still
//      undecided after a fixed number of backtracks (32, or the budget
//      if lower) pauses and SAT decides the fault: UNSAT proves it
//      redundant at once; otherwise PODEM resumes the same search to
//      its full budget, and only if that aborts is the SAT model used.
//      The outcome equals running PODEM to its budget and escalating
//      only its aborts, since a SAT answer depends on nothing but
//      (circuit, fault).  Each new pattern (PODEM cube X-filled at
//      random, or a fully specified SAT model) is fault-simulated
//      against all remaining faults and drops every fault it catches;
//      a SAT model is accepted only if that campaign catches its
//      target;
//   3. reverse-order compaction, which always runs: a pattern is kept
//      only if it detects some fault that no later pattern detects,
//      found by one campaign over the reversed pattern list.
//
// Output: a compacted complete test set plus the per-fault verdicts
// (detected / proven redundant / aborted).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "atpg/podem.h"
#include "atpg/sat_engine.h"
#include "fault/fault.h"
#include "netlist/compiled.h"
#include "sim/fault_sim.h"
#include "sim/pattern.h"
#include "util/rng.h"

namespace fbist::atpg {

struct AtpgOptions {
  PodemOptions podem;
  /// SAT escalation: a fault PODEM leaves undecided goes to
  /// atpg::SatEngine, which either produces a validated test pattern or
  /// a redundancy certificate (see sat_engine.h).  On by default —
  /// PODEM stays the fast path; the solver only sees faults PODEM has
  /// not decided within the screen's backtrack count (see above).
  bool sat_escalate = true;
  SatEngineOptions sat;
  std::uint64_t seed = 1;
};

enum class FaultVerdict : std::uint8_t {
  kDetected,
  kRedundant,   // proven untestable (PODEM or SAT certificate)
  kAborted,     // PODEM hit the backtrack limit (and SAT, if enabled,
                // hit its conflict limit or produced an invalid model)
};

struct AtpgResult {
  sim::PatternSet patterns;               // final compacted test set
  std::vector<FaultVerdict> verdict;      // per fault id
  std::size_t random_patterns_used = 0;   // kept from the random phase
  std::size_t deterministic_patterns = 0; // produced by PODEM
  std::size_t redundant_faults = 0;
  std::size_t aborted_faults = 0;
  /// SAT-escalation outcomes (both zero when sat_escalate is off).
  /// sat_detected_faults counts PODEM-aborted faults the solver found a
  /// (FaultSim-validated) pattern for; sat_redundant_faults counts
  /// UNSAT redundancy certificates, including the screen's (a fault
  /// the screen proves redundant is not searched further, even if
  /// PODEM would have proved it within its budget).  Both subsets are
  /// already included in the verdict[] / redundant_faults tallies
  /// above.
  std::size_t sat_detected_faults = 0;
  std::size_t sat_redundant_faults = 0;

  /// Detected / (total - redundant), in percent.
  double testable_coverage_percent() const;
};

/// Runs the full ATPG flow for `faults` on `nl`.  The fault simulator,
/// PODEM and the SAT engine share one compiled form: `compiled` (which
/// must describe `nl`) when given — reseed::Pipeline compiles once per
/// circuit for ATPG, fault simulation and every TPG evaluation — else
/// the function compiles `nl` itself.
AtpgResult run_atpg(const netlist::Netlist& nl, const fault::FaultList& faults,
                    const AtpgOptions& opts = {},
                    std::shared_ptr<const netlist::CompiledCircuit> compiled =
                        nullptr);

}  // namespace fbist::atpg
