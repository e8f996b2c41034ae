// End-to-end Functional-BIST reseeding pipeline for one circuit + TPG.
//
// Bundles the whole computation flow of the paper's Figure 1:
//   circuit -> collapsed fault list -> ATPG (TestGen substitute)
//           -> Initial Reseeding Builder -> Matrix Reducer -> exact solve
//           -> final reseeding solution.
//
// The pipeline object owns the per-circuit state (netlist, compiled
// circuit, fault list, fault simulator, ATPG test set) so that multiple
// TPGs / multiple T values can be evaluated without re-running ATPG.
// The circuit is compiled exactly once (netlist::CompiledCircuit) and
// that flat form is shared by ATPG, PODEM, and the fault simulator that
// builds every candidate triplet's detection-matrix column — the
// structure is never re-derived per candidate.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "atpg/engine.h"
#include "circuits/registry.h"
#include "fault/fault.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"
#include "reseed/initial_builder.h"
#include "reseed/optimizer.h"
#include "sim/fault_sim.h"
#include "tpg/tpg.h"

namespace fbist::reseed {

class MatrixCache;

struct PipelineOptions {
  atpg::AtpgOptions atpg;
  BuilderOptions builder;
  OptimizerOptions optimizer;
  /// Cross-run detection-matrix cache (reseed/matrix_cache.h) shared by
  /// every run of this pipeline — and, when the campaign layer installs
  /// one, across circuits and processes.  Null disables caching.
  std::shared_ptr<MatrixCache> matrix_cache;
};

/// One run of the pipeline: a TPG kind, its per-triplet evolution
/// length, and optional per-run overrides.
struct RunRequest {
  RunRequest(tpg::TpgKind tpg, std::size_t cycles = 0,
             std::optional<OptimizerOptions> optimizer = std::nullopt,
             const util::Deadline* deadline = nullptr)
      : tpg(tpg), cycles(cycles), optimizer(optimizer), deadline(deadline) {}

  tpg::TpgKind tpg;
  /// Overrides BuilderOptions::cycles_per_triplet when != 0.
  std::size_t cycles;
  /// Per-run optimizer options (campaigns cross solver choices without
  /// re-preparing the circuit); unset uses PipelineOptions::optimizer.
  std::optional<OptimizerOptions> optimizer;
  /// Polled cooperatively through the builder, optimizer and exact
  /// solver when armed; expiry throws util::TimeoutError (the campaign
  /// runner turns it into a canonical timeout failure).
  const util::Deadline* deadline;
};

/// Per-circuit context reusable across TPGs.
///
/// Construction prepares the circuit: netlist, compiled form, collapsed
/// fault list and ATPG test set.  After that the object is immutable and
/// safe to share across threads (campaigns hold it as a PreparedCircuit
/// and fan N runs out over it).  The two stages of the paper's Figure 1
/// are the two entry points:
///   build()  the Initial Reseeding Builder — fills the detection matrix
///            (through the matrix cache when one is installed);
///   run()    build() followed by the set-covering optimizer — the final
///            reseeding solution.
/// Callers that want the matrix and the solution call build() and then
/// reseed::optimize(initial, options().optimizer).
class Pipeline {
 public:
  /// Builds the context for a registry circuit (see circuits/registry.h).
  explicit Pipeline(const std::string& circuit_name, PipelineOptions opts = {});
  /// Builds the context for an arbitrary netlist.
  Pipeline(netlist::Netlist nl, std::string name, PipelineOptions opts = {});

  /// Initial Reseeding Builder for one TPG kind; `cycles` != 0 overrides
  /// the per-triplet evolution length.
  InitialReseeding build(tpg::TpgKind kind, std::size_t cycles = 0,
                         const util::Deadline* deadline = nullptr) const;

  /// build() + optimize(): the final reseeding solution of one run.
  ReseedingSolution run(const RunRequest& request) const;

  const std::string& name() const { return name_; }
  const netlist::Netlist& circuit() const { return nl_; }
  const netlist::CompiledCircuit& compiled() const { return *compiled_; }
  const fault::FaultList& faults() const { return faults_; }
  const sim::FaultSim& fault_sim() const { return *fsim_; }
  const atpg::AtpgResult& atpg_result() const { return atpg_; }
  const sim::PatternSet& atpg_patterns() const { return atpg_.patterns; }
  const PipelineOptions& options() const { return opts_; }

 private:
  void init();

  std::string name_;
  PipelineOptions opts_;
  netlist::Netlist nl_;
  std::shared_ptr<const netlist::CompiledCircuit> compiled_;
  fault::FaultList faults_;
  std::unique_ptr<sim::FaultSim> fsim_;
  atpg::AtpgResult atpg_;
};

/// The shareable prepared-circuit handle campaigns pass around; make
/// one with std::make_shared<const Pipeline>(...).
using PreparedCircuit = std::shared_ptr<const Pipeline>;

}  // namespace fbist::reseed
