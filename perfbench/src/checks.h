// Correctness checks on a benchmark invocation's outputs.  All of them
// run outside the timed region; each failure is one message.
#pragma once

#include <string>
#include <vector>

#include "campaign/report.h"
#include "layered.h"

namespace perfbench {

/// Every run is ok and covers every fault it targets.
void check_runs(const fbist::campaign::Report& report,
                std::vector<std::string>& errors);

/// The layered replay reproduces every campaign row field for field,
/// and every solution is minimal (reseed::solution_is_minimal).
void check_layered(const fbist::campaign::Report& report,
                   const LayeredResult& layered,
                   std::vector<std::string>& errors);

/// Each run's trimmed triplets, expanded with tpg::expand_triplet and
/// fault-simulated by sim::ReferenceFaultSim (the seed simulator,
/// which shares no code with the packed walker), detect at least the
/// row's faults_covered.
void check_reference_sim(const fbist::campaign::Report& report,
                         const LayeredResult& layered,
                         std::vector<std::string>& errors);

}  // namespace perfbench
