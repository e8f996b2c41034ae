// Human-readable rendering of a reseeding solution.
#pragma once

#include <string>

#include "reseed/optimizer.h"

namespace fbist::reseed {

/// Renders a single solution as a multi-line human-readable block
/// (selected triplets, necessity flags, trimmed lengths, coverage).
std::string solution_to_string(const ReseedingSolution& sol,
                               const std::string& label = {});

}  // namespace fbist::reseed
