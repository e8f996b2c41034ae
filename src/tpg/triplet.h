// Reseeding triplets and their expansion into test sets.
//
// A triplet (delta, sigma, T) fully determines one TPG run: the state
// register is loaded with delta, the input operand register with sigma,
// and the TPG evolves for T clocks.  The test set TS of the triplet is
// the sequence of T state values observed at the TPG outputs (the seed
// itself is the first applied pattern, matching the paper's convention
// that with T=1 the test set equals the ATPG pattern used as delta).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/pattern.h"
#include "tpg/tpg.h"
#include "util/wideword.h"

namespace fbist::tpg {

struct Triplet {
  util::WideWord delta;  // initial state
  util::WideWord sigma;  // held input operand
  std::size_t cycles = 0;  // T: number of patterns produced

  std::string to_string() const;
  bool operator==(const Triplet& o) const {
    return delta == o.delta && sigma == o.sigma && cycles == o.cycles;
  }
};

/// Expands `t` on `tpg` into its test set (t.cycles patterns, width =
/// tpg.width()).  sigma is legalized by the TPG first.  A trimmed
/// triplet (fewer cycles) expands to a prefix of the untrimmed run.
sim::PatternSet expand_triplet(const Tpg& tpg, const Triplet& t);

/// Expands `t` directly into patterns [base, base + t.cycles) of `ps`
/// (already sized; width = tpg.width()) — the lane-packed form used by
/// sim::FaultSim::run_packed, with no intermediate PatternSet.
void expand_triplet_into(const Tpg& tpg, const Triplet& t, sim::PatternSet& ps,
                         std::size_t base);

/// Concatenation of the test sets of all triplets, in order.
sim::PatternSet expand_all(const Tpg& tpg, const std::vector<Triplet>& ts);

}  // namespace fbist::tpg
