#include "tpg/triplet.h"

#include <sstream>

namespace fbist::tpg {

std::string Triplet::to_string() const {
  std::ostringstream ss;
  ss << "(delta=0x" << delta.to_hex() << ", sigma=0x" << sigma.to_hex()
     << ", T=" << cycles << ")";
  return ss.str();
}

sim::PatternSet expand_triplet(const Tpg& tpg, const Triplet& t) {
  sim::PatternSet ps(tpg.width(), t.cycles);
  expand_triplet_into(tpg, t, ps, 0);
  return ps;
}

void expand_triplet_into(const Tpg& tpg, const Triplet& t, sim::PatternSet& ps,
                         std::size_t base) {
  const std::size_t n = t.cycles;
  if (n == 0) return;
  const util::WideWord sigma = tpg.legalize_sigma(t.sigma);
  util::WideWord state = t.delta;
  for (std::size_t i = 0; i < n; ++i) {
    ps.set_pattern(base + i, state);
    if (i + 1 < n) state = tpg.step(state, sigma);
  }
}

sim::PatternSet expand_all(const Tpg& tpg, const std::vector<Triplet>& ts) {
  sim::PatternSet all(tpg.width(), 0);
  for (const auto& t : ts) {
    all.append_all(expand_triplet(tpg, t));
  }
  return all;
}

}  // namespace fbist::tpg
