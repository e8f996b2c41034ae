#include "bist/misr.h"

#include <algorithm>
#include <stdexcept>

namespace fbist::bist {

Misr::Misr(std::size_t width, std::vector<std::size_t> taps)
    : width_(width), taps_(std::move(taps)) {
  if (width_ == 0) throw std::invalid_argument("Misr: zero width");
  if (taps_.empty()) {
    for (const std::size_t t : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      if (t < width_) taps_.push_back(t);
    }
    if (width_ > 1) taps_.push_back(width_ - 1);
  }
  std::sort(taps_.begin(), taps_.end());
  taps_.erase(std::unique(taps_.begin(), taps_.end()), taps_.end());
  for (const std::size_t t : taps_) {
    if (t >= width_) throw std::invalid_argument("Misr: tap beyond width");
  }
}

util::WideWord Misr::step(const util::WideWord& state,
                          const util::WideWord& response) const {
  if (state.bits() != width_ || response.bits() > width_) {
    throw std::invalid_argument("Misr::step: width mismatch");
  }
  bool feedback = false;
  for (const std::size_t t : taps_) feedback ^= state.get_bit(t);
  util::WideWord next = state;
  next.shl1(feedback);
  // Zero-extend narrower responses (register wider than the UUT's PO
  // vector lowers the aliasing probability to ~2^-width).
  util::WideWord inject(width_);
  for (std::size_t i = 0; i < response.bits(); ++i) {
    inject.set_bit(i, response.get_bit(i));
  }
  next.bxor(inject);
  return next;
}

util::WideWord Misr::signature(const std::vector<util::WideWord>& responses) const {
  util::WideWord state(width_);
  for (const auto& r : responses) state = step(state, r);
  return state;
}

std::vector<util::WideWord> golden_responses(const netlist::Netlist& nl,
                                             const sim::PatternSet& patterns) {
  const sim::LogicSim sim(nl);
  std::vector<util::WideWord> out;
  out.reserve(patterns.size());
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    out.push_back(sim.output_response(patterns.pattern(p)));
  }
  return out;
}

util::WideWord golden_signature(const netlist::Netlist& nl,
                                const sim::PatternSet& patterns,
                                const Misr& misr) {
  return misr.signature(golden_responses(nl, patterns));
}

}  // namespace fbist::bist
