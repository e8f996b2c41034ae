// Internal: inlined bit-parallel gate evaluation over compiled fanin
// spans, reading each fanin through `load`.  Its one caller is the
// good-value schedule walk (logic_sim.cpp).  The fault-cone walk
// (fault_sim.cpp) keeps its own gate switch: it evaluates N-block
// WordV chunks over a packed cone program, not 64-bit words over
// compiled fanin spans.
#pragma once

#include <cstddef>
#include <cstdint>

#include "netlist/compiled.h"

namespace fbist::sim::detail {

template <typename LoadFn>
inline std::uint64_t eval_compiled_gate(netlist::GateType type,
                                        netlist::Span<netlist::NetId> fin,
                                        LoadFn load) {
  using netlist::GateType;
  switch (type) {
    case GateType::kBuf:
      return load(fin[0]);
    case GateType::kNot:
      return ~load(fin[0]);
    case GateType::kAnd: {
      std::uint64_t v = load(fin[0]);
      for (std::size_t i = 1; i < fin.size(); ++i) v &= load(fin[i]);
      return v;
    }
    case GateType::kNand: {
      std::uint64_t v = load(fin[0]);
      for (std::size_t i = 1; i < fin.size(); ++i) v &= load(fin[i]);
      return ~v;
    }
    case GateType::kOr: {
      std::uint64_t v = load(fin[0]);
      for (std::size_t i = 1; i < fin.size(); ++i) v |= load(fin[i]);
      return v;
    }
    case GateType::kNor: {
      std::uint64_t v = load(fin[0]);
      for (std::size_t i = 1; i < fin.size(); ++i) v |= load(fin[i]);
      return ~v;
    }
    case GateType::kXor: {
      std::uint64_t v = load(fin[0]);
      for (std::size_t i = 1; i < fin.size(); ++i) v ^= load(fin[i]);
      return v;
    }
    case GateType::kXnor: {
      std::uint64_t v = load(fin[0]);
      for (std::size_t i = 1; i < fin.size(); ++i) v ^= load(fin[i]);
      return ~v;
    }
    case GateType::kInput:
      break;
  }
  return 0;  // unreachable: inputs never appear in a schedule or cone
}

}  // namespace fbist::sim::detail
