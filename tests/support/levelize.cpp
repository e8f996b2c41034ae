#include "support/levelize.h"

#include <algorithm>

namespace fbist::netlist {

std::vector<std::size_t> levelize(const Netlist& nl) {
  std::vector<std::size_t> level(nl.num_nets(), 0);
  for (NetId id = 0; id < nl.num_nets(); ++id) {
    const Gate& g = nl.gate(id);
    std::size_t lv = 0;
    for (const NetId f : g.fanin) lv = std::max(lv, level[f] + 1);
    level[id] = lv;
  }
  return level;
}

std::size_t depth(const Netlist& nl) {
  const auto levels = levelize(nl);
  return levels.empty() ? 0 : *std::max_element(levels.begin(), levels.end());
}

std::vector<NetId> topological_order(const Netlist& nl) {
  std::vector<NetId> order(nl.num_nets());
  for (NetId id = 0; id < nl.num_nets(); ++id) order[id] = id;
  return order;
}

std::vector<bool> reaches_output(const Netlist& nl) {
  std::vector<bool> reach(nl.num_nets(), false);
  for (const NetId o : nl.outputs()) reach[o] = true;
  for (NetId id = nl.num_nets(); id-- > 0;) {
    if (!reach[id]) continue;
    for (const NetId f : nl.gate(id).fanin) reach[f] = true;
  }
  return reach;
}

}  // namespace fbist::netlist
