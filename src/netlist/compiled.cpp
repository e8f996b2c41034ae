#include "netlist/compiled.h"

#include <algorithm>

namespace fbist::netlist {

CompiledCircuit::CompiledCircuit(const Netlist& nl, bool build_cone_slices) {
  const std::size_t n = nl.num_nets();
  inputs_ = nl.inputs();
  outputs_ = nl.outputs();

  // --- gate types + CSR fanin (construction order preserved) -----------
  type_.resize(n);
  fanin_offset_.assign(n + 1, 0);
  for (NetId id = 0; id < n; ++id) {
    const Gate& g = nl.gate(id);
    type_[id] = g.type;
    fanin_offset_[id + 1] = fanin_offset_[id] + static_cast<std::uint32_t>(g.fanin.size());
  }
  fanin_.resize(fanin_offset_[n]);
  for (NetId id = 0; id < n; ++id) {
    std::copy(nl.gate(id).fanin.begin(), nl.gate(id).fanin.end(),
              fanin_.begin() + fanin_offset_[id]);
  }

  // --- CSR fanout: readers sorted ascending by construction ------------
  fanout_offset_.assign(n + 1, 0);
  for (const NetId f : fanin_) ++fanout_offset_[f + 1];
  for (std::size_t i = 1; i <= n; ++i) fanout_offset_[i] += fanout_offset_[i - 1];
  fanout_.resize(fanin_.size());
  {
    std::vector<std::uint32_t> cursor(fanout_offset_.begin(), fanout_offset_.end() - 1);
    for (NetId id = 0; id < n; ++id) {
      for (std::uint32_t i = fanin_offset_[id]; i < fanin_offset_[id + 1]; ++i) {
        fanout_[cursor[fanin_[i]]++] = id;
      }
    }
  }

  // --- schedule + levels (net numbering is already topological) --------
  schedule_.reserve(n - inputs_.size());
  level_.assign(n, 0);
  for (NetId id = 0; id < n; ++id) {
    if (type_[id] == GateType::kInput) continue;
    schedule_.push_back(id);
    std::uint32_t lv = 0;
    for (std::uint32_t i = fanin_offset_[id]; i < fanin_offset_[id + 1]; ++i) {
      lv = std::max(lv, level_[fanin_[i]] + 1);
    }
    level_[id] = lv;
    depth_ = std::max(depth_, lv);
  }

  // --- PI/PO position tables + output reachability ---------------------
  input_pos_.assign(n, kNoPos);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    input_pos_[inputs_[i]] = static_cast<std::uint32_t>(i);
  }
  output_pos_.assign(n, kNoPos);
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    output_pos_[outputs_[i]] = static_cast<std::uint32_t>(i);
  }
  reach_.assign(n, 0);
  for (const NetId o : outputs_) reach_[o] = 1;
  for (NetId id = static_cast<NetId>(n); id-- > 0;) {
    if (!reach_[id]) continue;
    for (std::uint32_t i = fanin_offset_[id]; i < fanin_offset_[id + 1]; ++i) {
      reach_[fanin_[i]] = 1;
    }
  }

  // --- per-net fanout-cone slices --------------------------------------
  // One DFS per root over the CSR fanout arrays; a per-net stamp marks
  // membership for the current root, so no per-root allocation happens.
  if (!build_cone_slices) return;
  cone_offset_.assign(n + 1, 0);
  cone_out_offset_.assign(n + 1, 0);
  std::vector<NetId> stamp(n, kNullNet);
  std::vector<std::uint32_t> slot_of(n, 0);
  std::vector<NetId> stack;
  std::vector<NetId> gates;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out_pos_slot;
  for (NetId root = 0; root < n; ++root) {
    stamp[root] = root;
    stack.assign(1, root);
    gates.clear();
    while (!stack.empty()) {
      const NetId cur = stack.back();
      stack.pop_back();
      for (std::uint32_t i = fanout_offset_[cur]; i < fanout_offset_[cur + 1]; ++i) {
        const NetId reader = fanout_[i];
        if (stamp[reader] == root) continue;
        stamp[reader] = root;
        gates.push_back(reader);
        stack.push_back(reader);
      }
    }
    std::sort(gates.begin(), gates.end());
    max_cone_gates_ = std::max(max_cone_gates_, gates.size());

    // Dense cone-local numbering: root = slot 0, gates[i] = slot i + 1.
    slot_of[root] = 0;
    for (std::size_t i = 0; i < gates.size(); ++i) {
      slot_of[gates[i]] = static_cast<std::uint32_t>(i + 1);
    }

    out_pos_slot.clear();
    if (output_pos_[root] != kNoPos) out_pos_slot.emplace_back(output_pos_[root], 0u);
    for (const NetId g : gates) {
      if (output_pos_[g] != kNoPos) {
        out_pos_slot.emplace_back(output_pos_[g], slot_of[g]);
      }
    }
    std::sort(out_pos_slot.begin(), out_pos_slot.end());

    cone_gates_.insert(cone_gates_.end(), gates.begin(), gates.end());
    for (const auto& [pos, slot] : out_pos_slot) {
      cone_outputs_.push_back(pos);
      cone_out_slot_.push_back(slot);
    }
    cone_offset_[root + 1] = cone_gates_.size();
    cone_out_offset_[root + 1] = cone_outputs_.size();
  }

  // --- cone evaluation programs (encoding: compiled.h) ------------------
  // Second pass so the encoding can be chosen from whole-circuit limits:
  // narrow packs (id, slot, fanin count) into 16/16/12 bits.
  std::size_t max_fanin = 0;
  for (NetId id = 0; id < n; ++id) {
    max_fanin = std::max<std::size_t>(max_fanin, fanin_offset_[id + 1] - fanin_offset_[id]);
  }
  narrow_programs_ = n < (1u << 16) && max_cone_gates_ + 2 < (1u << 16) &&
                     max_fanin < (1u << 12);
  cone_prog_offset_.assign(n + 1, 0);
  for (NetId root = 0; root < n; ++root) {
    // Re-establish this root's slot numbering from the stored slice.
    const std::uint64_t begin = cone_offset_[root];
    const std::uint64_t end = cone_offset_[root + 1];
    stamp[root] = root;
    slot_of[root] = 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      stamp[cone_gates_[i]] = root;
      slot_of[cone_gates_[i]] = static_cast<std::uint32_t>(i - begin + 1);
    }
    const std::uint32_t sentinel = static_cast<std::uint32_t>(end - begin + 1);
    for (std::uint64_t gi = begin; gi < end; ++gi) {
      const NetId g = cone_gates_[gi];
      const std::uint32_t k = fanin_offset_[g + 1] - fanin_offset_[g];
      if (narrow_programs_) {
        cone_prog_.push_back((static_cast<std::uint32_t>(g) << 16) | (k << 4) |
                             static_cast<std::uint32_t>(type_[g]));
      } else {
        cone_prog_.push_back((k << 8) | static_cast<std::uint32_t>(type_[g]));
        cone_prog_.push_back(g);
      }
      for (std::uint32_t i = fanin_offset_[g]; i < fanin_offset_[g + 1]; ++i) {
        const NetId f = fanin_[i];
        const std::uint32_t slot = stamp[f] == root ? slot_of[f] : sentinel;
        if (narrow_programs_) {
          cone_prog_.push_back((slot << 16) | static_cast<std::uint32_t>(f));
        } else {
          cone_prog_.push_back(slot);
          cone_prog_.push_back(f);
        }
      }
    }
    cone_prog_offset_[root + 1] = cone_prog_.size();
  }
}

}  // namespace fbist::netlist
