#include "atpg/podem.h"

#include <algorithm>

namespace fbist::atpg {

using netlist::CompiledCircuit;
using netlist::GateType;
using netlist::NetId;

namespace {

std::uint8_t sat_add(std::uint8_t a, std::uint8_t b) {
  const unsigned s = static_cast<unsigned>(a) + b;
  return s > 250 ? 250 : static_cast<std::uint8_t>(s);
}

}  // namespace

Podem::Podem(const netlist::Netlist& nl, PodemOptions opts)
    : Podem(nl, std::make_shared<CompiledCircuit>(nl), std::move(opts)) {}

Podem::Podem(const netlist::Netlist& nl,
             std::shared_ptr<const CompiledCircuit> compiled, PodemOptions opts)
    : cc_(std::move(compiled)), opts_(opts) {
  (void)nl;
  // SCOAP-flavoured controllability: cost of setting each net to 0/1.
  // Saturated small integers are plenty for backtrace tie-breaking.
  const CompiledCircuit& cc = *cc_;
  const std::size_t n = cc.num_nets();
  cc0_.assign(n, 0);
  cc1_.assign(n, 0);
  for (NetId id = 0; id < n; ++id) {
    const auto fin = cc.fanin(id);
    switch (cc.type(id)) {
      case GateType::kInput:
        cc0_[id] = cc1_[id] = 1;
        break;
      case GateType::kBuf:
        cc0_[id] = sat_add(cc0_[fin[0]], 1);
        cc1_[id] = sat_add(cc1_[fin[0]], 1);
        break;
      case GateType::kNot:
        cc0_[id] = sat_add(cc1_[fin[0]], 1);
        cc1_[id] = sat_add(cc0_[fin[0]], 1);
        break;
      case GateType::kAnd:
      case GateType::kNand: {
        std::uint8_t all1 = 1, min0 = 250;
        for (const NetId f : fin) {
          all1 = sat_add(all1, cc1_[f]);
          min0 = std::min(min0, cc0_[f]);
        }
        const std::uint8_t out0 = sat_add(min0, 1);
        if (cc.type(id) == GateType::kAnd) {
          cc0_[id] = out0;
          cc1_[id] = all1;
        } else {
          cc1_[id] = out0;
          cc0_[id] = all1;
        }
        break;
      }
      case GateType::kOr:
      case GateType::kNor: {
        std::uint8_t all0 = 1, min1 = 250;
        for (const NetId f : fin) {
          all0 = sat_add(all0, cc0_[f]);
          min1 = std::min(min1, cc1_[f]);
        }
        const std::uint8_t out1 = sat_add(min1, 1);
        if (cc.type(id) == GateType::kOr) {
          cc1_[id] = out1;
          cc0_[id] = all0;
        } else {
          cc0_[id] = out1;
          cc1_[id] = all0;
        }
        break;
      }
      case GateType::kXor:
      case GateType::kXnor: {
        // Approximate: either parity costs roughly the sum of cheaper sides.
        std::uint8_t acc = 1;
        for (const NetId f : fin) {
          acc = sat_add(acc, std::min(cc0_[f], cc1_[f]));
        }
        cc0_[id] = cc1_[id] = acc;
        break;
      }
    }
  }
  value_.assign(n, kVX);
  queued_.assign(n, 0);
  bucket_.resize(cc.depth() + 1);
  std::size_t max_fanin = 0;
  for (const NetId id : cc.schedule()) max_fanin = std::max(max_fanin, cc.fanin(id).size());
  fanin_buf_.resize(max_fanin);
}

void Podem::set(NetId net, Val5 v) {
  trail_.emplace_back(net, value_[net]);
  value_[net] = v;
  const CompiledCircuit& cc = *cc_;
  for (const NetId reader : cc.fanout(net)) {
    if (queued_[reader]) continue;
    queued_[reader] = 1;
    const std::uint32_t lv = cc.level(reader);
    bucket_[lv].push_back(reader);
    lowest_ = std::min(lowest_, lv);
    highest_ = std::max(highest_, lv);
  }
}

void Podem::propagate() {
  // A reader sits at a higher level than every fanin, so a bucket never
  // grows while it is drained, and one ascending pass reaches a fixpoint.
  const CompiledCircuit& cc = *cc_;
  for (std::uint32_t lv = lowest_; lv <= highest_; ++lv) {
    for (const NetId id : bucket_[lv]) {
      queued_[id] = 0;
      const auto fin = cc.fanin(id);
      for (std::size_t i = 0; i < fin.size(); ++i) fanin_buf_[i] = value_[fin[i]];
      Val5 v = eval_gate5(cc.type(id), fanin_buf_.data(), fin.size());
      if (id == site_) v.faulty = pinned_;
      if (!(v == value_[id])) set(id, v);
    }
    bucket_[lv].clear();
  }
  lowest_ = UINT32_MAX;
  highest_ = 0;
}

void Podem::undo(std::size_t mark) {
  while (trail_.size() > mark) {
    value_[trail_.back().first] = trail_.back().second;
    trail_.pop_back();
  }
}

void Podem::assign_pi(NetId pi, Tern v) {
  Val5 nv = v == Tern::k1 ? kV1 : kV0;
  if (pi == site_) nv.faulty = pinned_;  // a PI site stays pinned
  set(pi, nv);
  propagate();
}

bool Podem::fault_activated(const fault::Fault& f) const {
  const Val5& v = value_[f.net];
  // Activated when the good value is the complement of the stuck value.
  return v.good == (f.stuck_value ? Tern::k0 : Tern::k1);
}

bool Podem::d_at_output() const {
  for (const NetId o : cc_->outputs()) {
    if (value_[o].is_d_or_dbar()) return true;
  }
  return false;
}

std::optional<std::pair<NetId, Tern>> Podem::objective(const fault::Fault& f) const {
  // Objective 1: activate the fault — drive the site's good value to the
  // complement of the stuck value.
  const Val5& site = value_[f.net];
  if (site.good == Tern::kX) {
    return std::make_pair(f.net, f.stuck_value ? Tern::k0 : Tern::k1);
  }
  if (!fault_activated(f)) return std::nullopt;  // good value fixed wrong

  // Objective 2: advance the D-frontier gate closest to an output.
  const CompiledCircuit& cc = *cc_;
  NetId best_gate = netlist::kNullNet;
  std::uint32_t best_level = 0;
  for (const NetId id : cone_nets_) {
    if (!value_[id].is_d_or_dbar()) continue;
    for (const NetId reader : cc.fanout(id)) {
      const Val5& rv = value_[reader];
      if (rv.good != Tern::kX && rv.faulty != Tern::kX) continue;
      if (best_gate == netlist::kNullNet || cc.level(reader) > best_level) {
        best_gate = reader;
        best_level = cc.level(reader);
      }
    }
  }
  if (best_gate == netlist::kNullNet) return std::nullopt;

  // Set one X fanin of the frontier gate to the non-controlling value.
  const GateType gt = cc.type(best_gate);
  Tern want;
  if (netlist::has_controlling_value(gt)) {
    want = netlist::controlling_value(gt) ? Tern::k0 : Tern::k1;
  } else {
    // XOR/XNOR/NOT/BUF: any definite value propagates; aim for the
    // cheaper side of the first X fanin.
    want = Tern::k0;
  }
  // A fanin is assignable while *either* side is X — inside the fault
  // cone one side is often pinned by the stuck value while the other
  // is still free (e.g. a frontier gate whose good output is blocked
  // can still come up D' by driving the faulty side non-controlling).
  // Requiring is_x() (both sides X) skips such nets and turns
  // reachable objectives into false conflicts — and ultimately false
  // kUntestable claims; the differential suite (DifferentialAtpg)
  // cross-checks exactly this against the SAT engine.
  for (const NetId fin : cc.fanin(best_gate)) {
    if (value_[fin].has_x()) {
      if (!netlist::has_controlling_value(gt)) {
        want = cc0_[fin] <= cc1_[fin] ? Tern::k0 : Tern::k1;
      }
      return std::make_pair(fin, want);
    }
  }
  return std::nullopt;  // frontier gate has no X fanin to set
}

std::pair<NetId, Tern> Podem::backtrace(NetId net, Tern value) const {
  // Walk from the objective toward a PI, choosing at each gate the
  // easiest fanin per controllability, flipping the target value through
  // inversions.
  const CompiledCircuit& cc = *cc_;
  NetId cur = net;
  Tern want = value;
  while (cc.type(cur) != GateType::kInput) {
    const GateType gt = cc.type(cur);
    const auto fin = cc.fanin(cur);
    const bool inv = netlist::is_inverting(gt);
    Tern child_want = want;
    if (gt == GateType::kNot || gt == GateType::kBuf) {
      child_want = inv ? tern_not(want) : want;
      cur = fin[0];
      want = child_want;
      continue;
    }
    if (gt == GateType::kXor || gt == GateType::kXnor) {
      // Pick the first X fanin; required value depends on the others,
      // which may be X — aim for the cheaper side (heuristic only; the
      // implication pass validates).
      NetId pick = fin[0];
      for (const NetId fi : fin) {
        if (value_[fi].has_x()) {
          pick = fi;
          break;
        }
      }
      want = cc0_[pick] <= cc1_[pick] ? Tern::k0 : Tern::k1;
      cur = pick;
      continue;
    }
    // AND/NAND/OR/NOR.
    const Tern base_want = inv ? tern_not(want) : want;  // want at gate "core"
    const bool need_all = (gt == GateType::kAnd || gt == GateType::kNand)
                              ? base_want == Tern::k1
                              : base_want == Tern::k0;
    // need_all: every fanin must take the non-controlling value -> pick
    // the *hardest* X fanin first (fail fast).  Otherwise one fanin at
    // the controlling value suffices -> pick the easiest.
    const Tern child = (gt == GateType::kAnd || gt == GateType::kNand)
                           ? (need_all ? Tern::k1 : Tern::k0)
                           : (need_all ? Tern::k0 : Tern::k1);
    NetId pick = netlist::kNullNet;
    std::uint8_t best_cost = 0;
    for (const NetId fi : fin) {
      // has_x(), not is_x(): cone nets with one side pinned are still
      // assignable through the other (see objective()).
      if (!value_[fi].has_x()) continue;
      const std::uint8_t cost = child == Tern::k0 ? cc0_[fi] : cc1_[fi];
      if (pick == netlist::kNullNet ||
          (need_all ? cost > best_cost : cost < best_cost)) {
        pick = fi;
        best_cost = cost;
      }
    }
    if (pick == netlist::kNullNet) {
      // No X fanin left; fall back to first fanin (implication will
      // surface the conflict).
      pick = fin[0];
    }
    cur = pick;
    want = child;
  }
  return {cur, want};
}

PodemResult Podem::generate(const fault::Fault& f) {
  const CompiledCircuit& cc = *cc_;
  PodemResult result;
  result.pattern = util::WideWord(cc.num_inputs());
  result.care = util::WideWord(cc.num_inputs());

  // Precompiled cone slice — the seed recomputed this BFS per fault.
  const auto cone = cc.cone_gates(f.net);
  cone_nets_.clear();
  cone_nets_.reserve(cone.size() + 1);
  cone_nets_.push_back(f.net);
  cone_nets_.insert(cone_nets_.end(), cone.begin(), cone.end());

  // All-X with nothing assigned, then the stuck value pinned on the
  // site's faulty side and implied out of it.
  undo(0);
  stack_.clear();
  site_ = f.net;
  pinned_ = f.stuck_value ? Tern::k1 : Tern::k0;
  set(f.net, Val5{Tern::kX, pinned_});
  propagate();

  while (true) {
    if (fault_activated(f) && d_at_output()) {
      result.status = PodemStatus::kTestFound;
      for (const Frame& fr : stack_) {
        const std::size_t idx = cc.input_index(fr.pi);
        result.pattern.set_bit(idx, fr.value == Tern::k1);
        result.care.set_bit(idx, true);
      }
      return result;
    }

    // No objective means no way forward: the site is fixed at the stuck
    // value, or the D-frontier is empty.
    if (const auto obj = objective(f)) {
      const auto [pi, v] = backtrace(obj->first, obj->second);
      // A PI is free iff its good value is unassigned.  (Checking is_x()
      // would wrongly treat a fault site PI as assigned: its faulty side
      // is pinned to the stuck value.)
      if (value_[pi].good == Tern::kX) {
        stack_.push_back(Frame{pi, v, false, trail_.size()});
        ++result.decisions;
        assign_pi(pi, v);
        continue;
      }
      // Backtrace landed on an assigned PI — treat as a conflict.
    }

    // Backtrack: flip the deepest untried decision, popping tried ones.
    // Undoing to its mark also discards whatever the popped frames set.
    while (!stack_.empty() && stack_.back().tried_both) stack_.pop_back();
    if (stack_.empty()) {
      result.status = PodemStatus::kUntestable;
      return result;
    }
    Frame& top = stack_.back();
    top.tried_both = true;
    top.value = tern_not(top.value);
    ++result.backtracks;
    if (result.backtracks > opts_.backtrack_limit) {
      result.status = PodemStatus::kAborted;
      return result;
    }
    undo(top.mark);
    assign_pi(top.pi, top.value);
  }
}

}  // namespace fbist::atpg
