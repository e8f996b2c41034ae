// PODEM (Path-Oriented DEcision Making) test generation for one fault.
//
// Classic algorithm: decisions are made only on primary inputs, derived
// values are obtained by forward implication over the 5-valued algebra,
// objectives are (activate fault) then (propagate a D through the
// closest D-frontier gate), and objectives are mapped to PI assignments
// by a controllability-guided backtrace.  A backtrack limit bounds the
// search; exhausting the search space proves the fault untestable
// (combinationally redundant).
//
// Implication is event-driven and undoable.  Assigning a PI
// re-evaluates only the gates whose fanin changed, level by level, and
// every net it changes is logged with its old value on a trail.  Each
// decision-stack frame records the trail length before its assignment,
// so flipping a decision undoes the trail to that mark (which also
// discards what any frame popped above it set) and assigns the other
// value.  Because implication is a pure forward function of the PI
// assignment (with the fault site's faulty side pinned to the stuck
// value), the values after an undo are exactly those a full
// re-implication would compute.  The trail, the per-level event
// buckets and the value array belong to the instance and are reused
// across faults; every fault starts from all-X, which is the trail
// undone to empty.
//
// Structure access (fanin/fanout, per-fault cone slices, levels) goes
// through a netlist::CompiledCircuit, which the engine shares with the
// fault simulator instead of re-deriving levels/cones per Podem
// instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "atpg/values.h"
#include "fault/fault.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"
#include "util/wideword.h"

namespace fbist::atpg {

/// Outcome of one PODEM run.
enum class PodemStatus {
  kTestFound,    // `pattern` detects the fault (X bits filled later)
  kUntestable,   // search space exhausted — fault is redundant
  kAborted,      // backtrack limit hit — undecided
};

struct PodemResult {
  PodemStatus status = PodemStatus::kAborted;
  /// PI assignment; bit i = value of input i.  Only meaningful bits are
  /// those in `care`; others may take any value.
  util::WideWord pattern;
  /// care.get_bit(i) == input i was assigned by the search.
  util::WideWord care;
  std::size_t backtracks = 0;
  std::size_t decisions = 0;
};

struct PodemOptions {
  /// Backtrack budget per fault.  Each backtrack costs only the gates
  /// it changes (an undo plus one event-driven implication), so this
  /// bounds worst-case per-fault time; faults that exhaust it are
  /// reported kAborted and leave the target list.
  std::size_t backtrack_limit = 600;
};

/// PODEM engine bound to one netlist (reused across faults).
class Podem {
 public:
  /// Compiles the netlist privately.
  explicit Podem(const netlist::Netlist& nl, PodemOptions opts = {});
  /// Shares an existing compiled form (must describe `nl`).
  Podem(const netlist::Netlist& nl,
        std::shared_ptr<const netlist::CompiledCircuit> compiled,
        PodemOptions opts = {});

  /// Attempts to generate a test for `f`.
  PodemResult generate(const fault::Fault& f);

 private:
  struct Frame {
    netlist::NetId pi;
    Tern value;
    bool tried_both;
    std::size_t mark;  // trail length before this frame's assignment
  };

  /// Assigns `v` to PI `pi` and implies forward.
  void assign_pi(netlist::NetId pi, Tern v);
  /// Sets `net` to `v` (logging the old value) and queues its readers.
  void set(netlist::NetId net, Val5 v);
  /// Re-evaluates queued gates in level order until nothing changes.
  void propagate();
  /// Restores every net changed since the trail had length `mark`.
  void undo(std::size_t mark);

  bool fault_activated(const fault::Fault& f) const;
  bool d_at_output() const;
  /// Next objective (net, value); nullopt when none (failure).
  std::optional<std::pair<netlist::NetId, Tern>> objective(const fault::Fault& f) const;
  /// Maps an objective to a PI and value via controllability backtrace.
  std::pair<netlist::NetId, Tern> backtrace(netlist::NetId net, Tern value) const;

  std::shared_ptr<const netlist::CompiledCircuit> cc_;
  PodemOptions opts_;
  std::vector<Val5> value_;              // per net
  std::vector<std::pair<netlist::NetId, Val5>> trail_;  // (net, old value)
  std::vector<std::vector<netlist::NetId>> bucket_;     // queued gates per level
  std::vector<std::uint8_t> queued_;     // per net: sits in a bucket
  std::uint32_t lowest_ = UINT32_MAX, highest_ = 0;  // non-empty bucket range
  std::vector<Val5> fanin_buf_;          // sized to the widest gate
  std::vector<Frame> stack_;
  netlist::NetId site_ = netlist::kNullNet;  // fault site being searched
  Tern pinned_ = Tern::kX;                   // its stuck value
  std::vector<std::uint8_t> cc0_, cc1_;  // SCOAP-ish controllability (saturated)
  /// D/D' values only ever exist inside the fault's fanout cone, so the
  /// frontier scans walk this list ({fault net} ∪ cone gates) instead of
  /// the whole netlist.
  std::vector<netlist::NetId> cone_nets_;
};

}  // namespace fbist::atpg
