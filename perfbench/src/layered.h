// The layered replay: re-runs a campaign by calling each layer's
// public function itself, one call at a time, and (optionally) records
// a span around every call.
//
// Per circuit, in canonical order: netlist::parse_bench_file, the
// CompiledCircuit constructor, FaultList::collapsed, atpg::run_atpg and
// the sim::FaultSim constructor; per run: tpg::make_tpg,
// reseed::build_initial_reseeding and reseed::optimize.  Seeds are
// derived exactly as reseed::Pipeline derives them, so every run
// reproduces the campaign's row.  Spans live in memory; each leaf span
// carries the obs::Registry counter delta taken at its boundaries, so
// the program's own counters are attributed to the calling layer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "atpg/engine.h"
#include "campaign/spec.h"
#include "fault/fault.h"
#include "netlist/compiled.h"
#include "netlist/netlist.h"
#include "obs/metrics.h"
#include "reseed/initial_builder.h"
#include "reseed/optimizer.h"
#include "sim/fault_sim.h"

namespace perfbench {

struct Span {
  std::string name;  // "<layer>.<call>", or a glue span: replay/circuit/run
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  // index into the span list; -1 for the root
  std::string circuit;
  int run = -1;  // canonical run position; -1 outside runs
  bool leaf = false;  // a layer call (glue spans only group them)
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// In-memory span recorder.  Disabled, it records nothing and takes no
/// counter snapshots; calls still run.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Runs `fn` inside a span.  `leaf` spans also record the counter
  /// delta over the call; the snapshots are taken outside the span's
  /// interval so they land in the parent's self time.
  template <typename Fn>
  auto call(const char* name, const std::string& circuit, int run, bool leaf,
            Fn&& fn) -> decltype(fn()) {
    if (!enabled_) return fn();
    const int id = open(name, circuit, run, leaf);
    struct Closer {
      SpanLog* log;
      int id;
      ~Closer() { log->close(id); }
    } closer{this, id};
    return fn();
  }

  /// Attaches a result count (e.g. ATPG patterns) to the span closed
  /// last, beside its counter delta.
  void note(const char* key, std::uint64_t value) {
    if (enabled_) spans_.back().counters.emplace_back(key, value);
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  int open(const char* name, const std::string& circuit, int run, bool leaf);
  void close(int id);

  bool enabled_;
  int current_ = -1;
  std::vector<Span> spans_;
  std::vector<fbist::obs::MetricsSnapshot> base_;  // per span; empty for glue
};

/// One circuit's prepared state.  Non-movable: FaultSim keeps
/// references to the netlist and the target fault list.
struct CircuitLayers {
  std::string name;
  fbist::netlist::Netlist nl;
  std::shared_ptr<const fbist::netlist::CompiledCircuit> compiled;
  fbist::fault::FaultList collapsed;
  fbist::atpg::AtpgResult atpg;
  fbist::fault::FaultList targets;  // ATPG-detected faults
  std::unique_ptr<fbist::sim::FaultSim> fsim;

  CircuitLayers() = default;
  CircuitLayers(const CircuitLayers&) = delete;
  CircuitLayers& operator=(const CircuitLayers&) = delete;
};

struct RunLayers {
  std::size_t circuit = 0;  // index into LayeredResult::circuits
  fbist::campaign::RunSpec spec;
  fbist::reseed::InitialReseeding initial;
  fbist::reseed::ReseedingSolution sol;
};

struct LayeredResult {
  std::vector<std::unique_ptr<CircuitLayers>> circuits;  // spec order
  std::vector<RunLayers> runs;                           // canonical order
  std::vector<Span> spans;  // empty unless traced
  std::uint64_t wall_ns = 0;
};

/// Sequential replay, one call at a time; `traced` records spans.
LayeredResult run_layered(const fbist::campaign::CampaignSpec& spec,
                          bool traced);

/// The same calls as pool tasks (circuits, then runs), untraced — the
/// cheap way to get every run's solution for checking.
LayeredResult run_layered_parallel(const fbist::campaign::CampaignSpec& spec);

}  // namespace perfbench
