#include "layered.h"

#include <map>

#include "campaign/scheduler.h"
#include "netlist/bench_io.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "tpg/tpg.h"
#include "util/rng.h"

namespace perfbench {

namespace fc = fbist::campaign;
namespace fr = fbist::reseed;
using fbist::obs::Clock;

namespace {

void prepare_circuit(CircuitLayers& c, const fr::PipelineOptions& popts,
                     SpanLog& log) {
  const std::string& name = c.name;
  c.nl = log.call("netlist.parse", name, -1, true, [&] {
    return fbist::netlist::parse_bench_file(name);
  });
  c.compiled = log.call("netlist.compile", name, -1, true, [&] {
    return std::make_shared<const fbist::netlist::CompiledCircuit>(c.nl);
  });
  c.collapsed = log.call("fault.collapse", name, -1, true, [&] {
    return fbist::fault::FaultList::collapsed(*c.compiled);
  });
  log.note("fault.collapsed", c.collapsed.size());
  fbist::atpg::AtpgOptions aopts = popts.atpg;
  aopts.seed ^= fbist::util::hash_string(name);
  c.atpg = log.call("atpg.run", name, -1, true, [&] {
    return fbist::atpg::run_atpg(c.nl, c.collapsed, aopts, c.compiled);
  });
  log.note("atpg.patterns", c.atpg.patterns.size());
  log.note("atpg.random_patterns", c.atpg.random_patterns_used);
  log.note("atpg.podem_patterns", c.atpg.deterministic_patterns);
  log.note("atpg.redundant", c.atpg.redundant_faults);
  std::vector<bool> drop(c.collapsed.size(), false);
  for (std::size_t f = 0; f < drop.size(); ++f) {
    drop[f] = c.atpg.verdict[f] != fbist::atpg::FaultVerdict::kDetected;
  }
  c.targets = c.collapsed.without(drop);
  c.fsim = log.call("sim.setup", name, -1, true, [&] {
    return std::make_unique<fbist::sim::FaultSim>(c.nl, c.targets, c.compiled);
  });
}

void evaluate_run(const CircuitLayers& c, RunLayers& r, int pos,
                  const fr::PipelineOptions& popts, SpanLog& log) {
  const auto tpg = log.call("tpg.make", c.name, pos, true, [&] {
    return fbist::tpg::make_tpg(r.spec.tpg, c.nl.num_inputs());
  });
  fr::BuilderOptions b = popts.builder;
  if (r.spec.cycles != 0) b.cycles_per_triplet = r.spec.cycles;
  b.seed ^= fbist::util::hash_string(c.name) ^
            static_cast<std::uint64_t>(r.spec.tpg);
  r.initial = log.call("reseed.build", c.name, pos, true, [&] {
    return fr::build_initial_reseeding(*c.fsim, *tpg, c.atpg.patterns, b);
  });
  log.note("reseed.matrix_cells",
           r.initial.matrix.num_rows() * r.initial.matrix.num_cols());
  log.note("reseed.uncoverable", r.initial.uncovered_faults.size());
  fr::OptimizerOptions o = popts.optimizer;
  o.solver = r.spec.solver;
  r.sol = log.call("reseed.optimize", c.name, pos, true,
                   [&] { return fr::optimize(r.initial, o); });
  log.note("cover.residual_cells", r.sol.residual_rows * r.sol.residual_cols);
  log.note("cover.triplets", r.sol.num_triplets());
  log.note("cover.necessary", r.sol.necessary_count);
  log.note("cover.nodes", r.sol.solver_nodes);
  log.note("cover.optimal", r.sol.solver_optimal ? 1 : 0);
}

/// Circuits in spec order and runs in canonical order, each run
/// pointing at its circuit.
LayeredResult plan(const fc::CampaignSpec& spec) {
  LayeredResult out;
  std::map<std::string, std::size_t> index;
  for (const std::string& name : spec.circuits) {
    if (!index.emplace(name, out.circuits.size()).second) continue;
    out.circuits.push_back(std::make_unique<CircuitLayers>());
    out.circuits.back()->name = name;
  }
  for (const fc::RunSpec& rs : spec.expand()) {
    RunLayers r;
    r.circuit = index.at(rs.circuit);
    r.spec = rs;
    out.runs.push_back(std::move(r));
  }
  return out;
}

}  // namespace

int SpanLog::open(const char* name, const std::string& circuit, int run,
                  bool leaf) {
  Span s;
  s.name = name;
  s.parent = current_;
  s.circuit = circuit;
  s.run = run;
  s.leaf = leaf;
  base_.push_back(leaf ? fbist::obs::Registry::global().snapshot()
                       : fbist::obs::MetricsSnapshot{});
  s.start_ns = Clock::now_ns();
  spans_.push_back(std::move(s));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void SpanLog::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = Clock::now_ns();
  if (s.leaf) {
    const fbist::obs::MetricsSnapshot delta =
        fbist::obs::Registry::global().snapshot().delta_from(
            base_[static_cast<std::size_t>(id)]);
    for (const auto& [name, v] : delta.counters) {
      if (v != 0) s.counters.emplace_back(name, v);
    }
    base_[static_cast<std::size_t>(id)] = {};  // only open spans need theirs
  }
  current_ = s.parent;
}

LayeredResult run_layered(const fc::CampaignSpec& spec, bool traced) {
  LayeredResult out = plan(spec);
  SpanLog log(traced);
  const std::uint64_t t0 = Clock::now_ns();
  log.call("replay", "", -1, false, [&] {
    for (auto& c : out.circuits) {
      log.call("circuit", c->name, -1, false,
               [&] { prepare_circuit(*c, spec.pipeline, log); });
    }
    for (std::size_t i = 0; i < out.runs.size(); ++i) {
      RunLayers& r = out.runs[i];
      const CircuitLayers& c = *out.circuits[r.circuit];
      const int pos = static_cast<int>(i);
      log.call("run", c.name, pos, false,
               [&] { evaluate_run(c, r, pos, spec.pipeline, log); });
    }
  });
  out.wall_ns = Clock::now_ns() - t0;
  out.spans = std::move(log.spans());
  return out;
}

LayeredResult run_layered_parallel(const fc::CampaignSpec& spec) {
  LayeredResult out = plan(spec);
  const std::uint64_t t0 = Clock::now_ns();
  // One task per circuit and then per run, as the campaign runner
  // schedules them; each layer's own loops join the same pool.
  SpanLog off(false);
  {
    fc::TaskGroup group(fc::Scheduler::global());
    for (auto& c : out.circuits) {
      group.run([&c, &spec, &off] { prepare_circuit(*c, spec.pipeline, off); });
    }
    group.wait();
  }
  {
    fc::TaskGroup group(fc::Scheduler::global());
    for (std::size_t i = 0; i < out.runs.size(); ++i) {
      group.run([&out, &spec, &off, i] {
        RunLayers& r = out.runs[i];
        evaluate_run(*out.circuits[r.circuit], r, static_cast<int>(i),
                     spec.pipeline, off);
      });
    }
    group.wait();
  }
  out.wall_ns = Clock::now_ns() - t0;
  return out;
}

}  // namespace perfbench
