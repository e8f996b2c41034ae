#include "checks.h"

#include <memory>

#include "reseed/serialize.h"
#include "sim/pattern.h"
#include "sim/reference_sim.h"
#include "tpg/tpg.h"
#include "tpg/triplet.h"

namespace perfbench {

namespace fc = fbist::campaign;

namespace {

using Fields = std::vector<std::pair<const char*, std::size_t>>;

/// The canonical report's per-run columns (campaign/report.cpp).
Fields row_fields(const fc::RunResult& r) {
  return {{"circuit_inputs", r.circuit_inputs},
          {"circuit_gates", r.circuit_gates},
          {"atpg_patterns", r.atpg_patterns},
          {"faults_targeted", r.faults_targeted},
          {"redundant", r.redundant},
          {"sat_detected", r.sat_detected},
          {"triplets", r.num_triplets},
          {"test_length", r.test_length},
          {"faults_covered", r.faults_covered},
          {"faults_uncoverable", r.faults_uncoverable},
          {"necessary_triplets", r.necessary_triplets},
          {"solver_triplets", r.solver_triplets},
          {"solver_optimal", r.solver_optimal ? 1u : 0u},
          {"rom_bits", r.rom_bits}};
}

/// The row the runner would have written for a layered run.
fc::RunResult layered_row(const CircuitLayers& c, const RunLayers& r) {
  const fbist::reseed::ReseedingSolution& sol = r.sol;
  fc::RunResult out;
  out.spec = r.spec;
  out.ok = true;
  out.circuit_inputs = c.nl.num_inputs();
  out.circuit_gates = c.nl.num_gates();
  out.atpg_patterns = c.atpg.patterns.size();
  out.faults_targeted = sol.faults_targeted;
  out.redundant = c.atpg.redundant_faults;
  out.sat_detected = c.atpg.sat_detected_faults;
  out.num_triplets = sol.num_triplets();
  out.test_length = sol.test_length;
  out.faults_covered = sol.faults_covered;
  out.faults_uncoverable = sol.faults_uncoverable;
  out.necessary_triplets = sol.necessary_count;
  out.solver_triplets = sol.solver_count;
  out.solver_optimal = sol.solver_optimal;
  out.rom_bits = fbist::reseed::to_rom_image(
                     sol, c.name, fbist::tpg::tpg_kind_name(r.spec.tpg),
                     c.nl.num_inputs())
                     .rom_bits();
  return out;
}

bool same_runs(const fc::Report& report, const LayeredResult& layered,
               std::vector<std::string>& errors) {
  if (report.runs.size() == layered.runs.size()) return true;
  errors.push_back("layered replay has " + std::to_string(layered.runs.size()) +
                   " runs, the campaign " + std::to_string(report.runs.size()));
  return false;
}

}  // namespace

void check_runs(const fc::Report& report, std::vector<std::string>& errors) {
  for (const fc::RunResult& r : report.runs) {
    const std::string label = fc::run_label(r.spec);
    if (!r.ok) {
      errors.push_back(label + ": run failed: " + r.error);
    } else if (r.faults_covered != r.faults_targeted) {
      errors.push_back(label + ": covers " + std::to_string(r.faults_covered) +
                       " of " + std::to_string(r.faults_targeted) +
                       " targeted faults");
    }
  }
}

void check_layered(const fc::Report& report, const LayeredResult& layered,
                   std::vector<std::string>& errors) {
  if (!same_runs(report, layered, errors)) return;
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const fc::RunResult& want = report.runs[i];
    const RunLayers& r = layered.runs[i];
    const std::string label = fc::run_label(want.spec);
    if (fc::run_label(r.spec) != label) {
      errors.push_back(label + ": layered replay ran " + fc::run_label(r.spec));
      continue;
    }
    const Fields got = row_fields(layered_row(*layered.circuits[r.circuit], r));
    const Fields exp = row_fields(want);
    for (std::size_t f = 0; f < exp.size(); ++f) {
      if (got[f].second != exp[f].second) {
        errors.push_back(label + ": " + exp[f].first + " is " +
                         std::to_string(exp[f].second) +
                         " in the campaign, " + std::to_string(got[f].second) +
                         " in the layered replay");
      }
    }
    if (!fbist::reseed::solution_is_minimal(r.initial, r.sol)) {
      errors.push_back(label + ": solution is not minimal");
    }
  }
}

void check_reference_sim(const fc::Report& report, const LayeredResult& layered,
                         std::vector<std::string>& errors) {
  if (!same_runs(report, layered, errors)) return;
  std::vector<std::unique_ptr<fbist::sim::ReferenceFaultSim>> refs;
  for (const auto& c : layered.circuits) {
    refs.push_back(
        std::make_unique<fbist::sim::ReferenceFaultSim>(c->nl, c->targets));
  }
  for (std::size_t i = 0; i < report.runs.size(); ++i) {
    const RunLayers& r = layered.runs[i];
    const CircuitLayers& c = *layered.circuits[r.circuit];
    const auto tpg = fbist::tpg::make_tpg(r.spec.tpg, c.nl.num_inputs());
    fbist::sim::PatternSet patterns(c.nl.num_inputs(), 0);
    for (const auto& s : r.sol.selected) {
      patterns.append_all(fbist::tpg::expand_triplet(*tpg, s.triplet));
    }
    const std::size_t detected = refs[r.circuit]->run(patterns).num_detected();
    const fc::RunResult& row = report.runs[i];
    if (patterns.size() != row.test_length) {
      errors.push_back(fc::run_label(row.spec) + ": the solution's triplets " +
                       "expand to " + std::to_string(patterns.size()) +
                       " patterns, the report claims a test length of " +
                       std::to_string(row.test_length));
    }
    if (detected < row.faults_covered) {
      errors.push_back(fc::run_label(row.spec) + ": the reference simulator " +
                       "detects " + std::to_string(detected) +
                       " faults with the solution's triplets, the report " +
                       "claims " + std::to_string(row.faults_covered));
    }
  }
}

}  // namespace perfbench
