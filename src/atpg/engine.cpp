#include "atpg/engine.h"

#include <cstdint>
#include <memory>
#include <optional>

#include "obs/clock.h"
#include "obs/diag.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fbist::atpg {

constexpr std::size_t kMaxRandomBlocks = 64;  // cap on 64-pattern random blocks
constexpr std::size_t kDryBlockLimit = 3;  // stop random phase after N dry blocks
// PODEM backtracks after which SAT screens a still-undecided fault
// (capped by PodemOptions::backtrack_limit).  Picked from a measured
// sweep over {16, 32, 64, 128}.
constexpr std::size_t kSatScreenBacktracks = 32;

double AtpgResult::testable_coverage_percent() const {
  std::size_t detected = 0, total = verdict.size(), redundant = 0;
  for (const auto v : verdict) {
    if (v == FaultVerdict::kDetected) ++detected;
    if (v == FaultVerdict::kRedundant) ++redundant;
  }
  const std::size_t testable = total - redundant;
  return testable == 0 ? 100.0
                       : 100.0 * static_cast<double>(detected) /
                             static_cast<double>(testable);
}

AtpgResult run_atpg(const netlist::Netlist& nl, const fault::FaultList& faults,
                    const AtpgOptions& opts,
                    std::shared_ptr<const netlist::CompiledCircuit> compiled) {
  if (!compiled) compiled = std::make_shared<netlist::CompiledCircuit>(nl);
  AtpgResult result;
  result.verdict.assign(faults.size(), FaultVerdict::kAborted);

  sim::FaultSim fsim(nl, faults, compiled);
  util::Rng rng(opts.seed);

  std::vector<bool> remaining(faults.size(), true);
  std::size_t num_remaining = faults.size();
  // Takes `fid` off the target list with verdict `v`.
  const auto retire = [&](std::size_t fid, FaultVerdict v) {
    remaining[fid] = false;
    result.verdict[fid] = v;
    --num_remaining;
  };

  // Working pattern list (uncompacted); compaction re-simulates at the end.
  sim::PatternSet pool(nl.num_inputs(), 0);

  // ---- Phase 1: random patterns with fault dropping -------------------
  OBS_HISTOGRAM(h_random, "atpg.random_ns");
  {
    OBS_SPAN("atpg.random");
    const std::uint64_t t0 = obs::Clock::now_ns();
    std::size_t dry_blocks = 0;
    for (std::size_t b = 0; b < kMaxRandomBlocks && num_remaining > 0; ++b) {
      sim::PatternSet block = sim::PatternSet::random(nl.num_inputs(), 64, rng);
      const sim::FaultSimResult r = fsim.run_subset(block, remaining);
      std::vector<std::size_t> hits;
      r.detected.for_each_set([&](std::size_t fid) { hits.push_back(fid); });
      if (hits.empty()) {
        if (++dry_blocks >= kDryBlockLimit) break;
        continue;
      }
      dry_blocks = 0;
      // Keep only patterns that first-detected something (cheap pre-compaction).
      std::vector<bool> keep(block.size(), false);
      for (const std::size_t fid : hits) {
        keep[r.earliest[fid]] = true;
        retire(fid, FaultVerdict::kDetected);
      }
      for (std::size_t p = 0; p < block.size(); ++p) {
        if (keep[p]) pool.append(block.pattern(p));
      }
    }
    OBS_OBSERVE(h_random, obs::Clock::now_ns() - t0);
  }
  result.random_patterns_used = pool.size();

  // ---- Phase 2: PODEM, screened by SAT, on remaining faults -----------
  // The one drop path for deterministic patterns: X-fills `pat` at
  // random where `care` is given (a PODEM cube; a SAT model is fully
  // specified), fault-simulates it against every remaining fault, drops
  // each fault it catches and keeps the pattern if it caught any.
  // Returns whether `target` was among them.
  const auto simulate_and_drop = [&](util::WideWord pat,
                                     const util::WideWord* care,
                                     std::size_t target) {
    if (care != nullptr) {
      for (std::size_t i = 0; i < pat.bits(); ++i) {
        if (!care->get_bit(i) && rng.next_bool()) pat.set_bit(i, true);
      }
    }
    sim::PatternSet one(nl.num_inputs(), 0);
    one.append(pat);
    const sim::FaultSimResult r = fsim.run_subset(one, remaining);
    std::size_t caught = 0;
    r.detected.for_each_set([&](std::size_t hit) {
      retire(hit, FaultVerdict::kDetected);
      ++caught;
    });
    if (caught > 0) {
      pool.append(pat);
      ++result.deterministic_patterns;
    }
    return r.detected.get(target);
  };

  OBS_HISTOGRAM(h_deterministic, "atpg.deterministic_ns");
  {
    OBS_SPAN("atpg.deterministic");
    const std::uint64_t t0 = obs::Clock::now_ns();
    Podem podem(nl, compiled, opts.podem);
    // Built on the first screen only: runs that PODEM alone decides
    // never pay the good-circuit CNF load.
    std::unique_ptr<SatEngine> sat;
    OBS_COUNTER(c_sat_screened, "atpg.sat_screened");
    OBS_COUNTER(c_sat_detected, "atpg.sat_detected");
    OBS_COUNTER(c_sat_redundant, "atpg.sat_redundant");
    // PODEM outcomes, counted once per search (never in its loop); a
    // search the screen ends is none of them.
    OBS_COUNTER(c_podem_tests, "atpg.podem_tests");
    OBS_COUNTER(c_podem_untestable, "atpg.podem_untestable");
    OBS_COUNTER(c_podem_aborts, "atpg.podem_aborts");
    OBS_COUNTER(c_podem_backtracks, "atpg.podem_backtracks");
    for (std::size_t fid = 0; fid < faults.size() && num_remaining > 0; ++fid) {
      if (!remaining[fid]) continue;
      // The SAT screen (see engine.h): a search still undecided after
      // kSatScreenBacktracks pauses and SAT decides the fault.  Unless
      // it is UNSAT, PODEM resumes the same search, and an abort falls
      // back to the saved SAT answer — the one a call after the abort
      // would return, so patterns, verdicts and RNG draws are unchanged.
      PodemResult pr = podem.generate(
          faults[fid], opts.sat_escalate ? kSatScreenBacktracks : SIZE_MAX);
      std::optional<SatResult> sr;
      if (pr.status == PodemStatus::kAborted && opts.sat_escalate) {
        if (!sat) sat = std::make_unique<SatEngine>(*compiled, opts.sat);
        OBS_COUNT(c_sat_screened, 1);
        sr = sat->generate(faults[fid]);
        if (sr->status != SatStatus::kRedundant) pr = podem.resume();
      }
      OBS_COUNT(c_podem_backtracks, pr.backtracks);
      if (sr && sr->status == SatStatus::kRedundant) {
        retire(fid, FaultVerdict::kRedundant);
        ++result.redundant_faults;
        ++result.sat_redundant_faults;
        OBS_COUNT(c_sat_redundant, 1);
        continue;
      }
      OBS_COUNT(pr.status == PodemStatus::kTestFound    ? c_podem_tests
                : pr.status == PodemStatus::kUntestable ? c_podem_untestable
                                                        : c_podem_aborts,
                1);
      if (pr.status == PodemStatus::kUntestable) {
        retire(fid, FaultVerdict::kRedundant);
        ++result.redundant_faults;
        continue;
      }
      if (pr.status == PodemStatus::kAborted) {
        // The drop campaign validates the model: the target is still
        // remaining, so the campaign reports whether the model catches it.
        if (sr && sr->status == SatStatus::kDetected) {
          if (simulate_and_drop(sr->pattern, nullptr, fid)) {
            ++result.sat_detected_faults;
            OBS_COUNT(c_sat_detected, 1);
            continue;
          }
          // A SAT model the fault simulator rejects means the CNF and
          // the simulator disagree about the circuit — never silent.
          obs::diag(obs::Severity::kError, "atpg",
                    "SAT model failed fault-simulation validation; "
                    "keeping abort verdict");
        }
        retire(fid, FaultVerdict::kAborted);  // stop retrying
        ++result.aborted_faults;
        continue;
      }
      // The PODEM pattern must catch its target; verified by tests,
      // tolerated here.
      simulate_and_drop(pr.pattern, &pr.care, fid);
    }
    OBS_OBSERVE(h_deterministic, obs::Clock::now_ns() - t0);
  }

  // ---- Phase 3: reverse-order compaction (always) ---------------------
  // Walking the pool backwards and keeping a pattern only if it detects
  // a fault no later pattern does keeps exactly each detected fault's
  // last detector.  One campaign over the reversed pool finds them all:
  // its first detection of a fault is that fault's last detector.
  OBS_HISTOGRAM(h_compaction, "atpg.compaction_ns");
  {
    OBS_SPAN("atpg.compaction");
    const std::uint64_t t0 = obs::Clock::now_ns();
    std::vector<bool> need(faults.size(), false);
    for (std::size_t fid = 0; fid < faults.size(); ++fid) {
      need[fid] = result.verdict[fid] == FaultVerdict::kDetected;
    }
    const std::size_t n = pool.size();
    sim::PatternSet rev(nl.num_inputs(), 0);
    for (std::size_t p = n; p-- > 0;) rev.append(pool.pattern(p));
    const sim::FaultSimResult r = fsim.run_subset(rev, need);
    std::vector<bool> keep(n, false);
    r.detected.for_each_set(
        [&](std::size_t fid) { keep[n - 1 - r.earliest[fid]] = true; });
    sim::PatternSet compacted(nl.num_inputs(), 0);
    for (std::size_t p = 0; p < n; ++p) {
      if (keep[p]) compacted.append(pool.pattern(p));
    }
    result.patterns = std::move(compacted);
    OBS_OBSERVE(h_compaction, obs::Clock::now_ns() - t0);
  }

  return result;
}

}  // namespace fbist::atpg
