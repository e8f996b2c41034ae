#include "reseed/initial_builder.h"

#include <cassert>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "reseed/matrix_cache.h"
#include "util/failpoint.h"
#include "util/parallel.h"
#include "util/simd.h"

namespace fbist::reseed {

namespace {

/// Uncovered columns are derived state: recompute them from the matrix
/// so cached and freshly built results agree by construction.
void fill_uncovered(InitialReseeding& out) {
  const util::BitVector coverable = out.matrix.coverable();
  for (std::size_t c = 0; c < out.matrix.num_cols(); ++c) {
    if (!coverable.get(c)) out.uncovered_faults.push_back(c);
  }
}

}  // namespace

std::vector<tpg::Triplet> make_candidate_triplets(
    const tpg::Tpg& tpg, const sim::PatternSet& atpg_patterns,
    const BuilderOptions& opts) {
  const std::size_t M = atpg_patterns.size();
  std::vector<tpg::Triplet> triplets;
  triplets.reserve(M);
  util::Rng rng(opts.seed);
  util::WideWord shared =
      tpg.legalize_sigma(util::WideWord::random(tpg.width(), rng));
  for (std::size_t i = 0; i < M; ++i) {
    tpg::Triplet t;
    t.delta = atpg_patterns.pattern(i);
    t.sigma = opts.shared_sigma
                  ? shared
                  : tpg.legalize_sigma(util::WideWord::random(tpg.width(), rng));
    t.cycles = opts.cycles_per_triplet == 0 ? 1 : opts.cycles_per_triplet;
    triplets.push_back(std::move(t));
  }
  return triplets;
}

InitialReseeding build_initial_reseeding(const sim::FaultSim& fsim,
                                         const tpg::Tpg& tpg,
                                         const sim::PatternSet& atpg_patterns,
                                         const BuilderOptions& opts,
                                         MatrixCache* cache,
                                         const util::Deadline* deadline) {
  assert(atpg_patterns.num_inputs() == tpg.width());
  const std::size_t M = atpg_patterns.size();
  const std::size_t F = fsim.faults().size();

  InitialReseeding out;
  out.triplets = make_candidate_triplets(tpg, atpg_patterns, opts);

  // The triplets determine the pattern sets and the fault list the
  // columns measure, so together with the circuit and TPG semantics
  // they content-address the matrix across runs and processes.
  MatrixCache::Key key = 0;
  if (cache != nullptr) {
    key = MatrixCache::key(fsim.compiled(), fsim.faults(), tpg, out.triplets);
    if (const auto cached = cache->lookup(key)) {
      OBS_INSTANT("matrix_cache_hit");
      out.matrix = *cached;  // one copy; the fault simulator never runs
      fill_uncovered(out);
      return out;
    }
  }

  out.matrix = cover::DetectionMatrix(M, F);
  std::vector<std::vector<std::uint32_t>> earliest(M);

  // Rows are independent fault-sim campaigns, but at the paper's small
  // T values a lone row wastes most lanes of every 64-pattern PPSFP
  // block — so ⌊64/T⌋ rows are lane-packed into shared blocks
  // (sim::pack_rows) and each triplet expands straight into its lane
  // range of the packed set.  A packing spans one simulation chunk of
  // the active SIMD dispatch tier (8 blocks on an engaged AVX-512 tier,
  // else 4).  Batches parallelise on the shared work-stealing pool
  // exactly like rows did (the nested per-fault loops inside run_packed
  // compose with this one instead of oversubscribing), and the matrix
  // is bit-identical to the per-row path at any worker count.
  std::vector<std::size_t> lengths(M);
  for (std::size_t i = 0; i < M; ++i) lengths[i] = out.triplets[i].cycles;
  const std::vector<sim::LanePacking> packings =
      sim::pack_rows(lengths, util::preferred_pack_blocks());
  OBS_COUNTER(c_packings, "builder.packings");
  // The first throw (a deadline expiry, an injected builder failure)
  // stops the loop and resurfaces here after the join, unwinding a
  // multi-packing build cleanly.
  util::parallel_for(packings.size(), [&](std::size_t p) {
    FBIST_FAILPOINT("builder.pack");
    if (deadline != nullptr) deadline->check("matrix build");
    OBS_SPAN("packing");
    OBS_COUNT(c_packings, 1);
    const sim::LanePacking& pk = packings[p];
    sim::PatternSet packed(tpg.width(), pk.num_patterns);
    for (const sim::LanePacking::Row& pr : pk.rows) {
      tpg::expand_triplet_into(tpg, out.triplets[pr.row], packed, pr.base);
    }
    std::vector<sim::FaultSimResult> rs = fsim.run_packed(packed, pk);
    for (std::size_t i = 0; i < pk.rows.size(); ++i) {
      out.matrix.set_row(pk.rows[i].row, std::move(rs[i].detected));
      earliest[pk.rows[i].row] = std::move(rs[i].earliest);
    }
  });
  // Final poll before the matrix becomes durable state: an expired
  // deadline must never let a (complete but over-budget) matrix be
  // cached after the run is already doomed to a timeout failure.
  if (deadline != nullptr) deadline->check("matrix build");
  out.matrix.attach_earliest(std::move(earliest));

  if (cache != nullptr) {
    cache->store(key,
                 std::make_shared<const cover::DetectionMatrix>(out.matrix));
  }
  fill_uncovered(out);
  return out;
}

}  // namespace fbist::reseed
