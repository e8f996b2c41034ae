// Substrate micro-benchmarks (google-benchmark).
//
// Not a paper table: these quantify the throughput of the building
// blocks that make the table benches affordable — the 64-way parallel
// fault simulator, the matrix reduction and the exact solver.
//
// The BM_*Reference variants run the retained seed implementations
// (sim/reference_sim.h: per-gate Netlist walk + ConeIndex) on the same
// inputs, so the compiled-core speedup can be read off one run as
// items_per_second(BM_FaultSim) / items_per_second(BM_FaultSimReference)
// — within-run ratios are robust against background load.
#include <benchmark/benchmark.h>

#include "atpg/engine.h"
#include "atpg/podem.h"
#include "atpg/scoap.h"
#include "bist/misr.h"
#include "circuits/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reseed/initial_builder.h"
#include "tpg/accumulator.h"
#include "tpg/triplet.h"
#include "cover/exact.h"
#include "cover/greedy.h"
#include "cover/reduce.h"
#include "reseed/matrix_cache.h"
#include "sim/fault_sim.h"
#include "sim/reference_sim.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"

namespace {

using namespace fbist;

void BM_LogicSim(benchmark::State& state) {
  const auto nl = circuits::make_circuit("c880");
  sim::LogicSim sim(nl);
  util::Rng rng(1);
  const auto ps = sim::PatternSet::random(nl.num_inputs(), 1024, rng);
  for (auto _ : state) {
    auto blocks = sim.simulate(ps);
    benchmark::DoNotOptimize(blocks);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_LogicSim)->Unit(benchmark::kMicrosecond);

void BM_LogicSimReference(benchmark::State& state) {
  const auto nl = circuits::make_circuit("c880");
  sim::ReferenceLogicSim sim(nl);
  util::Rng rng(1);
  const auto ps = sim::PatternSet::random(nl.num_inputs(), 1024, rng);
  for (auto _ : state) {
    auto blocks = sim.simulate(ps);
    benchmark::DoNotOptimize(blocks);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_LogicSimReference)->Unit(benchmark::kMicrosecond);

void run_fault_sim_bench(benchmark::State& state, const std::string& circuit,
                         bool reference) {
  const auto nl = circuits::make_circuit(circuit);
  const auto fl = fault::FaultList::collapsed(nl);
  util::Rng rng(2);
  const auto ps = sim::PatternSet::random(
      nl.num_inputs(), static_cast<std::size_t>(state.range(0)), rng);
  if (reference) {
    sim::ReferenceFaultSim fsim(nl, fl);
    for (auto _ : state) {
      auto r = fsim.run(ps);
      benchmark::DoNotOptimize(r);
    }
  } else {
    sim::FaultSim fsim(nl, fl);
    for (auto _ : state) {
      auto r = fsim.run(ps);
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * static_cast<std::int64_t>(fl.size()));
}

void BM_FaultSim(benchmark::State& state) {
  run_fault_sim_bench(state, "c880", /*reference=*/false);
}
BENCHMARK(BM_FaultSim)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_FaultSimReference(benchmark::State& state) {
  run_fault_sim_bench(state, "c880", /*reference=*/true);
}
BENCHMARK(BM_FaultSimReference)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_FaultSimLarge(benchmark::State& state) {
  run_fault_sim_bench(state, "s9234", /*reference=*/false);
}
BENCHMARK(BM_FaultSimLarge)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_FaultSimLargeReference(benchmark::State& state) {
  run_fault_sim_bench(state, "s9234", /*reference=*/true);
}
BENCHMARK(BM_FaultSimLargeReference)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

cover::DetectionMatrix random_matrix(std::size_t R, std::size_t C,
                                     double density, std::uint64_t seed) {
  util::Rng rng(seed);
  cover::DetectionMatrix m(R, C);
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      if (rng.next_bool(density)) m.set(r, c);
    }
  }
  for (std::size_t c = 0; c < C; ++c) m.set(rng.next_below(R), c);
  return m;
}

void BM_Reduce(benchmark::State& state) {
  const auto m = random_matrix(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(0)) * 8,
                               0.05, 3);
  for (auto _ : state) {
    auto r = cover::reduce(m);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Reduce)->Arg(50)->Arg(150)->Unit(benchmark::kMillisecond);

void BM_ExactSolver(benchmark::State& state) {
  const auto m = random_matrix(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(0)) * 2,
                               0.15, 4);
  for (auto _ : state) {
    auto s = cover::solve_exact(m);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_ExactSolver)->Arg(20)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_GreedySolver(benchmark::State& state) {
  const auto m = random_matrix(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(0)) * 2,
                               0.15, 4);
  for (auto _ : state) {
    auto s = cover::solve_greedy(m);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_GreedySolver)->Arg(20)->Arg(40)->Unit(benchmark::kMicrosecond);

void BM_Atpg(benchmark::State& state) {
  const auto nl = circuits::make_circuit("c432");
  const auto fl = fault::FaultList::collapsed(nl);
  for (auto _ : state) {
    auto r = atpg::run_atpg(nl, fl);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Atpg)->Unit(benchmark::kMillisecond);

// PODEM alone over the hard tail at registry scale: the faults that
// 4096 random patterns (the random phase's cap of 64 blocks of 64)
// leave undetected, close to the set run_atpg hands to PODEM (and, on
// an abort, to SAT).  One iteration generates for every tail fault.
void BM_PodemHardTail(benchmark::State& state, const char* circuit) {
  const auto nl = circuits::make_circuit(circuit);
  const auto fl = fault::FaultList::collapsed(nl);
  util::Rng rng(atpg::AtpgOptions{}.seed);
  const auto ps = sim::PatternSet::random(nl.num_inputs(), 4096, rng);
  const sim::FaultSimResult r = sim::FaultSim(nl, fl).run(ps);
  std::vector<fault::Fault> tail;
  for (std::size_t fid = 0; fid < fl.size(); ++fid) {
    if (!r.detected.get(fid)) tail.push_back(fl[fid]);
  }
  atpg::Podem podem(nl);
  for (auto _ : state) {
    std::size_t backtracks = 0;
    for (const fault::Fault& f : tail) backtracks += podem.generate(f).backtracks;
    benchmark::DoNotOptimize(backtracks);
  }
  state.counters["faults"] = static_cast<double>(tail.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tail.size()));
}
BENCHMARK_CAPTURE(BM_PodemHardTail, s5378, "s5378")->Unit(benchmark::kMillisecond);

void BM_Scoap(benchmark::State& state) {
  const auto nl = circuits::make_circuit("s9234");
  for (auto _ : state) {
    auto s = atpg::compute_scoap(nl);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Scoap)->Unit(benchmark::kMillisecond);

void BM_MisrSignature(benchmark::State& state) {
  const bist::Misr misr(64);
  util::Rng rng(5);
  std::vector<util::WideWord> stream;
  for (int i = 0; i < 4096; ++i) {
    stream.push_back(util::WideWord::random(64, rng));
  }
  for (auto _ : state) {
    auto sig = misr.signature(stream);
    benchmark::DoNotOptimize(sig);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_MisrSignature)->Unit(benchmark::kMicrosecond);

// ---- Lane-packed detection-matrix build ----------------------------------
//
// The reseeding pipeline's dominant cost is the detection-matrix build:
// one fault-simulation campaign per candidate triplet.  At the paper's
// small T values a lone candidate fills only T of the 64 lanes of every
// PPSFP block, so the builder lane-packs ⌊64/T⌋ candidates into shared
// blocks (sim::pack_rows + FaultSim::run_packed).  BM_InitialMatrixBuild
// times the packed build; BM_InitialMatrixBuildPerRow is the seed shape
// (expand_triplet + one FaultSim::run per candidate) on identical
// inputs, so the per-row/batched real_time ratio at each T is the
// measured matrix-build speedup.
void run_matrix_build_bench(benchmark::State& state, bool batched) {
  const auto cycles = static_cast<std::size_t>(state.range(0));
  const auto nl = circuits::make_circuit("s9234");
  const auto fl = fault::FaultList::collapsed(nl);
  sim::FaultSim fsim(nl, fl);
  tpg::AdderTpg tpg(nl.num_inputs());
  util::Rng rng(3);
  const std::size_t M = 64;  // candidate triplets (stand-in ATPG set)
  const auto atpg_patterns = sim::PatternSet::random(nl.num_inputs(), M, rng);
  reseed::BuilderOptions opts;
  opts.cycles_per_triplet = cycles;

  if (batched) {
    for (auto _ : state) {
      auto init = reseed::build_initial_reseeding(fsim, tpg, atpg_patterns, opts);
      benchmark::DoNotOptimize(init);
    }
  } else {
    const auto init =
        reseed::build_initial_reseeding(fsim, tpg, atpg_patterns, opts);
    for (auto _ : state) {
      cover::DetectionMatrix m(M, fl.size());
      std::vector<std::vector<std::uint32_t>> earliest(M);
      util::parallel_for(M, [&](std::size_t i) {
        const auto ts = tpg::expand_triplet(tpg, init.triplets[i]);
        const auto r = fsim.run(ts);
        m.set_row(i, r.detected);
        earliest[i] = r.earliest;
      });
      m.attach_earliest(std::move(earliest));
      benchmark::DoNotOptimize(m);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(M));
}

void BM_InitialMatrixBuild(benchmark::State& state) {
  run_matrix_build_bench(state, /*batched=*/true);
}
BENCHMARK(BM_InitialMatrixBuild)
    ->Arg(4)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_InitialMatrixBuildPerRow(benchmark::State& state) {
  run_matrix_build_bench(state, /*batched=*/false);
}
BENCHMARK(BM_InitialMatrixBuildPerRow)
    ->Arg(4)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- Observability overhead ----------------------------------------------
//
// BM_ObsOverhead is the instrumented-vs-compiled-out guard: the same
// packed matrix build as BM_InitialMatrixBuild (T=8), under whatever
// FBIST_OBSERVABILITY the binary was built with and tracing disabled
// (the production shape — counters live, spans idle).  The baseline row
// is recorded from an FBIST_OBSERVABILITY=OFF build, so CI's comparison
// of an ON build against it measures the full instrumentation cost;
// tools/bench_compare flags a >20% regression, the target is <2%.
// BM_ObsCounterAdd / BM_ObsSpanIdle price the primitives themselves.
void BM_ObsOverhead(benchmark::State& state) {
  state.range(0);  // keep the Arg-shaped row name stable
  run_matrix_build_bench(state, /*batched=*/true);
}
BENCHMARK(BM_ObsOverhead)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ObsCounterAdd(benchmark::State& state) {
#if FBIST_OBSERVABILITY
  OBS_COUNTER(c, "bench.counter");
  for (auto _ : state) {
    OBS_COUNT(c, 1);
  }
#else
  for (auto _ : state) {
    benchmark::DoNotOptimize(state.iterations());
  }
#endif
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsSpanIdle(benchmark::State& state) {
  obs::Tracer::global().disable();
  for (auto _ : state) {
    OBS_SPAN("bench_idle");
    benchmark::DoNotOptimize(state.iterations());
  }
}
BENCHMARK(BM_ObsSpanIdle);

// ---- SIMD dispatch tiers -------------------------------------------------
//
// One long fault-sim campaign (s9234, 1024 patterns = 16 blocks) under
// each forced chunk width.  The narrow/4-wide/8-wide real_time ratios
// are the measured walk-width speedups on this machine; results are
// bit-identical across the three rows (the dispatch tests pin that).
void run_packed_walk_bench(benchmark::State& state, util::SimdTier tier) {
  const auto nl = circuits::make_circuit("s9234");
  const auto fl = fault::FaultList::collapsed(nl);
  sim::FaultSim fsim(nl, fl);
  util::Rng rng(2);
  const auto ps = sim::PatternSet::random(nl.num_inputs(), 1024, rng);
  const util::SimdTier saved = util::simd_tier();
  util::set_simd_tier(tier);
  for (auto _ : state) {
    auto r = fsim.run(ps);
    benchmark::DoNotOptimize(r);
  }
  util::set_simd_tier(saved);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024 *
                          static_cast<std::int64_t>(fl.size()));
}

void BM_PackedWalkNarrow(benchmark::State& state) {
  run_packed_walk_bench(state, util::SimdTier::kNarrow);
}
BENCHMARK(BM_PackedWalkNarrow)->Unit(benchmark::kMillisecond);

void BM_PackedWalk4(benchmark::State& state) {
  run_packed_walk_bench(state, util::SimdTier::kWide4);
}
BENCHMARK(BM_PackedWalk4)->Unit(benchmark::kMillisecond);

void BM_PackedWalk8(benchmark::State& state) {
  run_packed_walk_bench(state, util::SimdTier::kWide8);
}
BENCHMARK(BM_PackedWalk8)->Unit(benchmark::kMillisecond);

// ---- Cross-run matrix cache ----------------------------------------------
//
// A hit must cost a key hash plus one matrix copy — compare against the
// BM_InitialMatrixBuild row at the same T for the skipped-work factor.
void BM_MatrixCacheHit(benchmark::State& state) {
  const auto cycles = static_cast<std::size_t>(state.range(0));
  const auto nl = circuits::make_circuit("s9234");
  const auto fl = fault::FaultList::collapsed(nl);
  sim::FaultSim fsim(nl, fl);
  tpg::AdderTpg tpg(nl.num_inputs());
  util::Rng rng(3);
  const std::size_t M = 64;
  const auto atpg_patterns = sim::PatternSet::random(nl.num_inputs(), M, rng);
  reseed::BuilderOptions opts;
  opts.cycles_per_triplet = cycles;

  reseed::MatrixCache cache;
  {  // warm the cache: the one real build happens outside the timing
    auto init =
        reseed::build_initial_reseeding(fsim, tpg, atpg_patterns, opts, &cache);
    benchmark::DoNotOptimize(init);
  }
  for (auto _ : state) {
    auto init =
        reseed::build_initial_reseeding(fsim, tpg, atpg_patterns, opts, &cache);
    benchmark::DoNotOptimize(init);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(M));
}
BENCHMARK(BM_MatrixCacheHit)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_TripletExpansion(benchmark::State& state) {
  const auto t = tpg::make_tpg(tpg::TpgKind::kMultiplier, 256);
  util::Rng rng(9);
  tpg::Triplet trip;
  trip.delta = util::WideWord::random(256, rng);
  trip.sigma = t->legalize_sigma(util::WideWord::random(256, rng));
  trip.cycles = 1024;
  for (auto _ : state) {
    auto ps = tpg::expand_triplet(*t, trip);
    benchmark::DoNotOptimize(ps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_TripletExpansion)->Unit(benchmark::kMicrosecond);

}  // namespace
