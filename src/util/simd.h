// Runtime SIMD dispatch tier for the word-parallel simulators.
//
// The PPSFP fault simulator walks cone programs over 1, 4 or 8
// 64-pattern blocks per structure walk (sim/fault_sim.cpp); the 4-wide
// chunk vectorizes to one 256-bit AVX2 op per gate input, the 8-wide
// chunk to one 512-bit AVX-512 op.  Which tier runs is a *runtime*
// decision: the kernels are compiled once per ISA level with
// target_clones, and this module answers "which chunk width should a
// campaign of B blocks use on this machine?".
//
// The tier follows the hardware (kAuto) unless code forces it with
// set_simd_tier(); no environment variable overrides it.  The dispatch
// equivalence tests and the BM_PackedWalk benches force each tier to
// pin them all to bit-identical results on one machine.
#pragma once

#include <cstddef>

namespace fbist::util {

enum class SimdTier {
  kAuto,    ///< Widest tier the CPU supports that fits the campaign.
  kNarrow,  ///< Single-block walks only (no chunking).
  kWide4,   ///< 4-wide (AVX2-sized) block chunks.
  kWide8,   ///< 8-wide (AVX-512-sized) block chunks.
};

/// True when the CPU supports AVX-512F (always false off x86-64).
bool cpu_has_avx512();

/// The active tier: kAuto until set_simd_tier() forces another.
SimdTier simd_tier();

/// Forces a tier (tests/benches); kAuto restores hardware dispatch.
void set_simd_tier(SimdTier tier);

/// Chunk width (in 64-pattern blocks) a campaign of `chunk_blocks`
/// chunkable blocks should use: 0 = narrow walks only, else 4 or 8.
/// Under kAuto the 8-wide tier engages only when AVX-512F is present
/// and the campaign is long enough (> 4 blocks) to fill it.
std::size_t chunk_width_for(std::size_t chunk_blocks);

/// Lane-packing span (in blocks) matching the active tier: one packed
/// group should fill one simulation chunk (8 on an engaged 8-wide
/// tier, else 4).
std::size_t preferred_pack_blocks();

}  // namespace fbist::util
