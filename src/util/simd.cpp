#include "util/simd.h"

#include <atomic>

namespace fbist::util {

namespace {

bool detect_avx512() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

std::atomic<SimdTier> g_tier{SimdTier::kAuto};

}  // namespace

bool cpu_has_avx512() {
  static const bool has = detect_avx512();
  return has;
}

SimdTier simd_tier() { return g_tier.load(std::memory_order_relaxed); }

void set_simd_tier(SimdTier tier) {
  g_tier.store(tier, std::memory_order_relaxed);
}

std::size_t chunk_width_for(std::size_t chunk_blocks) {
  if (chunk_blocks == 0) return 0;
  switch (simd_tier()) {
    case SimdTier::kNarrow:
      return 0;
    case SimdTier::kWide4:
      return 4;
    case SimdTier::kWide8:
      return 8;
    case SimdTier::kAuto:
      break;
  }
  // Auto: the 8-wide chunk only pays when the campaign can fill more
  // than one 4-wide chunk — otherwise the extra lanes are padding and
  // the coarser early-exit granularity costs detection-heavy sites.
  return cpu_has_avx512() && chunk_blocks > 4 ? 8 : 4;
}

std::size_t preferred_pack_blocks() {
  switch (simd_tier()) {
    case SimdTier::kWide8:
      return 8;
    case SimdTier::kAuto:
      return cpu_has_avx512() ? 8 : 4;
    default:
      return 4;
  }
}

}  // namespace fbist::util
