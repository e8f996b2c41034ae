#include "reseed/matrix_cache.h"

#include <stdexcept>
#include <utility>

#include "obs/clock.h"
#include "obs/diag.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reseed/serialize.h"
#include "util/guarded_io.h"
#include "util/record.h"
#include "util/rng.h"

namespace fbist::reseed {

namespace {

/// A cache directory: <16-hex-key>.dmx blobs behind the disk breaker.
util::io::BlobDir dmx_dir(const std::string& dir) {
  return util::io::BlobDir(dir, ".dmx", "matrix-cache disk tier",
                           "cache degrades to memory-only");
}

}  // namespace

MatrixCache::MatrixCache(MatrixCacheOptions opts) : disk_(dmx_dir(opts.dir)) {
  if (!opts.dir.empty()) disk_.sweep_stale_temps("matrix_cache");
}

MatrixCache::Key MatrixCache::key(const netlist::CompiledCircuit& cc,
                                  const fault::FaultList& faults,
                                  const tpg::Tpg& tpg,
                                  const std::vector<tpg::Triplet>& candidates) {
  // Every component is framed by a domain tag and its length, so
  // concatenation ambiguities (e.g. shifting a byte between adjacent
  // variable-length fields) change the hash.
  util::Fnv1a hs(util::Fnv1a::kShortBasis);

  // Circuit structure: per-net gate type and fanin in net-id order,
  // plus the PI/PO orderings the simulator reads and observes through.
  hs.byte('C');
  hs.u64(cc.num_nets());
  for (netlist::NetId n = 0; n < cc.num_nets(); ++n) {
    hs.byte(static_cast<std::uint8_t>(cc.type(n)));
    const netlist::Span<netlist::NetId> fin = cc.fanin(n);
    hs.u64(fin.size());
    for (const netlist::NetId f : fin) hs.u64(f);
  }
  hs.u64(cc.inputs().size());
  for (const netlist::NetId n : cc.inputs()) hs.u64(n);
  hs.u64(cc.outputs().size());
  for (const netlist::NetId n : cc.outputs()) hs.u64(n);

  // Fault list: matrix columns, in column order.
  hs.byte('F');
  hs.u64(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    hs.u64(faults[i].net);
    hs.byte(faults[i].stuck_value ? 1 : 0);
  }

  // TPG semantics: how triplets expand into pattern sequences.
  hs.byte('T');
  hs.str(tpg.name());
  hs.u64(tpg.width());
  hs.str(tpg.config_string());

  // Candidate triplets: matrix rows, in row order.
  hs.byte('R');
  hs.u64(candidates.size());
  for (const tpg::Triplet& t : candidates) {
    hs.u64(t.delta.bits());
    for (const std::uint64_t w : t.delta.words()) hs.u64(w);
    hs.u64(t.sigma.bits());
    for (const std::uint64_t w : t.sigma.words()) hs.u64(w);
    hs.u64(t.cycles);
  }
  return hs.value();
}

std::shared_ptr<const cover::DetectionMatrix> MatrixCache::lookup(Key k) {
  // Lookup latency lands in an outcome-specific histogram — a memory
  // hit (~100ns), a disk hit (ms) and a miss that triggers a rebuild
  // (seconds downstream) are different regimes and averaging them
  // would say nothing.
  OBS_HISTOGRAM(h_hit, "matrix_cache.hit_ns");
  OBS_HISTOGRAM(h_disk_hit, "matrix_cache.disk_hit_ns");
  OBS_HISTOGRAM(h_miss, "matrix_cache.miss_ns");
  const std::uint64_t start_ns = obs::Clock::now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(k);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      ++stats_.hits;
      OBS_OBSERVE(h_hit, obs::Clock::now_ns() - start_ns);
      return it->second->matrix;
    }
  }
  // Disk tier, read outside the lock (file I/O may be slow and the
  // result is immutable either way).  Reads go through the guarded I/O
  // layer — transient failures (or injected ones, "cache.disk_read")
  // retry with backoff; repeated give-ups trip the breaker and the
  // tier turns off.  A blob that *reads* but does not *parse* is a
  // content problem, not a disk problem: it degrades to a miss without
  // charging the breaker, and the rebuild's store overwrites it.
  const std::string stem = util::hex64(k);
  if (!disk_.dir().empty() && !disk_.degraded() && disk_.exists(stem)) {
    try {
      std::shared_ptr<const cover::DetectionMatrix> m =
          std::make_shared<cover::DetectionMatrix>(matrix_from_string(
              disk_.read("cache.disk_read", stem, true)));
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.hits;
      ++stats_.disk_hits;
      OBS_INSTANT("disk_hit");
      OBS_OBSERVE(h_disk_hit, obs::Clock::now_ns() - start_ns);
      touch_or_insert_locked(k, m);  // a raced promotion: reuse theirs
      return m;
    } catch (const util::io::IoError& e) {
      obs::diag(obs::Severity::kWarn, "matrix_cache",
                "cannot read blob " + disk_.path(stem) + " (" + e.what() +
                    "), rebuilding");
    } catch (const std::runtime_error& e) {
      // Corrupt or future-version blob: fall through to a miss; the
      // rebuild's store overwrites it.
      obs::diag(obs::Severity::kWarn, "matrix_cache",
                "unreadable blob " + disk_.path(stem) + " (" + e.what() +
                    "), rebuilding");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  OBS_OBSERVE(h_miss, obs::Clock::now_ns() - start_ns);
  return nullptr;
}

void MatrixCache::store(Key k, std::shared_ptr<const cover::DetectionMatrix> m) {
  if (m == nullptr) return;
  OBS_HISTOGRAM(h_store, "matrix_cache.store_ns");
  const std::uint64_t start_ns = obs::Clock::now_ns();
  bool write_disk = !disk_.dir().empty();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.stores;
    // Concurrent builders of the same key store identical content;
    // keep the first (already shared with its hitters).
    if (!touch_or_insert_locked(k, m)) write_disk = false;
  }
  if (!write_disk || disk_.degraded()) {
    OBS_OBSERVE(h_store, obs::Clock::now_ns() - start_ns);
    return;
  }
  // Guarded atomic write ("cache.disk_write"): concurrent readers never
  // see a torn file, transient failures retry with backoff, and a
  // give-up only costs durability — the disk tier is best-effort, so
  // an unwritable directory degrades the cache to memory-only rather
  // than failing the build.  Repeated give-ups trip the breaker and
  // later stores skip the disk entirely.
  disk_.create();
  const std::string stem = util::hex64(k);
  try {
    disk_.write("cache.disk_write", stem, matrix_to_string(*m));
  } catch (const util::io::IoError& e) {
    obs::diag(obs::Severity::kWarn, "matrix_cache",
              "cannot persist blob " + disk_.path(stem) + " (" + e.what() +
                  "), memory tier only");
  }
  OBS_OBSERVE(h_store, obs::Clock::now_ns() - start_ns);
}

bool MatrixCache::touch_or_insert_locked(
    Key k, std::shared_ptr<const cover::DetectionMatrix>& m) {
  const auto it = index_.find(k);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    m = it->second->matrix;
    return false;
  }
  lru_.push_front(Entry{k, m});
  index_[k] = lru_.begin();
  while (lru_.size() > kMemoryEntries) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return true;
}

MatrixCacheStats MatrixCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<util::io::BlobDir::Entry> MatrixCache::list_dir(
    const std::string& dir) {
  std::vector<util::io::BlobDir::Entry> entries;
  for (util::io::BlobDir::Entry& e : dmx_dir(dir).list()) {
    Key k;
    if (util::parse_hex64(e.stem, &k)) entries.push_back(std::move(e));
  }
  return entries;
}

bool MatrixCache::evict_file(const std::string& dir, Key k) {
  return dmx_dir(dir).remove(util::hex64(k));
}

std::size_t MatrixCache::clear_dir(const std::string& dir) {
  const util::io::BlobDir disk = dmx_dir(dir);
  disk.sweep_stale_temps("matrix_cache");
  std::size_t removed = 0;
  for (const util::io::BlobDir::Entry& e : list_dir(dir)) {
    if (disk.remove(e.stem)) ++removed;
  }
  return removed;
}

}  // namespace fbist::reseed
