// Cross-run detection-matrix cache.
//
// Building the detection matrix — one PPSFP fault-sim campaign per
// candidate triplet — dominates pipeline cost even after lane packing,
// yet paper-style sweeps rebuild the identical matrix for every run
// that varies only the solver or optimizer options.  MatrixCache makes
// that reuse explicit: matrices are stored under a content hash of
// everything the build depends on, so equal inputs hit and *any*
// divergence (circuit structure, fault list, TPG semantics, candidate
// triplets — which subsume seed, T and the candidate-row set) misses.
//
// Two tiers:
//   - in-memory LRU of shared_ptr<const DetectionMatrix> entries,
//     bounded by kMemoryEntries (thread-safe; campaign workers share
//     one cache);
//   - optional on-disk tier (options.dir): write-through "fbist-dmx v1"
//     blobs named <16-hex-key>.dmx (reseed/serialize.h) in a
//     util::io::BlobDir (util/guarded_io.h).  Its atomic writes keep
//     concurrent readers off torn files; its dead-writer temp sweep
//     runs on open and in `fbist cache clear`.  Future-version files
//     are rejected loudly by the serializer and treated as misses.
//
// Entries are immutable once stored; hits hand out the shared_ptr, so
// a hit costs a hash plus a pointer copy, never a matrix copy.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cover/detection_matrix.h"
#include "fault/fault.h"
#include "netlist/compiled.h"
#include "tpg/tpg.h"
#include "tpg/triplet.h"
#include "util/guarded_io.h"

namespace fbist::reseed {

struct MatrixCacheOptions {
  /// On-disk tier directory; empty disables the disk tier.  Created on
  /// first store if missing.
  std::string dir;
};

/// Monotonic counters; hits = memory hits + disk_hits.
struct MatrixCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t evictions = 0;
};

class MatrixCache {
 public:
  using Key = std::uint64_t;

  /// In-memory LRU capacity (entries).
  static constexpr std::size_t kMemoryEntries = 16;

  /// Opening a cache with a directory sweeps the dead-writer temps in
  /// it (util::io::BlobDir::sweep_stale_temps).
  explicit MatrixCache(MatrixCacheOptions opts = {});

  /// Content hash of a matrix build.  The candidate triplets enter
  /// verbatim (delta, sigma, cycles per row), so TPG seed, T and the
  /// candidate-row set are covered without naming them; the TPG's
  /// (name, width, config_string) cover the step semantics that expand
  /// triplets into patterns; the compiled structure and fault list
  /// cover what the simulator measures.
  static Key key(const netlist::CompiledCircuit& cc,
                 const fault::FaultList& faults, const tpg::Tpg& tpg,
                 const std::vector<tpg::Triplet>& candidates);

  /// Returns the cached matrix or nullptr (a recorded miss).  Disk
  /// hits are promoted into the memory tier.
  std::shared_ptr<const cover::DetectionMatrix> lookup(Key k);

  /// Inserts (idempotent: the first stored entry for a key wins) and
  /// writes through to the disk tier when configured.
  void store(Key k, std::shared_ptr<const cover::DetectionMatrix> m);

  MatrixCacheStats stats() const;

  /// True once repeated disk-tier failures tripped the breaker and the
  /// cache degraded to memory-only (reads and writes skip the disk for
  /// the rest of the process; results are unaffected, only reuse is).
  bool disk_degraded() const { return disk_.degraded(); }

  /// Lists a cache directory's entries, for `fbist cache list`: blobs
  /// whose stem is a key in util::hex64 form, so stem order is key
  /// order.  Never throws; a missing directory lists empty.
  static std::vector<util::io::BlobDir::Entry> list_dir(const std::string& dir);
  /// Removes one entry; returns false when absent.
  static bool evict_file(const std::string& dir, Key k);
  /// Sweeps dead-writer temps, then removes every entry; returns the
  /// number of entries removed.
  static std::size_t clear_dir(const std::string& dir);

 private:
  /// Makes `k` the most recently used memory entry.  An entry already
  /// resident (a raced promotion, a concurrent builder's identical
  /// store) wins: `m` becomes it and false is returned.  Else `m` goes
  /// in, the LRU tail past kMemoryEntries is evicted, and true is
  /// returned.  Caller holds mu_.
  bool touch_or_insert_locked(
      Key k, std::shared_ptr<const cover::DetectionMatrix>& m);

  /// <hex-key>.dmx blobs; an empty dir() means no disk tier.  Its
  /// breaker trips after consecutive disk-tier I/O failures (reads or
  /// writes) and turns the tier off for this process.
  util::io::BlobDir disk_;

  mutable std::mutex mu_;
  struct Entry {
    Key key;
    std::shared_ptr<const cover::DetectionMatrix> matrix;
  };
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator> index_;
  MatrixCacheStats stats_;
};

}  // namespace fbist::reseed
