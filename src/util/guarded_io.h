// Guarded I/O: classified errors, deterministic retry with backoff.
//
// Every durable write and read in the campaign stack — checkpoint
// blobs, .dmx cache blobs, report/trace/metrics artifacts, spec files —
// goes through this layer instead of touching streams directly.  It
// gives each site three things:
//
//   1. A failpoint (util::failpoint) at the top of every attempt, so
//      chaos tests inject failures on the exact production path.
//   2. Error *classification*: IoError carries transient() — EINTR/
//      EAGAIN/EIO-shaped failures are worth retrying, ENOSPC/EROFS/
//      EACCES/ENOENT-shaped ones are not.
//   3. A bounded, deterministic retry loop: transients retry up to
//      RetryPolicy::max_attempts with capped exponential backoff
//      (1,2,4,... ms — a fixed sequence, no jitter, so chaos runs are
//      reproducible); permanents propagate immediately.  Retries and
//      give-ups are counted (io.retries / io.giveups) so a --metrics
//      snapshot shows how hard the disk fought back.
//
// Writers are atomic: payload lands in the temp `path + ".tmp.<pid>"`,
// is flush-checked, then renamed over the target — a torn write can
// leave a stale temp (BlobDir sweeps those whose writer is dead) but
// never a half-written final file.  The pid qualifier keeps processes
// sharing a directory off each other's temps.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/breaker.h"

namespace fbist::util::io {

/// An I/O failure with a retry classification.  Thrown by the helpers
/// below; callers that degrade (breakers) catch this type.
class IoError : public std::runtime_error {
 public:
  IoError(const std::string& what, bool transient)
      : std::runtime_error(what), transient_(transient) {}
  /// True when a retry could plausibly succeed (EINTR, EAGAIN, EIO);
  /// false for structural failures (ENOSPC, EROFS, EACCES, ENOENT).
  bool transient() const { return transient_; }

 private:
  bool transient_;
};

/// Classifies an errno value.  Exposed for tests.
bool errno_is_transient(int err);

struct RetryPolicy {
  int max_attempts = 4;            // total tries, including the first
  std::uint64_t base_backoff_ms = 1;   // doubles per retry
  std::uint64_t max_backoff_ms = 50;   // cap on any single sleep
};

/// Runs `op` with the retry loop described above.  `site` names the
/// operation in give-up messages.  Transient IoError and transient
/// failpoint::InjectedError retry; permanent ones rethrow immediately
/// (injected errors are rewrapped as IoError so callers see one type).
/// Exhausting the budget rethrows the last error with a
/// "(gave up after N attempts)" suffix.
void with_retries(const char* site, const std::function<void()>& op,
                  const RetryPolicy& policy = RetryPolicy{});

/// Atomically writes `payload` to `path` (tmp + flush-check + rename)
/// under with_retries; evaluates the failpoint `site` on each attempt.
void write_file_atomic(const char* site, const std::string& path,
                       const std::string& payload,
                       const RetryPolicy& policy = RetryPolicy{});

/// Reads all of `path` under with_retries; evaluates the failpoint
/// `site` on each attempt.  A missing file is a permanent IoError.
std::string read_file(const char* site, const std::string& path,
                      const RetryPolicy& policy = RetryPolicy{});

/// A directory of blobs: files named <stem><suffix>.  Every other name
/// in it, the temps of write_file_atomic included, is ignored.  Writes
/// and reads are the guarded helpers above at a failpoint site the
/// caller names; a CircuitBreaker latches repeated give-ups.  The
/// checkpoint store (run-<position>.ckpt) and the matrix cache's disk
/// tier (<16-hex-key>.dmx) are each a BlobDir plus their text format.
class BlobDir {
 public:
  struct Entry {
    std::string stem;
    std::string path;
    std::uintmax_t bytes = 0;
  };

  /// Names the directory without touching the disk; `breaker_name` and
  /// `degradation` label the breaker's trip warning.
  BlobDir(std::string dir, std::string suffix, std::string breaker_name,
          std::string degradation);

  const std::string& dir() const { return dir_; }
  /// <dir>/<stem><suffix>.
  std::string path(const std::string& stem) const;
  /// Creates the directory and its parents; false if it is still not a
  /// directory afterwards.
  bool create() const;
  bool exists(const std::string& stem) const;

  /// Atomically writes blob `stem`.  A success resets the breaker; an
  /// IoError give-up charges it and propagates.
  void write(const char* site, const std::string& stem,
             const std::string& payload);
  /// Reads blob `stem`; an IoError give-up propagates.  The breaker sees
  /// the outcome only with `charge_breaker` (the cache's policy; the
  /// checkpoint store counts an unreadable blob as corrupt instead).
  std::string read(const char* site, const std::string& stem,
                   bool charge_breaker);

  /// Every blob, sorted by stem; a missing directory lists empty.
  std::vector<Entry> list() const;
  /// Removes blob `stem`; false when absent.
  bool remove(const std::string& stem) const;

  /// Removes every blob temp whose writer pid is dead (and not ours),
  /// noting the count in a `component` diagnostic.  Without the sweep,
  /// temps of writers killed mid-write pile up across kill/resume
  /// cycles; a live writer's temp stays.
  std::uint64_t sweep_stale_temps(const char* component) const;

  /// True once the breaker tripped: callers skip the disk from then on.
  bool degraded() const { return breaker_.tripped(); }

 private:
  std::string dir_;
  std::string suffix_;
  CircuitBreaker breaker_;
};

}  // namespace fbist::util::io
