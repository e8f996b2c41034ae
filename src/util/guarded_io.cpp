#include "util/guarded_io.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/diag.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/record.h"

namespace fs = std::filesystem;

namespace fbist::util::io {

namespace {

constexpr std::string_view kTempMarker = ".tmp.";

std::string errno_suffix(int err) {
  return err == 0 ? std::string()
                  : std::string(": ") + std::strerror(err);
}

void remove_quietly(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

/// True when `pid` names a live process: kill(pid, 0) probes existence
/// without signalling (EPERM still means "exists, not ours").
bool pid_alive(std::uint64_t pid) {
  if (pid == 0 || pid > static_cast<std::uint64_t>(INT32_MAX)) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
}

std::uint64_t backoff_ms(const RetryPolicy& policy, int retry_index) {
  std::uint64_t ms = policy.base_backoff_ms;
  for (int i = 0; i < retry_index; ++i) {
    ms *= 2;
    if (ms >= policy.max_backoff_ms) return policy.max_backoff_ms;
  }
  return ms < policy.max_backoff_ms ? ms : policy.max_backoff_ms;
}

}  // namespace

bool errno_is_transient(int err) {
  switch (err) {
    // A retry can plausibly see these clear: interrupted call, busy
    // resource, a flaky medium, table pressure.
    case EINTR:
    case EAGAIN:
    case EIO:
    case EBUSY:
    case ENFILE:
    case EMFILE:
      return true;
    // Structural: the disk is full, read-only, forbidden, or the path
    // is wrong — retrying in milliseconds cannot help.
    case ENOSPC:
    case EROFS:
    case EACCES:
    case EPERM:
    case ENOENT:
    case ENOTDIR:
    case EISDIR:
    case ENAMETOOLONG:
#ifdef EDQUOT
    case EDQUOT:
#endif
      return false;
    // Unknown errno (including 0, when a stream fails without setting
    // one): treat as transient — the retry budget bounds the cost and
    // a spurious retry beats a spurious give-up.
    default:
      return true;
  }
}

void with_retries(const char* site, const std::function<void()>& op,
                  const RetryPolicy& policy) {
  OBS_COUNTER(c_retries, "io.retries");
  OBS_COUNTER(c_giveups, "io.giveups");
  int attempt = 1;
  for (;;) {
    bool transient = false;
    std::string err;
    try {
      op();
      return;
    } catch (const failpoint::InjectedError& e) {
      transient = e.transient();
      err = e.what();
    } catch (const IoError& e) {
      transient = e.transient();
      err = e.what();
    }
    if (!transient) {
      OBS_COUNT(c_giveups, 1);
      throw IoError(err, false);
    }
    if (attempt >= policy.max_attempts) {
      OBS_COUNT(c_giveups, 1);
      throw IoError(err + " (" + site + ": gave up after " +
                        std::to_string(attempt) + " attempts)",
                    true);
    }
    OBS_COUNT(c_retries, 1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff_ms(policy, attempt - 1)));
    ++attempt;
  }
}

void write_file_atomic(const char* site, const std::string& path,
                       const std::string& payload,
                       const RetryPolicy& policy) {
  with_retries(
      site,
      [&] {
        FBIST_FAILPOINT(site);
        const std::string tmp =
            path + std::string(kTempMarker) + std::to_string(::getpid());
        errno = 0;
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
          throw IoError("cannot open " + tmp + errno_suffix(errno),
                        errno_is_transient(errno));
        }
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        out.flush();
        if (!out) {
          const int err = errno;
          out.close();
          remove_quietly(tmp);
          throw IoError("short write to " + tmp + errno_suffix(err),
                        errno_is_transient(err));
        }
        out.close();
        std::error_code ec;
        fs::rename(tmp, path, ec);
        if (ec) {
          remove_quietly(tmp);
          throw IoError("cannot rename " + tmp + " to " + path + ": " +
                            ec.message(),
                        errno_is_transient(ec.value()));
        }
      },
      policy);
}

std::string read_file(const char* site, const std::string& path,
                      const RetryPolicy& policy) {
  std::string text;
  with_retries(
      site,
      [&] {
        FBIST_FAILPOINT(site);
        errno = 0;
        std::ifstream in(path, std::ios::binary);
        if (!in) {
          throw IoError("cannot open " + path + errno_suffix(errno),
                        errno_is_transient(errno));
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        if (in.bad()) {
          const int err = errno;
          throw IoError("cannot read " + path + errno_suffix(err),
                        errno_is_transient(err));
        }
        text = buf.str();
      },
      policy);
  return text;
}

BlobDir::BlobDir(std::string dir, std::string suffix, std::string breaker_name,
                 std::string degradation)
    : dir_(std::move(dir)),
      suffix_(std::move(suffix)),
      breaker_(std::move(breaker_name), std::move(degradation)) {}

std::string BlobDir::path(const std::string& stem) const {
  return (fs::path(dir_) / (stem + suffix_)).string();
}

bool BlobDir::create() const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  return fs::is_directory(dir_, ec);
}

bool BlobDir::exists(const std::string& stem) const {
  std::error_code ec;
  return fs::exists(path(stem), ec);
}

void BlobDir::write(const char* site, const std::string& stem,
                    const std::string& payload) {
  try {
    write_file_atomic(site, path(stem), payload);
  } catch (const IoError&) {
    breaker_.record_failure();
    throw;
  }
  breaker_.record_success();
}

std::string BlobDir::read(const char* site, const std::string& stem,
                          bool charge_breaker) {
  std::string text;
  try {
    text = read_file(site, path(stem));
  } catch (const IoError&) {
    if (charge_breaker) breaker_.record_failure();
    throw;
  }
  if (charge_breaker) breaker_.record_success();
  return text;
}

std::vector<BlobDir::Entry> BlobDir::list() const {
  std::vector<Entry> entries;
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return entries;
  for (const fs::directory_entry& de : it) {
    const fs::path& p = de.path();
    if (p.extension() != suffix_) continue;
    Entry e;
    e.stem = p.stem().string();
    e.path = p.string();
    e.bytes = de.file_size(ec);
    if (ec) e.bytes = 0;
    entries.push_back(std::move(e));
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.stem < b.stem; });
  return entries;
}

bool BlobDir::remove(const std::string& stem) const {
  std::error_code ec;
  return fs::remove(path(stem), ec) && !ec;
}

std::uint64_t BlobDir::sweep_stale_temps(const char* component) const {
  std::error_code ec;
  fs::directory_iterator it(dir_, ec);
  if (ec) return 0;
  const auto self = static_cast<std::uint64_t>(::getpid());
  std::uint64_t removed = 0;
  for (const fs::directory_entry& de : it) {
    // A blob temp is "<stem><suffix>.tmp.<pid>", named by
    // write_file_atomic above.
    const std::string name = de.path().filename().string();
    const std::size_t marker = name.rfind(kTempMarker);
    std::uint64_t pid = 0;
    if (marker == std::string::npos ||
        fs::path(name.substr(0, marker)).extension() != suffix_ ||
        !parse_u64(std::string_view(name).substr(marker + kTempMarker.size()),
                   &pid) ||
        pid == self || pid_alive(pid)) {
      continue;
    }
    if (fs::remove(de.path(), ec) && !ec) ++removed;
  }
  if (removed != 0) {
    obs::diag(obs::Severity::kInfo, component,
              "swept " + std::to_string(removed) +
                  " stale temp file(s) left by dead writers in " + dir_);
  }
  return removed;
}

}  // namespace fbist::util::io
