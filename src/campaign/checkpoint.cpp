#include "campaign/checkpoint.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/clock.h"
#include "obs/diag.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/guarded_io.h"
#include "util/record.h"
#include "util/rng.h"

namespace fbist::campaign {

namespace {

constexpr const char* kSuffix = ".ckpt";

/// Blob stem of canonical position `pos`: run-<pos, 6 digits>.
std::string blob_stem(std::size_t pos) {
  char stem[32];
  std::snprintf(stem, sizeof stem, "run-%06zu", pos);
  return stem;
}

/// Error messages are one rest-of-line field; fold any embedded
/// newline (exception text is free-form) into a space on write.
std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

}  // namespace

std::uint64_t spec_hash(const CampaignSpec& spec) {
  util::Fnv1a hs(util::Fnv1a::kShortBasis);
  const std::vector<RunSpec> runs = spec.expand();
  hs.u64(runs.size());
  for (const RunSpec& rs : runs) {
    hs.str(rs.circuit);
    hs.str(tpg::tpg_kind_name(rs.tpg));
    hs.u64(rs.cycles);
    hs.str(solver_name(rs.solver));
  }
  return hs.value();
}

std::string checkpoint_to_string(const CheckpointRecord& rec) {
  const RunResult& r = rec.result;
  std::ostringstream out;
  out << "fbist-ckpt v2\n";
  out << "spec " << util::hex64(rec.spec) << "\n";
  out << "run " << rec.position << " " << rec.total_runs << "\n";
  out << "circuit " << one_line(r.spec.circuit) << "\n";
  out << "tpg " << tpg::tpg_kind_name(r.spec.tpg) << "\n";
  out << "cycles " << r.spec.cycles << "\n";
  out << "solver " << solver_name(r.spec.solver) << "\n";
  out << "ok " << (r.ok ? 1 : 0) << "\n";
  if (!r.ok) {
    out << "error " << one_line(r.error) << "\n";
  } else {
    out << "counts " << r.circuit_inputs << " " << r.circuit_gates << " "
        << r.atpg_patterns << " " << r.faults_targeted << " " << r.redundant
        << " " << r.sat_detected << " " << r.num_triplets << " "
        << r.test_length << " " << r.faults_covered << " "
        << r.faults_uncoverable << " " << r.necessary_triplets << " "
        << r.solver_triplets << " " << (r.solver_optimal ? 1 : 0) << " "
        << r.rom_bits << "\n";
  }
  char ms[32];
  std::snprintf(ms, sizeof ms, "%.6f", r.wall_ms);
  out << "wall_ms " << ms << "\n";
  return out.str();
}

CheckpointRecord checkpoint_from_string(const std::string& text) {
  util::RecordReader in(text, "ckpt");
  in.header("fbist-ckpt", "v2");
  CheckpointRecord rec;
  RunResult& r = rec.result;
  bool spec_seen = false, run_seen = false, circuit_seen = false;
  bool tpg_seen = false, cycles_seen = false, solver_seen = false;
  int ok = -1;
  bool counts_seen = false, error_seen = false;

  // A 0/1 field.
  const auto flag = [&](const char* what) {
    const std::uint64_t v = in.count(what);
    if (v > 1) in.fail(std::string("bad ") + what);
    return v == 1;
  };
  // A TPG or solver name, through the spec's parsers.
  const auto named = [&](auto parse, const char* what) {
    const std::string name(in.token(what));
    try {
      return parse(name);
    } catch (const std::runtime_error& e) {
      in.fail(e.what());
    }
  };

  while (in.next()) {
    const std::string_view key = in.key();
    if (key == "spec") {
      rec.spec = in.hex64("spec hash");
      spec_seen = true;
    } else if (key == "run") {
      rec.position = in.count("run position");
      rec.total_runs = in.count("run count");
      if (rec.total_runs == 0 || rec.position >= rec.total_runs) {
        in.fail("bad run position");
      }
      run_seen = true;
    } else if (key == "circuit") {
      r.spec.circuit = in.rest();
      if (r.spec.circuit.empty()) in.fail("empty circuit");
      circuit_seen = true;
    } else if (key == "tpg") {
      r.spec.tpg = named(parse_tpg_kind, "tpg");
      tpg_seen = true;
    } else if (key == "solver") {
      r.spec.solver = named(parse_solver, "solver");
      solver_seen = true;
    } else if (key == "cycles") {
      r.spec.cycles = in.count("cycles");
      if (r.spec.cycles == 0) in.fail("bad cycles");
      cycles_seen = true;
    } else if (key == "ok") {
      r.ok = flag("ok flag");
      ok = r.ok ? 1 : 0;
    } else if (key == "error") {
      if (ok != 0) in.fail("error record without ok 0");
      r.error = in.rest();
      error_seen = true;
    } else if (key == "counts") {
      if (ok != 1) in.fail("counts record without ok 1");
      for (std::size_t* field :
           {&r.circuit_inputs, &r.circuit_gates, &r.atpg_patterns,
            &r.faults_targeted, &r.redundant, &r.sat_detected,
            &r.num_triplets, &r.test_length, &r.faults_covered,
            &r.faults_uncoverable, &r.necessary_triplets,
            &r.solver_triplets}) {
        *field = in.count("count");
      }
      r.solver_optimal = flag("optimal flag");
      r.rom_bits = in.count("rom bits");
      counts_seen = true;
    } else if (key == "wall_ms") {
      const std::string tok(in.token("wall_ms"));
      char* end = nullptr;
      r.wall_ms = std::strtod(tok.c_str(), &end);
      if (end != tok.c_str() + tok.size() || !std::isfinite(r.wall_ms) ||
          r.wall_ms < 0) {
        in.fail("bad wall_ms '" + tok + "'");
      }
    } else {
      in.fail("unknown record '" + std::string(key) + "'");
    }
    in.end();
  }
  if (!spec_seen || !run_seen) in.fail_input("incomplete header (spec/run)");
  if (!circuit_seen || !tpg_seen || !cycles_seen || !solver_seen || ok == -1) {
    in.fail_input("incomplete run identity (circuit/tpg/cycles/solver/ok)");
  }
  if (r.ok && !counts_seen) in.fail_input("ok run without counts record");
  if (!r.ok && !error_seen) in.fail_input("failed run without error record");
  return rec;
}

CheckpointStore::CheckpointStore(std::string dir, const CampaignSpec& spec)
    : blobs_(std::move(dir), kSuffix, "checkpoint store",
             "checkpointing disabled, durability lost"),
      hash_(spec_hash(spec)),
      runs_(spec.expand()) {
  if (!blobs_.create()) {
    throw std::runtime_error("checkpoint: cannot create directory " +
                             blobs_.dir());
  }
  stale_removed_ = blobs_.sweep_stale_temps("checkpoint");
}

std::string CheckpointStore::blob_path(std::size_t pos) const {
  return blobs_.path(blob_stem(pos));
}

void CheckpointStore::write(std::size_t pos, const RunResult& result) {
  OBS_HISTOGRAM(h_write, "checkpoint.write_ns");
  OBS_COUNTER(c_bytes, "checkpoint.bytes");
  const std::uint64_t start_ns = obs::Clock::now_ns();
  if (pos >= runs_.size()) {
    throw std::runtime_error("checkpoint: position " + std::to_string(pos) +
                             " out of range (spec has " +
                             std::to_string(runs_.size()) + " runs)");
  }
  // Warn-and-continue degradation: once the breaker tripped (it warned
  // at trip time, naming the consequence), further writes are silent
  // no-ops — the sweep's results live only in memory from here on.
  if (blobs_.degraded()) return;

  CheckpointRecord rec;
  rec.spec = hash_;
  rec.position = pos;
  rec.total_runs = runs_.size();
  rec.result = result;
  const std::string text = checkpoint_to_string(rec);

  // Guarded atomic write ("checkpoint.write"): a crash mid-write
  // leaves only a temp behind (ignored by load, swept on the next
  // open), never a torn .ckpt blob.  Transient failures retry with
  // deterministic backoff; a give-up charges the breaker and throws
  // (the runner warns and continues).
  try {
    blobs_.write("checkpoint.write", blob_stem(pos), text);
  } catch (const util::io::IoError& e) {
    throw std::runtime_error("checkpoint: cannot write " + blob_path(pos) +
                             ": " + e.what());
  }
  OBS_COUNT(c_bytes, static_cast<std::uint64_t>(text.size()));
  OBS_OBSERVE(h_write, obs::Clock::now_ns() - start_ns);
  OBS_INSTANT("checkpoint_write");
  std::lock_guard<std::mutex> lock(mu_);
  ++written_;
}

std::unordered_map<std::size_t, RunResult> CheckpointStore::load() {
  std::unordered_map<std::size_t, RunResult> out;
  for (const util::io::BlobDir::Entry& blob : blobs_.list()) {
    const std::string& path = blob.path;
    CheckpointRecord rec;
    try {
      // Guarded read ("checkpoint.read"): transient read failures —
      // real or injected — retry before the blob is declared corrupt.
      // A give-up is a corrupt blob, not a disk fault: it never
      // charges the write breaker.
      rec = checkpoint_from_string(
          blobs_.read("checkpoint.read", blob.stem, false));
    } catch (const std::runtime_error& e) {
      // Torn or unreadable blob: its run re-executes and the rewrite
      // replaces the file.  Loud but non-fatal.
      obs::diag(obs::Severity::kWarn, "checkpoint",
                path + ": " + e.what() +
                    " — ignoring, run will be re-executed");
      std::lock_guard<std::mutex> lock(mu_);
      ++corrupt_;
      continue;
    }
    // A well-formed blob from a *different* spec is not recoverable-by
    // -rebuild: the whole directory belongs to another sweep, and
    // silently mixing its results into this report would corrupt it.
    if (rec.spec != hash_) {
      throw std::runtime_error(
          "checkpoint " + path + ": spec hash " +
          util::hex64(rec.spec) + " does not match this campaign (" +
          util::hex64(hash_) +
          "); the directory holds a different sweep — use a fresh "
          "--checkpoint directory or delete the stale blobs");
    }
    if (rec.total_runs != runs_.size() || rec.position >= runs_.size()) {
      throw std::runtime_error("checkpoint " + path +
                               ": run position " +
                               std::to_string(rec.position) + "/" +
                               std::to_string(rec.total_runs) +
                               " does not fit this campaign's " +
                               std::to_string(runs_.size()) + " runs");
    }
    const RunSpec& want = runs_[rec.position];
    const RunSpec& got = rec.result.spec;
    if (got.circuit != want.circuit || got.tpg != want.tpg ||
        got.cycles != want.cycles || got.solver != want.solver) {
      throw std::runtime_error("checkpoint " + path + ": run '" +
                               run_label(got) + "' at position " +
                               std::to_string(rec.position) +
                               " does not match the spec's '" +
                               run_label(want) + "'");
    }
    out.emplace(rec.position, std::move(rec.result));
  }
  return out;
}

std::uint64_t CheckpointStore::written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

std::uint64_t CheckpointStore::corrupt() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corrupt_;
}

Report merge_checkpoints(const CampaignSpec& spec,
                         const std::vector<std::string>& dirs) {
  spec.validate();
  if (dirs.empty()) {
    throw std::runtime_error("merge: no checkpoint directories given");
  }
  const std::vector<RunSpec> runs = spec.expand();

  Report report;
  report.runs.resize(runs.size());
  std::vector<bool> have(runs.size(), false);
  std::uint64_t corrupt = 0;
  std::uint64_t stale = 0;
  for (const std::string& dir : dirs) {
    CheckpointStore store(dir, spec);
    std::unordered_map<std::size_t, RunResult> got = store.load();
    corrupt += store.corrupt();
    stale += store.stale_tmp_removed();
    for (auto& [pos, result] : got) {
      // Shards may overlap (a re-run shard, a shared directory given
      // twice); blob content is deterministic, so the first valid one
      // wins.
      if (have[pos]) continue;
      report.runs[pos] = std::move(result);
      have[pos] = true;
    }
  }

  std::size_t missing = 0;
  std::string first_missing;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (have[i]) continue;
    ++missing;
    if (first_missing.empty()) {
      first_missing = run_label(runs[i]) + " (position " + std::to_string(i) +
                      ")";
    }
  }
  if (missing != 0) {
    throw std::runtime_error(
        "merge: " + std::to_string(missing) + " of " +
        std::to_string(runs.size()) + " runs have no checkpoint (first: " +
        first_missing + "); run the missing shard(s) before merging");
  }

  report.checkpoint.enabled = true;
  report.checkpoint.resumed = runs.size();
  report.checkpoint.corrupt = corrupt;
  report.checkpoint.stale_tmp_removed = stale;
  return report;
}

}  // namespace fbist::campaign
