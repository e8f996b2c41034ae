// perfbench: one benchmark invocation of the reseeding flow.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--tiny] [--report FILE] [--corrupt-run K]
//
// Generates the workload's circuits from the seed, writes them as
// .bench files into the work directory and times
// campaign::run_campaign — the function behind `fbist campaign` — on
// them from outside.  --trace 0 repeats the sweep for S seconds;
// --trace 1 runs the sweep once and then the layered replay
// (layered.h), untraced and traced.  Every invocation checks the
// outputs (checks.h) outside the timed region.
//
// stdout carries one JSON document of raw measurements (integer ns,
// µs and KiB), checks and host context; perfbench/run.py turns it into
// metrics.  Exit status: 0 when every check passed, 1 when one failed,
// 2 on a usage or environment error (no document is printed then).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.h"
#include "campaign/scheduler.h"
#include "checks.h"
#include "circuits/generator.h"
#include "layered.h"
#include "netlist/bench_io.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/simd.h"
#include "workload.h"

namespace fs = std::filesystem;
namespace fc = fbist::campaign;
using fbist::obs::Clock;
using fbist::util::JsonWriter;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  bool tiny = false;
  std::string report_file;
  long corrupt_run = -1;  // test hook: damage this run's row before checks
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value after " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--work-dir") {
        a.work_dir = v;
      } else if (flag == "--report") {
        a.report_file = v;
      } else if (flag == "--corrupt-run") {
        a.corrupt_run = std::stol(v);
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage_error("--workload is required");
  return a;
}

/// Settings that would silently change what is measured.
void refuse_foreign_configuration() {
  for (const char* var : {"FBIST_FAILPOINTS", "FBIST_JOBS", "FBIST_SIMD"}) {
    if (std::getenv(var) != nullptr) {
      usage_error(std::string("refusing to measure with ") + var +
                  " set; unset it");
    }
  }
}

std::string first_line_with(const char* path, const std::string& prefix) {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "";
}

std::string read_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

const char* tier_name(fbist::util::SimdTier t) {
  switch (t) {
    case fbist::util::SimdTier::kNarrow:
      return "narrow";
    case fbist::util::SimdTier::kWide4:
      return "avx2";
    case fbist::util::SimdTier::kWide8:
      return "avx512";
    case fbist::util::SimdTier::kAuto:
      break;
  }
  return fbist::util::cpu_has_avx512() ? "auto (avx512 available)"
                                       : "auto (no avx512)";
}

std::uint64_t cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
             1000000 +
         static_cast<std::uint64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::uint64_t peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // KiB on Linux
}

/// One set-up: generate every circuit, write it as .bench into the
/// current directory, parse it back, and warm the worker pool.
/// Returns an FNV-1a digest of the .bench texts.
std::uint64_t set_up(const Workload& w, std::size_t jobs) {
  std::string all;
  for (const CircuitPlan& c : w.circuits) {
    const fbist::netlist::Netlist nl = fbist::circuits::generate(c.spec, "n");
    const std::string text = fbist::netlist::to_bench_string(nl);
    {
      std::ofstream out(c.file, std::ios::trunc);
      out << text;
      if (!out.flush()) throw std::runtime_error("cannot write " + c.file);
    }
    const fbist::netlist::Netlist back = fbist::netlist::parse_bench_file(c.file);
    if (back.num_inputs() != nl.num_inputs() ||
        back.num_outputs() != nl.num_outputs() ||
        back.num_gates() != nl.num_gates()) {
      throw std::runtime_error(c.file + " does not parse back to its netlist");
    }
    all += text;
  }
  fc::Scheduler::global().set_workers(jobs);
  fbist::util::parallel_for(jobs * 16, [](std::size_t) {});
  return fbist::util::hash_string(all);
}

struct Sweep {
  fc::Report report;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_us = 0;
};

Sweep sweep(const Workload& w, std::size_t jobs) {
  fc::CampaignOptions opts;
  opts.jobs = jobs;
  Sweep s;
  const std::uint64_t cpu0 = cpu_us();
  const std::uint64_t t0 = Clock::now_ns();
  s.report = fc::run_campaign(w.campaign, opts);
  s.wall_ns = Clock::now_ns() - t0;
  s.cpu_us = cpu_us() - cpu0;
  return s;
}

std::uint64_t counter(const fbist::obs::MetricsSnapshot& m, const char* name) {
  for (const auto& [n, v] : m.counters) {
    if (n == name) return v;
  }
  return 0;
}

void write_numbers(JsonWriter& j, const char* key,
                   const std::vector<std::uint64_t>& v) {
  j.key(key);
  j.begin_array();
  for (const std::uint64_t x : v) j.value(x);
  j.end_array();
}

void write_spans(JsonWriter& j, const std::vector<Span>& spans) {
  j.key("spans");
  j.begin_array();
  for (const Span& s : spans) {
    j.begin_object();
    j.key("name");
    j.value(s.name);
    j.key("leaf");
    j.value(s.leaf);
    j.key("start_ns");
    j.value(s.start_ns);
    j.key("end_ns");
    j.value(s.end_ns);
    j.key("parent");
    j.value(s.parent);
    j.key("circuit");
    j.value(s.circuit);
    j.key("run");
    j.value(s.run);
    j.key("counters");
    j.begin_object();
    for (const auto& [k, v] : s.counters) {
      j.key(k);
      j.value(v);
    }
    j.end_object();
    j.end_object();
  }
  j.end_array();
}

void write_host(JsonWriter& j, std::size_t nproc) {
  j.key("host");
  j.begin_object();
  j.key("nproc");
  j.value(static_cast<std::uint64_t>(nproc));
  j.key("cpu_model");
  j.value(first_line_with("/proc/cpuinfo", "model name"));
  j.key("loadavg");
  j.value(read_line("/proc/loadavg"));
  j.key("simd_tier");
  j.value(tier_name(fbist::util::simd_tier()));
  j.key("build_type");
  j.value(PERFBENCH_BUILD_TYPE);
  j.key("observability");
  j.value(FBIST_OBSERVABILITY);
  j.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  refuse_foreign_configuration();
  Workload w;
  try {
    w = make_workload(args.workload, args.seed, args.tiny);
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());
  }
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t jobs = std::min<std::size_t>(4, nproc);

  // Circuit names are the relative file names, so they depend only on
  // (workload, seed): the sweep runs inside the work directory.
  const fs::path work = fs::absolute(
      args.work_dir.empty()
          ? fs::path(".bench_build/work") /
                (w.name + "-" + std::to_string(getpid()))
          : fs::path(args.work_dir));
  const fs::path report_file =
      args.report_file.empty() ? fs::path() : fs::absolute(args.report_file);
  fs::create_directories(work);
  fs::current_path(work);

  std::vector<std::string> errors;
  JsonWriter j;
  j.begin_object();
  j.key("workload");
  j.value(w.name);
  j.key("seed");
  j.value(w.seed);
  j.key("trace");
  j.value(args.trace);
  j.key("jobs");
  j.value(static_cast<std::uint64_t>(jobs));
  write_host(j, nproc);
  try {
    // Set-up, several times; the median is the metric.
    std::vector<std::uint64_t> setup_ns;
    std::uint64_t digest = 0;
    for (int i = 0; i < 15; ++i) {
      const std::uint64_t t0 = Clock::now_ns();
      digest = set_up(w, jobs);
      setup_ns.push_back(Clock::now_ns() - t0);
    }

    // The sweeps.  Trace mode needs one (for the campaign's own pool
    // counters).  Otherwise they run until the time is used up, at
    // least three so that the median drops one sweep the host slowed
    // down; the set-ups have already warmed the pool.
    std::vector<Sweep> sweeps;
    const std::uint64_t start = Clock::now_ns();
    do {
      sweeps.push_back(sweep(w, jobs));
    } while (!args.trace &&
             (sweeps.size() < 3 ||
              static_cast<double>(Clock::now_ns() - start) * 1e-9 <
                  args.seconds));
    const std::uint64_t rss_kib = peak_rss_kib();

    // --- Everything below is outside the timed region. ---------------
    fc::Report& report = sweeps.front().report;
    const std::string canonical = report.to_json(false);
    for (std::size_t i = 1; i < sweeps.size(); ++i) {
      if (sweeps[i].report.to_json(false) != canonical) {
        errors.push_back("sweep " + std::to_string(i) +
                         "'s canonical report differs from sweep 0's");
      }
    }
    if (!report_file.empty()) std::ofstream(report_file) << canonical;
    if (args.corrupt_run >= 0 &&
        static_cast<std::size_t>(args.corrupt_run) < report.runs.size()) {
      --report.runs[static_cast<std::size_t>(args.corrupt_run)].faults_covered;
    }
    check_runs(report, errors);

    LayeredResult layered;
    std::uint64_t layered_off_ns = 0;
    if (args.trace) {
      const LayeredResult off = run_layered(w.campaign, false);
      check_layered(report, off, errors);
      layered_off_ns = off.wall_ns;
      layered = run_layered(w.campaign, true);
    } else {
      layered = run_layered_parallel(w.campaign);
    }
    check_layered(report, layered, errors);
    check_reference_sim(report, layered, errors);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::uint64_t> sweep_ns;
    std::vector<std::uint64_t> sweep_cpu_us;
    for (const Sweep& s : sweeps) {
      attempted += s.report.runs.size();
      failed += s.report.num_failed();
      sweep_ns.push_back(s.wall_ns);
      sweep_cpu_us.push_back(s.cpu_us);
    }
    std::uint64_t triplets = 0;
    std::uint64_t test_length = 0;
    double coverage = 100.0;
    for (const fc::RunResult& r : report.runs) {
      triplets += r.num_triplets;
      test_length += r.test_length;
      coverage = std::min(coverage, r.coverage_percent());
    }

    j.key("circuit_digest");
    j.value(std::to_string(digest));
    j.key("attempted");
    j.value(attempted);
    j.key("failed");
    j.value(failed);
    write_numbers(j, "setup_ns", setup_ns);
    write_numbers(j, "sweep_ns", sweep_ns);
    write_numbers(j, "cpu_us", sweep_cpu_us);
    j.key("peak_rss_kib");
    j.value(rss_kib);
    j.key("triplets");
    j.value(triplets);
    j.key("test_length");
    j.value(test_length);
    j.key("coverage_pct");
    j.value_fixed(coverage, 6);
    if (args.trace) {
      j.key("campaign");
      j.begin_object();
      for (const char* name :
           {"scheduler.park_ns", "scheduler.steals", "scheduler.loops",
            "scheduler.loops_degraded"}) {
        j.key(name);
        j.value(counter(report.metrics, name));
      }
      j.end_object();
      j.key("layered_off_ns");
      j.value(layered_off_ns);
      j.key("layered_on_ns");
      j.value(layered.wall_ns);
      write_spans(j, layered.spans);
    }
  } catch (const std::exception& e) {
    errors.push_back(std::string("benchmark aborted: ") + e.what());
  }
  j.key("errors");
  j.begin_array();
  for (const std::string& e : errors) j.value(e);
  j.end_array();
  j.key("correct");
  j.value(errors.empty());
  j.end_object();

  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  std::error_code ec;
  fs::current_path(work.parent_path(), ec);
  if (args.work_dir.empty()) fs::remove_all(work, ec);
  return errors.empty() ? 0 : 1;
}
