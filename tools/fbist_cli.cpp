// fbist — command-line front end for the reseeding library.
//
// Every subcommand is one row of kCommands below: its name, its
// synopsis and the function that runs it.  The synopsis lists the
// positional arguments and every flag the subcommand takes, each flag
// with the kind of value it takes (N, K, S, on|off, I/N, MS, a path).
// One parser reads every command line against that synopsis and
// rejects, naming the culprit, an unknown flag, a flag the subcommand
// does not take, a flag without a value or with a bad one, and an
// extra argument — no flag is ever silently ignored.  usage() prints
// the same synopses (run `fbist` with no arguments), so the documented
// and the accepted flags cannot drift apart.  Command-line errors exit
// 2; a failing run exits 1.
//
// Campaign determinism contract: each circuit is compiled and
// ATPG-prepared once and shared by all of its runs, and the report is
// bit-identical for any --jobs value, cached or not, resumed or not —
// and a report merged from shard checkpoints is byte-identical to an
// uninterrupted single-process run of the same spec.  --trace and
// --metrics never change the report bytes.
//
// Fault injection: set FBIST_FAILPOINTS="site=err(p[,seed[,max]]);..."
// (see util/failpoint.h for the grammar; `fbist failpoints` lists the
// sites) to deterministically inject I/O failures and delays at the
// durable-I/O paths — the chaos CI job drives the whole sweep this way
// and asserts the report stays byte-identical.
//
// Circuit arguments name either a registry benchmark (c432, s1238, ...)
// or a path to an ISCAS .bench file (sequential files are scan-flattened).
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "atpg/scoap.h"
#include "campaign/checkpoint.h"
#include "campaign/runner.h"
#include "obs/diag.h"
#include "circuits/generator.h"
#include "circuits/registry.h"
#include "cover/greedy.h"
#include "cover/instance_io.h"
#include "netlist/bench_io.h"
#include "netlist/stats.h"
#include "reseed/matrix_cache.h"
#include "reseed/pipeline.h"
#include "reseed/report.h"
#include "reseed/serialize.h"
#include "reseed/tradeoff.h"
#include "util/failpoint.h"
#include "util/guarded_io.h"
#include "util/record.h"
#include "util/table.h"

namespace {

using namespace fbist;

/// A malformed command line: reported with the subcommand's synopsis,
/// exit status 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Strict positive count: no sign, no trailing junk, not 0.
std::size_t parse_count(const std::string& tok, const std::string& what) {
  std::uint64_t v = 0;
  if (!util::parse_u64(tok, &v) || v == 0)
    throw std::runtime_error(what + ": bad value '" + tok + "'");
  return v;
}

std::vector<std::string> split_commas(const std::string& arg) {
  std::vector<std::string> out;
  std::istringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// One command line, read against its subcommand's synopsis.
struct Args {
  std::vector<std::string> pos;
  /// Every value given per flag, in order ("" for a presence flag).
  std::map<std::string, std::vector<std::string>> flags;

  bool has(const std::string& f) const { return flags.count(f) != 0; }
  std::vector<std::string> all(const std::string& f) const {
    return has(f) ? flags.at(f) : std::vector<std::string>{};
  }
  /// The last value given for `f` (a repeated flag overrides), or
  /// `fallback`.
  std::string get(const std::string& f, std::string fallback = "") const {
    return has(f) ? flags.at(f).back() : fallback;
  }
};

int cmd_list(const Args&) {
  for (const auto& p : circuits::benchmark_profiles()) {
    std::cout << p.name << "  (" << p.num_inputs << " PI, " << p.num_outputs
              << " PO, ~" << p.num_gates << " gates"
              << (p.sequential_origin ? ", full-scan" : "") << ")\n";
  }
  return 0;
}

int cmd_info(const Args& a) {
  const std::string& arg = a.pos[0];
  const auto nl = campaign::load_circuit(arg);
  std::cout << netlist::stats_to_string(netlist::compute_stats(nl), arg);
  const auto faults = fault::FaultList::collapsed(nl);
  std::cout << "  collapsed stuck-at faults: " << faults.size() << "\n";
  const auto scoap = atpg::compute_scoap(nl);
  std::cout << "  " << atpg::scoap_summary(nl, scoap) << "\n";
  // The five hardest faults (SCOAP proxy) — the ones random testing
  // stalls on.
  const auto order = atpg::hardest_first(scoap, faults);
  std::cout << "  hardest faults:";
  for (std::size_t i = 0; i < order.size() && i < 5; ++i) {
    std::cout << " " << fault_name(nl, faults[order[i]]) << "(cost "
              << scoap.fault_difficulty(faults[order[i]]) << ")";
  }
  std::cout << "\n";
  return 0;
}

int cmd_atpg(const Args& a) {
  const std::string& arg = a.pos[0];
  reseed::PipelineOptions opts;
  opts.atpg.sat_escalate = a.get("--sat-escalate", "on") == "on";
  reseed::Pipeline p(campaign::load_circuit(arg), arg, opts);
  const auto& r = p.atpg_result();
  std::cout << arg << ": " << p.atpg_patterns().size() << " patterns ("
            << r.random_patterns_used << " random-phase, "
            << r.deterministic_patterns << " PODEM)\n"
            << "  testable coverage: "
            << util::Table::fmt(r.testable_coverage_percent(), 2) << "%\n"
            << "  redundant faults: " << r.redundant_faults
            << ", aborted: " << r.aborted_faults << "\n"
            << "  SAT escalation: " << r.sat_detected_faults
            << " detected, " << r.sat_redundant_faults
            << " certified redundant\n";
  return 0;
}

int cmd_reseed(const Args& a) {
  const std::string& arg = a.pos[0];
  const std::string tpg = a.get("--tpg", "adder");
  const std::size_t cycles = parse_count(a.get("--cycles", "64"), "--cycles");
  const std::string out = a.get("--out");
  reseed::PipelineOptions opts;
  opts.optimizer.solver = campaign::parse_solver(a.get("--solver", "exact"));
  reseed::Pipeline p(campaign::load_circuit(arg), arg, opts);
  const auto sol = p.run({campaign::parse_tpg_kind(tpg), cycles});
  std::cout << reseed::solution_to_string(
      sol, arg + " / " + tpg + " TPG / T=" + std::to_string(cycles) + ":");
  if (!out.empty()) {
    const auto rom =
        reseed::to_rom_image(sol, arg, tpg, p.circuit().num_inputs());
    reseed::write_rom_file(rom, out);
    std::cout << "ROM image written to " << out << " (" << rom.rom_bits()
              << " bits)\n";
  }
  return sol.faults_covered == sol.faults_targeted ? 0 : 1;
}

int cmd_replay(const Args& a) {
  const std::string& arg = a.pos[0];
  const auto rom = reseed::read_rom_file(a.pos[1]);
  reseed::Pipeline p(campaign::load_circuit(arg), arg);
  if (rom.width != p.circuit().num_inputs()) {
    throw std::runtime_error("replay: ROM width " + std::to_string(rom.width) +
                             " != circuit PI count " +
                             std::to_string(p.circuit().num_inputs()));
  }
  const auto tpg =
      tpg::make_tpg(campaign::parse_tpg_kind(rom.tpg_name), rom.width);
  sim::PatternSet all(rom.width, 0);
  for (const auto& t : rom.triplets) {
    all.append_all(tpg::expand_triplet(*tpg, t));
  }
  const auto r = p.fault_sim().run(all);
  std::cout << "replayed " << rom.triplets.size() << " triplets ("
            << all.size() << " patterns): " << r.num_detected() << "/"
            << p.faults().size() << " target faults detected ("
            << util::Table::fmt(r.coverage_percent(p.faults().size()), 2)
            << "%)\n";
  return r.num_detected() == p.faults().size() ? 0 : 1;
}

int cmd_tradeoff(const Args& a) {
  const std::string& arg = a.pos[0];
  const std::string tpg_name = a.get("--tpg", "adder");
  reseed::Pipeline p(campaign::load_circuit(arg), arg);
  const auto tpg = tpg::make_tpg(campaign::parse_tpg_kind(tpg_name),
                                 p.circuit().num_inputs());
  reseed::TradeoffOptions topts;
  topts.cycle_values = {1, 4, 16, 64, 256, 1024};
  topts.builder.shared_sigma = true;
  const auto points =
      reseed::tradeoff_sweep(p.fault_sim(), *tpg, p.atpg_patterns(), topts);
  util::Table table(arg + " trade-off (" + tpg_name + ")");
  table.set_header({"T", "#reseedings", "test length"});
  for (const auto& pt : points) {
    table.add_row({std::to_string(pt.cycles_per_triplet),
                   std::to_string(pt.num_triplets),
                   std::to_string(pt.test_length)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_matrix(const Args& a) {
  const std::string& arg = a.pos[0];
  const std::string out = a.get("--out");
  reseed::Pipeline p(campaign::load_circuit(arg), arg);
  const auto init = p.build(campaign::parse_tpg_kind(a.get("--tpg", "adder")),
                            parse_count(a.get("--cycles", "64"), "--cycles"));
  if (out.empty()) {
    std::cout << cover::instance_to_string(init.matrix);
  } else {
    cover::write_instance_file(init.matrix, out);
    std::cout << "detection matrix (" << init.matrix.num_rows() << "x"
              << init.matrix.num_cols() << ") written to " << out << "\n";
  }
  return 0;
}

int cmd_solve(const Args& a) {
  const auto m = cover::read_instance_file(a.pos[0]);
  if (!m.all_columns_coverable()) {
    throw std::runtime_error("solve: instance has uncoverable columns");
  }
  if (a.get("--solver") == "greedy") {
    const auto s = cover::solve_greedy(m);
    std::cout << "greedy cover: " << s.rows.size() << " rows\n";
  } else {
    const auto s = cover::solve_exact(m);
    std::cout << "exact cover: " << s.rows.size() << " rows ("
              << s.nodes << " nodes, "
              << (s.proven_optimal ? "optimal" : "budget-limited") << ")\nrows:";
    for (const auto r : s.rows) std::cout << ' ' << r;
    std::cout << "\n";
  }
  return 0;
}

/// Replaces `list` with the parsed items of `flag`'s last value, when
/// the flag is given.
template <typename T, typename Parse>
void replace_list(const Args& a, const char* flag, std::vector<T>& list,
                  Parse parse) {
  if (!a.has(flag)) return;
  list.clear();
  for (const auto& item : split_commas(a.get(flag))) {
    list.push_back(parse(item));
  }
}

/// The sweep a `campaign` or `merge` command line describes: the spec
/// file, if given, with --circuits appended and the other lists
/// replaced by their flags.
campaign::CampaignSpec campaign_spec(const Args& a) {
  campaign::CampaignSpec spec;
  if (!a.pos.empty()) spec = campaign::parse_spec_file(a.pos[0]);
  for (const std::string& v : a.all("--circuits"))
    for (std::string& c : split_commas(v)) spec.circuits.push_back(c);
  replace_list(a, "--tpgs", spec.tpgs, campaign::parse_tpg_kind);
  replace_list(a, "--cycles", spec.cycle_values,
               [](const std::string& c) { return parse_count(c, "--cycles"); });
  replace_list(a, "--solvers", spec.solvers, campaign::parse_solver);
  if (a.has("--sat-escalate")) {
    spec.pipeline.atpg.sat_escalate = a.get("--sat-escalate") == "on";
  }
  return spec;
}

void print_report(const campaign::Report& report, const Args& a) {
  std::cout << report.summary();
  if (report.cache) {
    std::cout << "matrix cache: " << report.cache->hits << " hits ("
              << report.cache->disk_hits << " from disk), "
              << report.cache->misses << " misses, " << report.cache->stores
              << " stored, " << report.cache->evictions << " evicted\n";
  }
  if (report.checkpoint.enabled) {
    std::cout << "checkpoints: " << report.checkpoint.resumed << " resumed, "
              << report.checkpoint.executed << " executed, "
              << report.checkpoint.written << " written";
    if (report.checkpoint.corrupt != 0) {
      std::cout << " (" << report.checkpoint.corrupt << " corrupt ignored)";
    }
    std::cout << "\n";
  }
  if (report.shard_count > 1) {
    std::cout << "shard " << report.shard_index + 1 << "/"
              << report.shard_count << ": " << report.runs.size()
              << " of the sweep's runs\n";
  }
  const std::string json_path = a.get("--json");
  if (!json_path.empty()) {
    // Atomic + retried ("report.write" failpoint): a torn report file
    // would defeat the byte-identity checks downstream tooling runs.
    util::io::write_file_atomic("report.write", json_path,
                                report.to_json(a.has("--timings")));
    std::cout << "campaign report written to " << json_path << " ("
              << report.runs.size() << " runs)\n";
  }
}

int cmd_campaign(const Args& a) {
  const campaign::CampaignSpec spec = campaign_spec(a);
  campaign::CampaignOptions copts;
  copts.jobs = a.has("--jobs") ? parse_count(a.get("--jobs"), "--jobs") : 0;
  if (copts.jobs > campaign::Scheduler::kMaxWorkers) {
    throw UsageError("--jobs: more than " +
                     std::to_string(campaign::Scheduler::kMaxWorkers) + " workers");
  }
  if (a.has("--cache")) {
    copts.matrix_cache = std::make_shared<reseed::MatrixCache>(
        reseed::MatrixCacheOptions{a.get("--cache")});
  }
  if (a.all("--checkpoint").size() > 1)
    throw UsageError("one --checkpoint DIR per process (merge folds several)");
  copts.checkpoint_dir = a.get("--checkpoint");
  if (a.has("--shard")) {
    // "I/N", 1-based: --shard 2/3 executes the second of three
    // deterministic contiguous slices of the canonical run order.
    std::tie(copts.shard_index, copts.shard_count) =
        campaign::parse_shard_arg(a.get("--shard"));
  }
  if (a.has("--run-timeout")) {
    copts.run_timeout_ms =
        campaign::parse_run_timeout_arg(a.get("--run-timeout"));
  }
  copts.trace_file = a.get("--trace");
  copts.metrics_file = a.get("--metrics");
  const campaign::Report report = campaign::run_campaign(spec, copts);
  print_report(report, a);
  return report.all_ok() ? 0 : 1;
}

int cmd_merge(const Args& a) {
  // Determinism contract: the merged report is byte-identical to an
  // uninterrupted single-process run of the same spec.
  const campaign::Report report =
      campaign::merge_checkpoints(campaign_spec(a), a.all("--checkpoint"));
  print_report(report, a);
  return report.all_ok() ? 0 : 1;
}

int cmd_cache_list(const Args& a) {
  const auto entries = reseed::MatrixCache::list_dir(a.pos[0]);
  std::uintmax_t total = 0;
  for (const auto& e : entries) {
    std::cout << e.stem << "  " << e.bytes
              << " bytes\n";
    total += e.bytes;
  }
  std::cout << entries.size() << " entries, " << total << " bytes in "
            << a.pos[0] << "\n";
  return 0;
}

int cmd_cache_clear(const Args& a) {
  std::cout << "evicted " << reseed::MatrixCache::clear_dir(a.pos[0])
            << " entries from " << a.pos[0] << "\n";
  return 0;
}

int cmd_cache_evict(const Args& a) {
  const std::string& dir = a.pos[0];
  const std::string& hex = a.pos[1];
  reseed::MatrixCache::Key key = 0;
  if (!util::parse_hex64(hex, &key))
    throw std::runtime_error("cache evict: key must be 16 lowercase hex digits");
  if (!reseed::MatrixCache::evict_file(dir, key))
    throw std::runtime_error("cache evict: no entry " + hex + " in " + dir);
  std::cout << "evicted " << hex << " from " << dir << "\n";
  return 0;
}

int cmd_failpoints(const Args&) {
  // One site per line, sorted — the chaos CI job diffs this against the
  // spec it arms, so adding a site without chaos coverage fails CI.
  if (!util::failpoint::compiled_in()) {
    obs::diag(obs::Severity::kWarn, "failpoint",
              "this build has failpoints compiled out (FBIST_FAILPOINTS=OFF); "
              "the sites below are inert");
  }
  for (const auto& site : util::failpoint::known_sites()) {
    std::cout << site << "\n";
  }
  return 0;
}

int cmd_gen(const Args& a) {
  circuits::GeneratorSpec spec;
  spec.num_inputs = parse_count(a.pos[0], "gen inputs");
  spec.num_outputs = parse_count(a.pos[1], "gen outputs");
  spec.num_gates = parse_count(a.pos[2], "gen gates");
  if (!util::parse_u64(a.pos[3], &spec.seed))
    throw std::runtime_error("gen seed: bad value '" + a.pos[3] + "'");
  spec.layers = 8 + spec.num_gates / 150;
  netlist::write_bench(circuits::generate(spec), std::cout);
  return 0;
}

/// One row per subcommand: its name (two words for the cache actions),
/// its synopsis, and the function that runs it.  The synopsis is the
/// parser's only input: positionals
/// ("<x>", or "[x]" when optional) and every flag the subcommand takes,
/// "[--flag]" or "[--flag KIND]".
struct Command {
  std::string name;
  std::string synopsis;
  int (*run)(const Args&);
};

const Command kCommands[] = {
    {"info", "<circuit>", cmd_info},
    {"atpg", "<circuit> [--sat-escalate on|off]", cmd_atpg},
    {"reseed", "<circuit> [--tpg K] [--cycles N] [--solver S] [--out FILE]",
     cmd_reseed},
    {"replay", "<circuit> <rom-file>", cmd_replay},
    {"tradeoff", "<circuit> [--tpg K]", cmd_tradeoff},
    {"matrix", "<circuit> [--tpg K] [--cycles N] [--out FILE]", cmd_matrix},
    {"solve", "<instance.scp> [--solver S]", cmd_solve},
    {"campaign",
     "[spec.txt] [--circuits a,...] [--tpgs K,...] [--cycles N,...]\n"
     "      [--solvers S,...] [--jobs N] [--json FILE] [--timings]\n"
     "      [--cache DIR] [--checkpoint DIR] [--shard I/N] [--run-timeout MS]\n"
     "      [--sat-escalate on|off] [--trace FILE] [--metrics FILE]",
     cmd_campaign},
    {"merge",
     "[spec.txt] [--circuits a,...] [--tpgs K,...] [--cycles N,...]\n"
     "      [--solvers S,...] [--checkpoint DIR] [--json FILE] [--timings]",
     cmd_merge},
    {"cache list", "<dir>", cmd_cache_list},
    {"cache clear", "<dir>", cmd_cache_clear},
    {"cache evict", "<dir> <key>", cmd_cache_evict},
    {"failpoints", "", cmd_failpoints},
    {"gen", "<pi> <po> <gates> <seed>", cmd_gen},
    {"list", "", cmd_list},
};

int usage() {
  std::cerr << "usage: fbist <command> [args]\n";
  for (const Command& c : kCommands) {
    std::cerr << "  " << c.name << (c.synopsis.empty() ? "" : " ")
              << c.synopsis << "\n";
  }
  std::cerr << R"(circuit = registry name (see 'list') or a .bench file path
K = adder|subtracter|multiplier|lfsr, S = exact|greedy, X,... = comma-separated
campaign/merge flags extend (--circuits) or override the spec file
env FBIST_FAILPOINTS = site=err(p[,seed[,max]]) | perm(...) | enospc(...)
    | delay(ms[,max]) | off, pairs ';'-separated ('failpoints' lists sites)
)";
  return 2;
}

/// `flag`'s value kind as `c`'s synopsis spells it ("" for a presence
/// flag), or nullopt when `c` does not take `flag`.
std::optional<std::string> kind_of(const Command& c, const std::string& flag) {
  if (flag.find_first_of(" []") != std::string::npos) return std::nullopt;
  if (c.synopsis.find("[" + flag + "]") != std::string::npos) return "";
  const std::size_t at = c.synopsis.find("[" + flag + " ");
  if (at == std::string::npos) return std::nullopt;
  const std::size_t from = at + flag.size() + 2;
  return c.synopsis.substr(from, c.synopsis.find(']', from) - from);
}

/// Checks `value` with its kind's own parser; a list kind ("N,...")
/// checks every item.  Paths are not checked.
void check_value(const std::string& flag, const std::string& kind,
                 const std::string& value) {
  const std::string one = kind.substr(0, kind.find(",..."));
  try {
    for (const std::string& v :
         one == kind ? std::vector<std::string>{value} : split_commas(value)) {
      if (one == "N") parse_count(v, flag);
      if (one == "K") campaign::parse_tpg_kind(v);
      if (one == "S") campaign::parse_solver(v);
      if (one == "I/N") campaign::parse_shard_arg(v);
      if (one == "MS") campaign::parse_run_timeout_arg(v);
      if (one == "on|off" && v != "on" && v != "off")
        throw std::runtime_error("expected on|off, got '" + v + "'");
    }
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();  // some parsers name the flag
    throw UsageError(what.rfind(flag, 0) == 0 ? what : flag + ": " + what);
  }
}

/// Reads the arguments after `c`'s name against its synopsis; throws
/// UsageError naming the offending flag or argument.
Args parse_args(const Command& c, const std::vector<std::string>& args) {
  std::vector<std::string> positionals;  // "[x]" is optional
  std::istringstream syn(c.synopsis);
  for (std::string t; syn >> t;) {
    if (t[0] == '<' || (t[0] == '[' && t[1] != '-')) positionals.push_back(t);
  }
  Args out;
  const std::size_t first = c.name.find(' ') == std::string::npos ? 2 : 3;
  for (std::size_t i = first; i < args.size(); ++i) {
    const std::string& tok = args[i];
    if (tok.rfind("--", 0) != 0) {
      if (out.pos.size() == positionals.size()) {
        throw UsageError("unexpected argument '" + tok + "'");
      }
      out.pos.push_back(tok);
      continue;
    }
    const auto kind = kind_of(c, tok);
    if (!kind) throw UsageError("does not take " + tok);
    std::string value;
    if (!kind->empty()) {
      if (i + 1 == args.size() || args[i + 1].rfind("--", 0) == 0) {
        throw UsageError(tok + " needs a value");
      }
      value = args[++i];
      check_value(tok, *kind, value);
    }
    out.flags[tok].push_back(value);
  }
  if (out.pos.size() < positionals.size() &&
      positionals[out.pos.size()][0] == '<') {
    throw UsageError("missing " + positionals[out.pos.size()]);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  // Arm fault injection before any subcommand touches the disk; a
  // malformed spec is a usage error (exit 2), reported with the full
  // grammar so the operator can fix it without reading the header.
  try {
    fbist::util::failpoint::configure_from_env();
  } catch (const std::exception& e) {
    fbist::obs::diag(fbist::obs::Severity::kError, "failpoint", e.what());
    return 2;
  }
  if (args.size() < 2) return usage();
  const Command* cmd = nullptr;
  const std::string two = args.size() > 2 ? args[1] + " " + args[2] : "";
  for (const Command& c : kCommands) {
    if (c.name == args[1] || c.name == two) cmd = &c;
  }
  if (cmd == nullptr) {
    obs::diag(obs::Severity::kError, "cli", "unknown command " + args[1]);
    return usage();
  }
  try {
    return cmd->run(parse_args(*cmd, args));
  } catch (const UsageError& e) {
    obs::diag(obs::Severity::kError, "cli", cmd->name + ": " + e.what());
    std::cerr << "usage: fbist " << cmd->name << " " << cmd->synopsis << "\n";
    return 2;
  } catch (const std::exception& e) {
    obs::diag(obs::Severity::kError, "cli", e.what());
    return 1;
  }
}
