// Benchmark workloads: which circuits a sweep generates and which runs
// it crosses them with.  Everything is a pure function of (workload
// name, seed), and the circuit names the program sees are relative
// .bench file names built from the same pair — never from the
// directory the files live in — because the program seeds ATPG and
// the sigma draws from the circuit name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.h"
#include "circuits/generator.h"

namespace perfbench {

struct CircuitPlan {
  std::string file;  // relative .bench path; also the circuit's name
  fbist::circuits::GeneratorSpec spec;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<CircuitPlan> circuits;  // in spec order
  fbist::campaign::CampaignSpec campaign;
};

/// Builds `name` for `seed`.  `tiny` shrinks every circuit and axis so
/// the benchmark's own tests run in seconds.  Throws
/// std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny);

}  // namespace perfbench
