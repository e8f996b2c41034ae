// Quickstart: minimum-reseeding computation in a dozen lines.
//
// Loads the c17 demo circuit, runs the full Functional-BIST reseeding
// flow with an adder-based accumulator TPG and prints the resulting
// triplets.
//
//   $ ./quickstart
#include <iostream>

#include "reseed/pipeline.h"
#include "reseed/report.h"

int main() {
  using namespace fbist;

  // One line sets up circuit, fault list, fault simulator and the
  // deterministic ATPG test set (the TestGen substitute).
  reseed::Pipeline pipeline("c17");

  std::cout << pipeline.circuit().summary("c17") << "\n";
  std::cout << "target faults: " << pipeline.faults().size()
            << ", ATPG patterns: " << pipeline.atpg_patterns().size() << "\n\n";

  // Compute an optimal reseeding for an adder-based accumulator TPG,
  // letting each candidate triplet evolve for 16 clock cycles.
  const reseed::ReseedingSolution sol = pipeline.run({tpg::TpgKind::kAdder, 16});

  std::cout << reseed::solution_to_string(sol, "Optimal reseeding (adder TPG):");
  std::cout << "\nEvery targeted fault is covered: "
            << (sol.faults_covered == sol.faults_targeted ? "yes" : "NO")
            << "\n";
  return 0;
}
