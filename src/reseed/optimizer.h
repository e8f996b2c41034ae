// Optimal reseeding computation (Sections 3.2-3.3 of the paper).
//
// Given the initial reseeding and its Detection Matrix, the optimizer
//   1. restricts the problem to the coverable columns,
//   2. reduces the matrix with essentiality + row and column dominance
//      to a fixpoint (always; only the reduction ablation bench skips
//      the whole stage),
//   3. solves the residual matrix exactly (branch-and-bound, the LINGO
//      substitute) — or greedily, for the ablation benches,
//   4. assembles the final solution N = necessary ∪ solver-chosen rows,
//   5. always trims each selected triplet's evolution length: faults are
//      assigned to the selected triplet that detects them earliest, and
//      each triplet keeps only the pattern prefix up to its last
//      assigned detection ("deleting from each TS_i the last
//      subsequence of patterns not contributing to AFC_i").
#pragma once

#include <cstddef>
#include <vector>

#include "cover/exact.h"
#include "reseed/initial_builder.h"

namespace fbist::reseed {

enum class SolverChoice { kExact, kGreedy };

struct OptimizerOptions {
  cover::ExactOptions exact;
  SolverChoice solver = SolverChoice::kExact;
  /// Disable the reduction stage entirely (ablation).
  bool skip_reduction = false;
};

/// One selected triplet with its trimmed length and coverage share.
struct SelectedTriplet {
  std::size_t triplet_index = 0;   // row in the initial reseeding
  tpg::Triplet triplet;            // cycles already trimmed
  std::size_t assigned_faults = 0; // faults this triplet is accountable for
  bool necessary = false;          // entered via essentiality
};

/// Final reseeding solution and the statistics the paper's tables report.
struct ReseedingSolution {
  std::vector<SelectedTriplet> selected;

  /// Global test length: sum of trimmed triplet lengths.
  std::size_t test_length = 0;
  /// Faults covered by the solution / target faults (coverable columns).
  std::size_t faults_covered = 0;
  std::size_t faults_targeted = 0;
  /// Columns of the initial matrix no candidate triplet detects.
  std::size_t faults_uncoverable = 0;

  // --- Table-2 style diagnostics ---------------------------------------
  std::size_t initial_rows = 0;
  std::size_t initial_cols = 0;
  std::size_t necessary_count = 0;     // triplets from essentiality
  std::size_t solver_count = 0;        // triplets chosen by the solver
  std::size_t residual_rows = 0;       // matrix left for the solver
  std::size_t residual_cols = 0;
  std::size_t reduction_iterations = 0;
  std::size_t solver_nodes = 0;
  bool solver_optimal = false;

  std::size_t num_triplets() const { return selected.size(); }
};

/// Runs reduction + exact/greedy covering on `initial` and assembles the
/// final trimmed solution.  An armed `deadline` is polled between stages
/// and inside the exact solver; expiry throws util::TimeoutError.
ReseedingSolution optimize(const InitialReseeding& initial,
                           const OptimizerOptions& opts = {},
                           const util::Deadline* deadline = nullptr);

/// Checks the paper's minimality definition: every selected triplet
/// detects at least one targeted fault no other selected triplet covers.
bool solution_is_minimal(const InitialReseeding& initial,
                         const ReseedingSolution& sol);

}  // namespace fbist::reseed
