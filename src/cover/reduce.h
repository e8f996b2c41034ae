// Detection-Matrix reduction: essentiality and dominance to a fixpoint.
//
// Rules (McCluskey-style covering-table simplification, as the paper
// applies them to the reseeding matrix):
//
//   Essential row:  a column covered by exactly one row makes that row
//                   *necessary*.  The row joins the solution; the row
//                   and every column it covers leave the matrix.
//   Row dominance:  if F(row_i) is a subset of F(row_k), i != k, row_i is
//                   dominated and is removed (row_k detects everything
//                   row_i does, and possibly more).
//   Col dominance:  if column a is covered by every row that covers
//                   column b (cols(b) subset of cols(a)), then covering b
//                   forces covering a; column a is removed.
//
// All three rules always apply, in rotation, until none fires.  The
// reduction is optimality-preserving: some minimum cover of the
// original matrix consists of the necessary rows plus a minimum cover
// of the reduced matrix.
#pragma once

#include <cstddef>
#include <vector>

#include "cover/detection_matrix.h"

namespace fbist::cover {

/// Outcome of reducing a matrix.
struct ReductionResult {
  /// Rows declared necessary (original row indices, ascending).
  std::vector<std::size_t> necessary_rows;
  /// Rows removed by row dominance (original indices).
  std::vector<std::size_t> dominated_rows;
  /// Columns removed by column dominance (original indices).
  std::vector<std::size_t> dominated_cols;

  /// Surviving rows/columns (original indices, ascending) — the residual
  /// problem LINGO (here: the exact solver) must still decide.
  std::vector<std::size_t> residual_rows;
  std::vector<std::size_t> residual_cols;

  /// The residual matrix itself (residual_rows x residual_cols).
  DetectionMatrix residual;

  /// Number of essentiality/dominance sweeps until the fixpoint.
  std::size_t iterations = 0;

  bool residual_empty() const {
    return residual_rows.empty() || residual_cols.empty();
  }
};

/// Reduces `m` (which must have every column coverable) to a fixpoint of
/// all three rules.
ReductionResult reduce(const DetectionMatrix& m);

}  // namespace fbist::cover
