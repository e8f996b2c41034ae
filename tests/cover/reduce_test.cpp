#include "cover/reduce.h"

#include <gtest/gtest.h>

#include "cover/exact.h"
#include "cover/greedy.h"
#include "util/rng.h"

namespace fbist::cover {
namespace {

DetectionMatrix from_rows(std::initializer_list<std::initializer_list<int>> rows) {
  const std::size_t R = rows.size();
  const std::size_t C = rows.begin()->size();
  DetectionMatrix m(R, C);
  std::size_t r = 0;
  for (const auto& row : rows) {
    std::size_t c = 0;
    for (const int v : row) {
      if (v) m.set(r, c);
      ++c;
    }
    ++r;
  }
  return m;
}

TEST(Reduce, EssentialRowDetected) {
  // Column 2 covered only by row 1 -> row 1 necessary.
  const auto m = from_rows({
      {1, 1, 0},
      {0, 1, 1},
  });
  const ReductionResult r = reduce(m);
  ASSERT_EQ(r.necessary_rows.size(), 2u);  // after removing row 1 and its
                                           // columns, col 0 forces row 0
  EXPECT_TRUE(r.residual_empty());
}

TEST(Reduce, RowDominanceRemovesSubsetRow) {
  // Row 0 ⊂ row 1; no essential column initially (both cols covered twice).
  const auto m = from_rows({
      {1, 1, 0, 0},
      {1, 1, 1, 0},
      {0, 0, 1, 1},
      {0, 1, 0, 1},
  });
  const ReductionResult r = reduce(m);
  // Row 0 is dominated by row 1.
  EXPECT_NE(std::find(r.dominated_rows.begin(), r.dominated_rows.end(), 0u),
            r.dominated_rows.end());
}

TEST(Reduce, ColumnDominanceRemovesImpliedColumn) {
  // Every column is covered at least twice and no row is a subset of
  // another, so only column dominance fires: rows(col 0) = {0,1} ⊆
  // rows(col 3) = {0,1,2} -> covering col 0 implies covering col 3 ->
  // col 3 is removed and the 3x3 cyclic core survives.
  const auto m = from_rows({
      {1, 1, 0, 1},
      {1, 0, 1, 1},
      {0, 1, 1, 1},
  });
  const ReductionResult r = reduce(m);
  EXPECT_EQ(r.dominated_cols, std::vector<std::size_t>{3});
  EXPECT_TRUE(r.necessary_rows.empty());
  EXPECT_TRUE(r.dominated_rows.empty());
  EXPECT_EQ(r.residual_rows, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(r.residual_cols, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Reduce, IdentityMatrixAllNecessary) {
  const auto m = from_rows({
      {1, 0, 0},
      {0, 1, 0},
      {0, 0, 1},
  });
  const ReductionResult r = reduce(m);
  EXPECT_EQ(r.necessary_rows.size(), 3u);
  EXPECT_TRUE(r.residual_empty());
}

TEST(Reduce, UncoverableColumnThrows) {
  DetectionMatrix m(2, 2);
  m.set(0, 0);
  m.set(1, 0);
  EXPECT_THROW(reduce(m), std::invalid_argument);
}

TEST(Reduce, CyclicCoreSurvives) {
  // Classic cyclic covering table: every column covered twice, no subset
  // relations -> reduction cannot fire, residual equals the input.
  const auto m = from_rows({
      {1, 1, 0, 0, 0, 0},
      {0, 1, 1, 0, 0, 0},
      {0, 0, 1, 1, 0, 0},
      {0, 0, 0, 1, 1, 0},
      {0, 0, 0, 0, 1, 1},
      {1, 0, 0, 0, 0, 1},
  });
  const ReductionResult r = reduce(m);
  EXPECT_TRUE(r.necessary_rows.empty());
  EXPECT_EQ(r.residual_rows.size(), 6u);
  EXPECT_EQ(r.residual_cols.size(), 6u);
}

// Property: reduction preserves the optimal cover cardinality.
TEST(ReduceProperty, PreservesOptimalCost) {
  util::Rng rng(41);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t R = 4 + rng.next_below(6);
    const std::size_t C = 4 + rng.next_below(8);
    DetectionMatrix m(R, C);
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t c = 0; c < C; ++c) {
        if (rng.next_bool(0.35)) m.set(r, c);
      }
    }
    // Ensure coverability: column c gets a random row.
    for (std::size_t c = 0; c < C; ++c) {
      m.set(rng.next_below(R), c);
    }

    const CoverSolution direct = solve_exact(m);
    const ReductionResult red = reduce(m);
    std::size_t with_reduction = red.necessary_rows.size();
    if (!red.residual_empty()) {
      with_reduction += solve_exact(red.residual).rows.size();
    }
    EXPECT_EQ(with_reduction, direct.rows.size()) << "trial " << trial;
  }
}

// Property: the necessary rows plus a cover of the residual always cover
// the full matrix.
TEST(ReduceProperty, NecessaryPlusResidualCoversAll) {
  util::Rng rng(43);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t R = 3 + rng.next_below(7);
    const std::size_t C = 3 + rng.next_below(9);
    DetectionMatrix m(R, C);
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t c = 0; c < C; ++c) {
        if (rng.next_bool(0.4)) m.set(r, c);
      }
    }
    for (std::size_t c = 0; c < C; ++c) m.set(rng.next_below(R), c);

    const ReductionResult red = reduce(m);
    std::vector<std::size_t> rows = red.necessary_rows;
    if (!red.residual_empty()) {
      const CoverSolution cs = solve_greedy(red.residual);
      for (const std::size_t rr : cs.rows) {
        rows.push_back(red.residual_rows[rr]);
      }
    }
    EXPECT_TRUE(covers_all(m, rows)) << "trial " << trial;
  }
}

TEST(Reduce, IterationsCounted) {
  const auto m = from_rows({
      {1, 0},
      {0, 1},
  });
  EXPECT_GE(reduce(m).iterations, 1u);
}

}  // namespace
}  // namespace fbist::cover
