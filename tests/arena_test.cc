// Tests for the scratch arena / pool (mnc/util/arena.h): growth and
// zero-fill semantics of the scatter buffers, the SpGEMM row accumulator
// (mnc/kernels/kernels.h) and the clean-buffer invariant it keeps, and
// lease recycling (including the exception-in-flight discard path).

#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mnc/kernels/kernels.h"
#include "mnc/util/arena.h"

namespace mnc {
namespace {

TEST(ScratchArenaTest, EnsureScatterColsGrowsAndZeroFills) {
  ScratchArena arena;
  arena.EnsureScatterCols(16);
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(0.0, arena.scatter_acc()[i]) << i;
  }
  EXPECT_EQ(0u, arena.scatter_bits()[0]);
  EXPECT_TRUE(arena.scatter_list().empty());

  // Growth zero-fills the new region; shrinking requests are no-ops and the
  // existing (clean) prefix is preserved.
  arena.EnsureScatterCols(200);
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(0.0, arena.scatter_acc()[i]) << i;
  }
  for (int64_t w = 0; w < 4; ++w) EXPECT_EQ(0u, arena.scatter_bits()[w]) << w;
  arena.EnsureScatterCols(8);
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(0.0, arena.scatter_acc()[i]) << i;
  }
}

// B as raw CSR arrays, built from per-row (column, value) lists with
// ascending columns.
struct RawCsr {
  int64_t cols = 0;
  std::vector<int64_t> row_ptr{0};
  std::vector<int64_t> col_idx;
  std::vector<double> values;

  void AddRow(const std::vector<std::pair<int64_t, double>>& row) {
    for (const auto& [j, v] : row) {
      col_idx.push_back(j);
      values.push_back(v);
    }
    row_ptr.push_back(static_cast<int64_t>(col_idx.size()));
  }
};

kernels::SpGemmRowAccumulator Accumulator(ScratchArena& arena,
                                          const RawCsr& b) {
  return kernels::SpGemmRowAccumulator(arena, b.cols, b.row_ptr.data(),
                                       b.col_idx.data(), b.values.data());
}

// Row a * B the slow way: a std::map summing the same products in the same
// ascending-k order, so the expected values are bit-exact.
std::map<int64_t, double> ReferenceRow(const RawCsr& b,
                                       const std::vector<int64_t>& a_idx,
                                       const std::vector<double>& a_val) {
  std::map<int64_t, double> row;
  for (size_t ka = 0; ka < a_idx.size(); ++ka) {
    const size_t k = static_cast<size_t>(a_idx[ka]);
    for (int64_t t = b.row_ptr[k]; t < b.row_ptr[k + 1]; ++t) {
      row[b.col_idx[static_cast<size_t>(t)]] +=
          a_val[ka] * b.values[static_cast<size_t>(t)];
    }
  }
  return row;
}

void ExpectClean(ScratchArena& arena, int64_t cols) {
  for (int64_t j = 0; j < cols; ++j) {
    ASSERT_EQ(0.0, arena.scatter_acc()[j]) << "acc[" << j << "]";
  }
  for (int64_t w = 0; w < (cols + 63) / 64; ++w) {
    ASSERT_EQ(0u, arena.scatter_bits()[w]) << "bits word " << w;
  }
  EXPECT_TRUE(arena.scatter_list().empty());
}

// Gathers one row and checks it against the reference: ascending columns,
// bit-exact values, exactly-cancelled columns dropped, Count() equal to the
// pattern size.
void ExpectRow(kernels::SpGemmRowAccumulator& acc, const RawCsr& b,
               const std::vector<int64_t>& a_idx,
               const std::vector<double>& a_val) {
  const std::map<int64_t, double> ref = ReferenceRow(b, a_idx, a_val);
  acc.Scatter(a_idx.data(), a_val.data(), static_cast<int64_t>(a_idx.size()));
  EXPECT_EQ(static_cast<int64_t>(ref.size()), acc.Count());
  std::vector<int64_t> out_idx(ref.size());
  std::vector<double> out_val(ref.size());
  const int64_t written = acc.Gather(out_idx.data(), out_val.data());
  std::vector<int64_t> want_idx;
  std::vector<double> want_val;
  for (const auto& [j, v] : ref) {
    if (v == 0.0) continue;
    want_idx.push_back(j);
    want_val.push_back(v);
  }
  ASSERT_EQ(static_cast<int64_t>(want_idx.size()), written);
  out_idx.resize(static_cast<size_t>(written));
  out_val.resize(static_cast<size_t>(written));
  EXPECT_EQ(want_idx, out_idx);
  EXPECT_EQ(want_val, out_val);
}

// A pseudo-random B over `cols` columns: row k holds up to 6 distinct
// columns with non-integer values.
RawCsr RandomB(int64_t cols, int64_t rows, uint64_t seed) {
  RawCsr b;
  b.cols = cols;
  uint64_t x = seed;
  for (int64_t k = 0; k < rows; ++k) {
    std::map<int64_t, double> row;
    for (int t = 0; t < 6; ++t) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      row[static_cast<int64_t>((x >> 33) % static_cast<uint64_t>(cols))] =
          0.25 + static_cast<double>((x >> 20) % 1000) / 7.0;
    }
    b.AddRow({row.begin(), row.end()});
  }
  return b;
}

TEST(ScratchArenaTest, SpGemmRowKernelsRestoreCleanBuffers) {
  // Widths around the 64-bit word boundary and the exec-scale width; every
  // row must gather in ascending order and leave the arena clean.
  for (int64_t cols : {1, 63, 64, 65, 2000}) {
    SCOPED_TRACE(cols);
    ScratchArena arena;
    const RawCsr b = RandomB(cols, 8, static_cast<uint64_t>(cols));
    kernels::SpGemmRowAccumulator acc = Accumulator(arena, b);
    ExpectRow(acc, b, {0, 3, 5, 7}, {3.0, -1.5, 0.5, 2.0});
    ExpectClean(arena, cols);
    ExpectRow(acc, b, {1, 2}, {1.0, -1.0});
    ExpectClean(arena, cols);
    ExpectRow(acc, b, {}, {});
    ExpectClean(arena, cols);

    // The pattern pass counts the same columns and cleans up too.
    const int64_t a_idx[] = {0, 3, 5, 7};
    const size_t pattern =
        ReferenceRow(b, {0, 3, 5, 7}, {1.0, 1.0, 1.0, 1.0}).size();
    acc.ScatterPattern(a_idx, 4);
    EXPECT_EQ(static_cast<int64_t>(pattern), acc.PatternCountAndReset());
    ExpectClean(arena, cols);
  }
}

TEST(ScratchArenaTest, SpGemmRowDropsExactlyCancelledColumns) {
  ScratchArena arena;
  RawCsr b;
  b.cols = 64;
  b.AddRow({{3, 1.0}, {9, 4.0}});
  b.AddRow({{3, 1.0}, {40, 0.5}});
  kernels::SpGemmRowAccumulator acc = Accumulator(arena, b);
  // Column 3 sums 2.0 * 1.0 + -2.0 * 1.0 == 0.0 exactly and is dropped, but
  // it still counts as touched.
  const int64_t a_idx[] = {0, 1};
  const double a_val[] = {2.0, -2.0};
  acc.Scatter(a_idx, a_val, 2);
  EXPECT_EQ(3, acc.Count());
  int64_t out_idx[3];
  double out_val[3];
  ASSERT_EQ(2, acc.Gather(out_idx, out_val));
  EXPECT_EQ(9, out_idx[0]);
  EXPECT_EQ(8.0, out_val[0]);
  EXPECT_EQ(40, out_idx[1]);
  EXPECT_EQ(-1.0, out_val[1]);
  ExpectClean(arena, 64);
}

TEST(ScratchArenaTest, SpGemmRowWideSparseSpanGathersSorted) {
  // Columns 0 and 2^20 - 1 span 16384 bitmap words for 2-3 contributions:
  // far past kSparseSpanWordsPerFlop, so the gather sorts the touched list
  // instead of walking the bitmap. B's rows are entered so the first-touch
  // order is descending and the sort has work to do.
  const int64_t cols = int64_t{1} << 20;
  ScratchArena arena;
  RawCsr b;
  b.cols = cols;
  b.AddRow({{cols - 1, 2.0}});
  b.AddRow({{0, 5.0}, {cols - 1, 1.0}});
  kernels::SpGemmRowAccumulator acc = Accumulator(arena, b);
  ExpectRow(acc, b, {0, 1}, {1.5, -0.5});
  ExpectClean(arena, cols);
  ExpectRow(acc, b, {0}, {1.0});
  ExpectClean(arena, cols);

  const int64_t a_idx[] = {0, 1};
  acc.ScatterPattern(a_idx, 2);
  EXPECT_EQ(2, acc.PatternCountAndReset());
  ExpectClean(arena, cols);
}

TEST(ScratchArenaTest, SpGemmRowOverflowDiscardKeepsArenaReusable) {
  // The guided single-pass fill discards a row whose count exceeds its
  // slice; the same arena must then compute the next row correctly. Both
  // the bitmap and the sorted-list representation are discarded.
  for (int64_t cols : {int64_t{2000}, int64_t{1} << 20}) {
    SCOPED_TRACE(cols);
    ScratchArena arena;
    RawCsr b;
    b.cols = cols;
    b.AddRow({{0, 1.0}, {1, 2.0}, {cols - 1, 3.0}});
    b.AddRow({{1, 1.0}, {cols / 2, 1.0}});
    kernels::SpGemmRowAccumulator acc = Accumulator(arena, b);
    const int64_t a_idx[] = {0, 1};
    const double a_val[] = {1.0, 1.0};
    acc.Scatter(a_idx, a_val, 2);
    const int64_t cap = 2;
    ASSERT_GT(acc.flops(), cap);
    ASSERT_GT(acc.Count(), cap);
    acc.Discard();
    ExpectClean(arena, cols);
    ExpectRow(acc, b, {1}, {4.0});
    ExpectClean(arena, cols);
  }
}

TEST(ScratchArenaTest, SymbolicRowKernelsRestoreCleanBuffers) {
  ScratchArena arena;
  RawCsr b;
  b.cols = 16;
  b.AddRow({{2, 1.0}, {9, 1.0}});
  b.AddRow({{2, 1.0}, {15, 1.0}});
  kernels::SpGemmRowAccumulator acc(arena, b.cols, b.row_ptr.data(),
                                    b.col_idx.data(), nullptr);
  const int64_t a_idx[] = {0, 1};
  acc.ScatterPattern(a_idx, 2);
  EXPECT_EQ(4, acc.flops());
  // Duplicate column 2 counted once.
  EXPECT_EQ(3, acc.PatternCountAndReset());
  ExpectClean(arena, 16);
}

TEST(ScratchArenaTest, StageBuffersResizeOnDemand) {
  ScratchArena arena;
  std::vector<double>& d = arena.StageDoubles(10);
  EXPECT_EQ(10u, d.size());
  std::vector<char>& c = arena.StageBytes(3);
  EXPECT_EQ(3u, c.size());
  // Re-staging at a different size returns the same storage, resized.
  std::vector<double>& d2 = arena.StageDoubles(4);
  EXPECT_EQ(&d, &d2);
  EXPECT_EQ(4u, d2.size());
}

TEST(ScratchPoolTest, LeaseRecyclesArenaOnNormalReturn) {
  ScratchPool pool;
  ScratchArena* first = nullptr;
  {
    ScratchPool::Lease lease = pool.Acquire();
    first = &*lease;
    lease->EnsureScatterCols(128);
  }
  // The recycled arena comes back with its grown buffers intact.
  ScratchPool::Lease again = pool.Acquire();
  EXPECT_EQ(first, &*again);
  for (int64_t i = 0; i < 128; ++i) {
    EXPECT_EQ(0.0, again->scatter_acc()[i]) << i;
  }
}

TEST(ScratchPoolTest, LeaseDiscardsArenaWhenExceptionInFlight) {
  ScratchPool pool;
  try {
    ScratchPool::Lease lease = pool.Acquire();
    // Dirty the buffers mid-operation, then unwind: the lease must NOT
    // return a dirty arena to the pool.
    lease->EnsureScatterCols(8);
    lease->scatter_acc()[3] = 42.0;
    lease->scatter_bits()[0] = uint64_t{1} << 3;
    lease->scatter_list().push_back(3);
    throw std::runtime_error("simulated failure mid-scatter");
  } catch (const std::runtime_error&) {
  }
  // If the dirty arena had been recycled, this Acquire would hand it back
  // with the poisoned values still present (EnsureScatterCols does not
  // re-zero at unchanged width, by design).
  ScratchPool::Lease fresh = pool.Acquire();
  fresh->EnsureScatterCols(8);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(0.0, fresh->scatter_acc()[i]) << i;
  }
  EXPECT_EQ(0u, fresh->scatter_bits()[0]);
  EXPECT_TRUE(fresh->scatter_list().empty());
}

TEST(ScratchPoolTest, ExceptionMidRowDiscardsArena) {
  // A throw between a row's scatter and its gather leaves bits and
  // accumulator entries set; the lease must drop that arena.
  ScratchPool pool;
  RawCsr b;
  b.cols = 2000;
  b.AddRow({{0, 1.0}, {700, 2.0}, {1999, 3.0}});
  try {
    ScratchPool::Lease lease = pool.Acquire();
    kernels::SpGemmRowAccumulator acc = Accumulator(*lease, b);
    const int64_t a_idx[] = {0};
    const double a_val[] = {1.0};
    acc.Scatter(a_idx, a_val, 1);
    throw std::runtime_error("simulated failure mid-row");
  } catch (const std::runtime_error&) {
  }
  ScratchPool::Lease fresh = pool.Acquire();
  fresh->EnsureScatterCols(b.cols);
  ExpectClean(*fresh, b.cols);
  kernels::SpGemmRowAccumulator acc = Accumulator(*fresh, b);
  ExpectRow(acc, b, {0}, {-1.0});
  ExpectClean(*fresh, b.cols);
}

TEST(ScratchPoolTest, DistinctConcurrentLeasesGetDistinctArenas) {
  ScratchPool pool;
  ScratchPool::Lease a = pool.Acquire();
  ScratchPool::Lease b = pool.Acquire();
  EXPECT_NE(&*a, &*b);
}

TEST(ScratchPoolTest, GlobalPoolIsASingleton) {
  EXPECT_EQ(&ScratchPool::Global(), &ScratchPool::Global());
}

}  // namespace
}  // namespace mnc
