#include "mnc/matrix/ops_product.h"

#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mnc/core/mnc_sketch.h"
#include "mnc/core/row_estimates.h"
#include "mnc/matrix/checked_ops.h"
#include "mnc/matrix/generate.h"
#include "mnc/util/random.h"
#include "mnc/util/thread_pool.h"

namespace mnc {
namespace {

// Reference O(mnl) product on dense matrices.
DenseMatrix ReferenceProduct(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < a.cols(); ++k) {
        acc += a.At(i, k) * b.At(k, j);
      }
      c.Set(i, j, acc);
    }
  }
  return c;
}

TEST(ProductTest, SmallKnownProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  DenseMatrix a(2, 2, {1, 2, 3, 4});
  DenseMatrix b(2, 2, {5, 6, 7, 8});
  DenseMatrix c = MultiplyDenseDense(a, b);
  EXPECT_EQ(c.At(0, 0), 19.0);
  EXPECT_EQ(c.At(0, 1), 22.0);
  EXPECT_EQ(c.At(1, 0), 43.0);
  EXPECT_EQ(c.At(1, 1), 50.0);
}

TEST(ProductTest, IdentityIsNeutral) {
  Rng rng(1);
  CsrMatrix x = GenerateUniformSparse(10, 10, 0.3, rng);
  CsrMatrix id = GenerateSelection({0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 10);
  EXPECT_TRUE(MultiplySparseSparse(id, x).Equals(x));
  EXPECT_TRUE(MultiplySparseSparse(x, id).Equals(x));
}

TEST(ProductTest, RectangularShapes) {
  Rng rng(2);
  DenseMatrix a = GenerateDense(3, 7, rng);
  DenseMatrix b = GenerateDense(7, 5, rng);
  DenseMatrix c = MultiplyDenseDense(a, b);
  EXPECT_EQ(c.rows(), 3);
  EXPECT_EQ(c.cols(), 5);
  EXPECT_TRUE(c.Equals(ReferenceProduct(a, b)));
}

TEST(ProductTest, MultiThreadedMatchesSingleThreaded) {
  Rng rng(3);
  DenseMatrix a = GenerateDense(37, 23, rng);
  DenseMatrix b = GenerateDense(23, 41, rng);
  ThreadPool pool(4);
  DenseMatrix st = MultiplyDenseDense(a, b);
  DenseMatrix mt = MultiplyDenseDense(a, b, &pool);
  EXPECT_TRUE(st.Equals(mt));
}

TEST(ProductTest, EmptyOperands) {
  CsrMatrix a(3, 4);
  CsrMatrix b(4, 2);
  CsrMatrix c = MultiplySparseSparse(a, b);
  EXPECT_EQ(c.rows(), 3);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_EQ(c.NumNonZeros(), 0);
}

TEST(ProductTest, ProductNnzExactMatchesProduct) {
  Rng rng(4);
  CsrMatrix a = GenerateUniformSparse(30, 40, 0.1, rng);
  CsrMatrix b = GenerateUniformSparse(40, 25, 0.1, rng);
  CsrMatrix c = MultiplySparseSparse(a, b);
  EXPECT_EQ(ProductNnzExact(a, b), c.NumNonZeros());
}

TEST(ProductTest, NnzHintDoesNotChangeResult) {
  Rng rng(9);
  CsrMatrix a = GenerateUniformSparse(40, 40, 0.1, rng);
  CsrMatrix b = GenerateUniformSparse(40, 40, 0.1, rng);
  const CsrMatrix plain = MultiplySparseSparse(a, b);
  // Hints below, at, and above the true count all yield identical results.
  for (int64_t hint : {int64_t{1}, plain.NumNonZeros(),
                       plain.NumNonZeros() * 4, int64_t{1} << 40}) {
    EXPECT_TRUE(MultiplySparseSparse(a, b, hint).Equals(plain)) << hint;
  }
}

TEST(ProductTest, FacadeDispatchChoosesOutputFormat) {
  Rng rng(5);
  // Ultra-sparse x ultra-sparse stays sparse.
  Matrix a = Matrix::Sparse(GenerateUniformSparse(50, 50, 0.01, rng));
  Matrix b = Matrix::Sparse(GenerateUniformSparse(50, 50, 0.01, rng));
  EXPECT_FALSE(Multiply(a, b).is_dense());
  // Dense x dense is dense.
  Matrix c = Matrix::Dense(GenerateDense(20, 20, rng));
  Matrix d = Matrix::Dense(GenerateDense(20, 20, rng));
  EXPECT_TRUE(Multiply(c, d).is_dense());
}

// All four kernels must agree with the reference product for every format
// pairing and a sweep of sparsities.
struct KernelCase {
  double sparsity_a;
  double sparsity_b;
};

class ProductKernelTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ProductKernelTest, AllKernelsAgree) {
  const auto [sa, sb] = GetParam();
  Rng rng(7);
  CsrMatrix a = GenerateUniformSparse(23, 31, sa, rng);
  CsrMatrix b = GenerateUniformSparse(31, 17, sb, rng);
  DenseMatrix da = a.ToDense();
  DenseMatrix db = b.ToDense();
  const DenseMatrix expected = ReferenceProduct(da, db);

  EXPECT_TRUE(MultiplyDenseDense(da, db).Equals(expected));
  EXPECT_TRUE(MultiplySparseDense(a, db).Equals(expected));
  EXPECT_TRUE(MultiplyDenseSparse(da, b).Equals(expected));
  // Sparse-sparse output may drop numerically-cancelled entries; values here
  // are positive so results match exactly as CSR.
  EXPECT_TRUE(
      MultiplySparseSparse(a, b).Equals(CsrMatrix::FromDense(expected)));
}

INSTANTIATE_TEST_SUITE_P(
    SparsitySweep, ProductKernelTest,
    ::testing::Combine(::testing::Values(0.0, 0.05, 0.3, 1.0),
                       ::testing::Values(0.0, 0.05, 0.3, 1.0)));

// ---- Sketch-guided kernels (PR 5) ----

// Per-row bounds/estimates for the guided kernel, as the evaluator builds
// them.
void RowHints(const CsrMatrix& a, const CsrMatrix& b,
              std::vector<int64_t>* upper, std::vector<double>* estimate) {
  for (const RowProductEstimate& r :
       EstimateProductRows(a, MncSketch::FromCsr(b))) {
    upper->push_back(r.upper_bound);
    estimate->push_back(r.estimate);
  }
}

ParallelConfig GuidedTestConfig(int threads) {
  ParallelConfig config;
  config.num_threads = threads;
  config.min_rows_per_task = 8;
  return config;
}

TEST(GuidedProductTest, MatchesBlindWithExactBounds) {
  Rng rng(11);
  const CsrMatrix a = GenerateUniformSparse(80, 70, 0.08, rng);
  const CsrMatrix b = GenerateUniformSparse(70, 90, 0.08, rng);
  const CsrMatrix blind = MultiplySparseSparse(a, b);
  std::vector<int64_t> upper;
  std::vector<double> estimate;
  RowHints(a, b, &upper, &estimate);
  const GuidedProductOptions opts;

  GuidedExecStats seq_stats;
  EXPECT_TRUE(MultiplySparseSparseGuided(a, b, upper, estimate, opts,
                                         ParallelConfig{}, nullptr, &seq_stats)
                  .Equals(blind));
  EXPECT_EQ(seq_stats.single_pass, 1);
  EXPECT_EQ(seq_stats.overflow_fallbacks, 0);

  ThreadPool pool(4);
  GuidedExecStats par_stats;
  EXPECT_TRUE(MultiplySparseSparseGuided(a, b, upper, estimate, opts,
                                         GuidedTestConfig(4), &pool,
                                         &par_stats)
                  .Equals(blind));
  EXPECT_EQ(par_stats.single_pass, 1);
  EXPECT_EQ(par_stats.overflow_fallbacks, 0);
  EXPECT_EQ(par_stats.two_pass_fallbacks, 0);
}

TEST(GuidedProductTest, LyingBoundsOverflowIntoTwoPassRecompute) {
  // All-zero "bounds" (a propagated sketch can under-estimate) must trip the
  // overflow detection of the parallel single-pass fill and recompute via
  // the two-pass kernel without changing the result.
  Rng rng(13);
  const CsrMatrix a = GenerateUniformSparse(60, 60, 0.1, rng);
  const CsrMatrix b = GenerateUniformSparse(60, 60, 0.1, rng);
  const CsrMatrix blind = MultiplySparseSparse(a, b);
  const std::vector<int64_t> zeros(60, 0);

  ThreadPool pool(4);
  GuidedExecStats stats;
  EXPECT_TRUE(MultiplySparseSparseGuided(a, b, zeros, {},
                                         GuidedProductOptions{},
                                         GuidedTestConfig(4), &pool, &stats)
                  .Equals(blind));
  EXPECT_EQ(stats.overflow_fallbacks, 1);
  EXPECT_EQ(stats.single_pass, 0);
}

TEST(GuidedProductTest, ZeroBudgetFallsBackToTwoPass) {
  Rng rng(17);
  const CsrMatrix a = GenerateUniformSparse(50, 50, 0.1, rng);
  const CsrMatrix b = GenerateUniformSparse(50, 50, 0.1, rng);
  const CsrMatrix blind = MultiplySparseSparse(a, b);
  std::vector<int64_t> upper;
  std::vector<double> estimate;
  RowHints(a, b, &upper, &estimate);
  GuidedProductOptions opts;
  opts.single_pass_budget_bytes = 0;

  ThreadPool pool(4);
  GuidedExecStats stats;
  EXPECT_TRUE(MultiplySparseSparseGuided(a, b, upper, estimate, opts,
                                         GuidedTestConfig(4), &pool, &stats)
                  .Equals(blind));
  EXPECT_EQ(stats.two_pass_fallbacks, 1);
  EXPECT_EQ(stats.single_pass, 0);
}

// Row-by-row reference product through std::map, summing in the kernels'
// ascending-k order so values are comparable bit for bit.
CsrMatrix MapProduct(const CsrMatrix& a, const CsrMatrix& b) {
  std::vector<int64_t> row_ptr{0};
  std::vector<int64_t> col_idx;
  std::vector<double> values;
  for (int64_t i = 0; i < a.rows(); ++i) {
    std::map<int64_t, double> row;
    const auto a_idx = a.RowIndices(i);
    const auto a_val = a.RowValues(i);
    for (size_t ka = 0; ka < a_idx.size(); ++ka) {
      const auto b_idx = b.RowIndices(a_idx[ka]);
      const auto b_val = b.RowValues(a_idx[ka]);
      for (size_t t = 0; t < b_idx.size(); ++t) {
        row[b_idx[t]] += a_val[ka] * b_val[t];
      }
    }
    for (const auto& [j, v] : row) {
      if (v == 0.0) continue;
      col_idx.push_back(j);
      values.push_back(v);
    }
    row_ptr.push_back(static_cast<int64_t>(col_idx.size()));
  }
  return CsrMatrix(a.rows(), b.cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

TEST(GuidedProductTest, BothGatherOrdersBitIdenticalToBlind) {
  // Narrow: 60 columns are one bitmap word, so every non-empty row gathers
  // by walking the bitmap. Wide: every row of wide_b touches a column
  // below 8 and one at or above 2^14 - 8, a span of 256 words, while a row
  // of wide_a (at most 6 entries) contributes at most 18 columns, so 256 >
  // kSparseSpanWordsPerFlop * 18 and every row gathers from the sorted
  // touched list. Rows 0 and 1 of wide_b share column 0 with equal values
  // and wide_a's row 0 weighs them 2 and -2, so that column cancels to 0.0.
  Rng rng(19);
  const CsrMatrix narrow_a = GenerateUniformSparse(64, 64, 0.2, rng);
  const CsrMatrix narrow_b = GenerateUniformSparse(64, 60, 0.2, rng);

  const int64_t wide = int64_t{1} << 14;
  std::vector<int64_t> b_ptr{0};
  std::vector<int64_t> b_idx;
  std::vector<double> b_val;
  for (int64_t k = 0; k < 40; ++k) {
    const int64_t mid = 8 + (k * 977) % (wide - 16);
    for (int64_t j : {k < 2 ? int64_t{0} : k % 8, mid, wide - 1 - k % 8}) {
      b_idx.push_back(j);
      b_val.push_back(k < 2 ? 1.0 : 0.5 + static_cast<double>(k) / 3.0);
    }
    b_ptr.push_back(static_cast<int64_t>(b_idx.size()));
  }
  const CsrMatrix wide_b(40, wide, std::move(b_ptr), std::move(b_idx),
                         std::move(b_val));
  CsrMatrix wide_a = GenerateUniformSparse(48, 40, 0.1, rng);
  {
    // Keep at most 6 entries per row and force the cancelling row 0.
    std::vector<int64_t> ptr{0, 2};
    std::vector<int64_t> idx{0, 1};
    std::vector<double> val{2.0, -2.0};
    for (int64_t i = 1; i < wide_a.rows(); ++i) {
      const auto ri = wide_a.RowIndices(i);
      const auto rv = wide_a.RowValues(i);
      for (size_t t = 0; t < ri.size() && t < 6; ++t) {
        idx.push_back(ri[t]);
        val.push_back(rv[t]);
      }
      ptr.push_back(static_cast<int64_t>(idx.size()));
    }
    wide_a = CsrMatrix(48, 40, std::move(ptr), std::move(idx),
                       std::move(val));
  }

  const std::pair<const CsrMatrix*, const CsrMatrix*> cases[] = {
      {&narrow_a, &narrow_b}, {&wide_a, &wide_b}};
  for (const auto& [a, b] : cases) {
    const CsrMatrix blind = MultiplySparseSparse(*a, *b);
    ASSERT_TRUE(blind.Equals(MapProduct(*a, *b))) << "cols=" << b->cols();
    std::vector<int64_t> upper;
    std::vector<double> estimate;
    RowHints(*a, *b, &upper, &estimate);
    for (int threads : {1, 4}) {
      ThreadPool pool(threads);
      GuidedExecStats stats;
      EXPECT_TRUE(MultiplySparseSparseGuided(
                      *a, *b, upper, estimate, GuidedProductOptions{},
                      GuidedTestConfig(threads), &pool, &stats)
                      .Equals(blind))
          << "cols=" << b->cols() << " threads=" << threads;
      EXPECT_EQ(stats.single_pass, 1) << "threads=" << threads;
      EXPECT_EQ(stats.scatter_rows, a->rows()) << "threads=" << threads;
      EXPECT_TRUE(MultiplySparseSparse(*a, *b, GuidedTestConfig(threads),
                                       &pool)
                      .Equals(blind))
          << "two-pass cols=" << b->cols() << " threads=" << threads;
    }
    EXPECT_EQ(ProductNnzExact(*a, *b),
              ProductNnzExact(*a, *b, GuidedTestConfig(4), nullptr));
  }
}

TEST(GuidedProductTest, DenseDirectMatchesCsrDetourBitwise) {
  Rng rng(23);
  const CsrMatrix a = GenerateUniformSparse(50, 40, 0.3, rng);
  const CsrMatrix b = GenerateUniformSparse(40, 45, 0.3, rng);
  const DenseMatrix detour = MultiplySparseSparse(a, b).ToDense();
  EXPECT_TRUE(MultiplySparseSparseDense(a, b).Equals(detour));
  ThreadPool pool(3);
  EXPECT_TRUE(MultiplySparseSparseDense(a, b, &pool).Equals(detour));
}

TEST(GuidedProductTest, BlindReserveModelIsPowerOfTwoSized) {
  EXPECT_EQ(BlindReserveBytesModel(0), 0);
  EXPECT_EQ(BlindReserveBytesModel(1), 16);
  EXPECT_EQ(BlindReserveBytesModel(5), 16 * 8);
  EXPECT_EQ(BlindReserveBytesModel(8), 16 * 8);
  EXPECT_EQ(BlindReserveBytesModel(9), 16 * 16);
}

TEST(ProductTest, FacadeNnzHintDoesNotChangeResult) {
  Rng rng(29);
  const Matrix a =
      Matrix::Sparse(GenerateUniformSparse(40, 30, 0.1, rng));
  const Matrix b =
      Matrix::Sparse(GenerateUniformSparse(30, 35, 0.1, rng));
  const Matrix plain = Multiply(a, b);
  // Deliberately wrong hints in both directions.
  for (int64_t hint : {int64_t{1}, int64_t{100000}}) {
    const Matrix hinted = Multiply(a, b, nullptr, hint);
    EXPECT_TRUE(plain.AsCsr().Equals(hinted.AsCsr())) << "hint=" << hint;
    const StatusOr<Matrix> checked = TryMultiply(a, b, nullptr, hint);
    ASSERT_TRUE(checked.ok()) << "hint=" << hint;
    EXPECT_TRUE(plain.AsCsr().Equals(checked->AsCsr())) << "hint=" << hint;
  }
}

}  // namespace
}  // namespace mnc
