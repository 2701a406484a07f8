#include "mnc/matrix/ops_product.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "mnc/kernels/kernels.h"
#include "mnc/util/arena.h"

namespace mnc {

namespace {

// The row accumulator over B, on a leased arena's scatter buffers.
kernels::SpGemmRowAccumulator RowAccumulator(ScratchArena& arena,
                                            const CsrMatrix& b) {
  return kernels::SpGemmRowAccumulator(arena, b.cols(), b.row_ptr().data(),
                                       b.col_idx().data(), b.values().data());
}

void ScatterRow(kernels::SpGemmRowAccumulator& acc, const CsrMatrix& a,
                int64_t i) {
  const auto a_idx = a.RowIndices(i);
  acc.Scatter(a_idx.data(), a.RowValues(i).data(),
              static_cast<int64_t>(a_idx.size()));
}

// Sequential Gustavson: rows append in order into arrays reserved for
// `reserve` entries (0: grow geometrically). The arrays' size runs ahead of
// the entry count by at most one row's bound and is trimmed at the end. The
// bound is the row's contribution count, or its exact count (a popcount)
// where the contribution count alone would outgrow the reserve.
CsrMatrix SequentialProduct(const CsrMatrix& a, const CsrMatrix& b,
                            int64_t reserve) {
  const int64_t m = a.rows();
  const int64_t l = b.cols();
  std::vector<int64_t> row_ptr(static_cast<size_t>(m) + 1, 0);
  std::vector<int64_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(static_cast<size_t>(reserve));
  values.reserve(static_cast<size_t>(reserve));

  ScratchPool::Lease lease = ScratchPool::Global().Acquire();
  kernels::SpGemmRowAccumulator acc = RowAccumulator(*lease, b);
  int64_t nnz = 0;
  for (int64_t i = 0; i < m; ++i) {
    ScatterRow(acc, a, i);
    size_t need = static_cast<size_t>(nnz + std::min(acc.flops(), l));
    if (need > col_idx.capacity()) {
      need = static_cast<size_t>(nnz + acc.Count());
    }
    if (col_idx.size() < need) {
      col_idx.resize(need);
      values.resize(need);
    }
    nnz += acc.Gather(col_idx.data() + nnz, values.data() + nnz);
    row_ptr[static_cast<size_t>(i) + 1] = nnz;
  }
  col_idx.resize(static_cast<size_t>(nnz));
  values.resize(static_cast<size_t>(nnz));
  return CsrMatrix(m, l, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

// Symbolic pass shared by the parallel SpGEMM and ProductNnzExact: the
// number of columns reachable in each output row (pattern
// only, so numeric cancellation is not seen here; the fill pass drops
// cancelled entries by value and the compaction closes the gaps).
std::vector<int64_t> SymbolicRowCounts(const CsrMatrix& a, const CsrMatrix& b,
                                       const ParallelConfig& config,
                                       ThreadPool* pool) {
  std::vector<int64_t> row_nnz(static_cast<size_t>(a.rows()), 0);
  ParallelForBlocks(pool, config, a.rows(),
                    [&](int64_t /*block*/, int64_t lo, int64_t hi) {
    ScratchPool::Lease lease = ScratchPool::Global().Acquire();
    kernels::SpGemmRowAccumulator acc = RowAccumulator(*lease, b);
    for (int64_t i = lo; i < hi; ++i) {
      const auto a_idx = a.RowIndices(i);
      acc.ScatterPattern(a_idx.data(), static_cast<int64_t>(a_idx.size()));
      row_nnz[static_cast<size_t>(i)] = acc.PatternCountAndReset();
    }
  });
  return row_nnz;
}

// Single-pass parallel fill: output row i goes into the provisional slice
// [scan[i], scan[i+1]) of one shared array pair, then the slices are packed
// in place. With `checked` (bounds that are estimates, not counts) a row
// whose pattern outgrows its slice is discarded before anything is written
// past the slice, and the fill stops and returns nullopt.
std::optional<CsrMatrix> FillSlices(const CsrMatrix& a, const CsrMatrix& b,
                                    const std::vector<int64_t>& scan,
                                    bool checked, const ParallelConfig& config,
                                    ThreadPool* pool) {
  const int64_t m = a.rows();
  std::vector<int64_t> col_idx(static_cast<size_t>(scan.back()));
  std::vector<double> values(col_idx.size());
  std::vector<int64_t> row_nnz(static_cast<size_t>(m), 0);
  std::atomic<bool> overflow{false};
  ParallelForBlocks(pool, config, m,
                    [&](int64_t /*block*/, int64_t lo, int64_t hi) {
    ScratchPool::Lease lease = ScratchPool::Global().Acquire();
    kernels::SpGemmRowAccumulator acc = RowAccumulator(*lease, b);
    for (int64_t i = lo; i < hi; ++i) {
      // The result is discarded on overflow, so later rows may bail early.
      if (checked && overflow.load(std::memory_order_relaxed)) break;
      const int64_t base = scan[static_cast<size_t>(i)];
      const int64_t cap = scan[static_cast<size_t>(i) + 1] - base;
      ScatterRow(acc, a, i);
      if (checked && acc.flops() > cap && acc.Count() > cap) {
        acc.Discard();
        overflow.store(true, std::memory_order_relaxed);
        break;
      }
      row_nnz[static_cast<size_t>(i)] =
          acc.Gather(col_idx.data() + base, values.data() + base);
    }
  });
  if (overflow.load(std::memory_order_relaxed)) return std::nullopt;

  // Rows only move left (a row's count never exceeds its slice), so the
  // packing runs in place and the arrays are trimmed, never copied.
  std::vector<int64_t> row_ptr(static_cast<size_t>(m) + 1, 0);
  for (int64_t i = 0; i < m; ++i) {
    const int64_t src = scan[static_cast<size_t>(i)];
    const int64_t dst = row_ptr[static_cast<size_t>(i)];
    const int64_t cnt = row_nnz[static_cast<size_t>(i)];
    if (dst != src) {
      std::copy_n(col_idx.begin() + src, cnt, col_idx.begin() + dst);
      std::copy_n(values.begin() + src, cnt, values.begin() + dst);
    }
    row_ptr[static_cast<size_t>(i) + 1] = dst + cnt;
  }
  col_idx.resize(static_cast<size_t>(row_ptr[static_cast<size_t>(m)]));
  values.resize(col_idx.size());
  return CsrMatrix(m, b.cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

// Exclusive scan of per-row slice sizes.
std::vector<int64_t> ExclusiveScan(const std::vector<int64_t>& sizes) {
  std::vector<int64_t> scan(sizes.size() + 1, 0);
  for (size_t i = 0; i < sizes.size(); ++i) scan[i + 1] = scan[i] + sizes[i];
  return scan;
}

}  // namespace

CsrMatrix MultiplySparseSparse(const CsrMatrix& a, const CsrMatrix& b,
                               int64_t expected_nnz) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  return SequentialProduct(
      a, b, expected_nnz > 0 ? std::min(expected_nnz, a.rows() * b.cols()) : 0);
}

CsrMatrix MultiplySparseSparse(const CsrMatrix& a, const CsrMatrix& b,
                               const ParallelConfig& orig, ThreadPool* pool) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  // Calibrated dispatch: drop to the sequential kernel below the measured
  // crossover (bit-identical; each row's output is computed independently,
  // so a calibrated grain is also safe).
  const ParallelConfig config =
      orig.ForStage(TunedStage::kSpGemm, a.rows() + a.NumNonZeros());
  if (!config.enabled() || pool == nullptr) {
    return MultiplySparseSparse(a, b);
  }
  // Pass 1 (symbolic): per-row pattern counts, in parallel. The pattern
  // count bounds the numeric count (exactly-cancelled values are dropped by
  // the fill, as in the sequential kernel), so the scan gives each row a
  // provisional slice that the fill cannot overflow.
  const std::vector<int64_t> scan =
      ExclusiveScan(SymbolicRowCounts(a, b, config, pool));
  // Pass 2 (fill): each block gathers its rows into their disjoint slices
  // with the sequential kernel's per-row arithmetic.
  return *FillSlices(a, b, scan, /*checked=*/false, config, pool);
}

DenseMatrix MultiplyDenseDense(const DenseMatrix& a, const DenseMatrix& b,
                               ThreadPool* pool) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  const int64_t l = b.cols();
  DenseMatrix c(m, l);

  auto compute_rows = [&](int64_t begin, int64_t end) {
    // i-k-j loop order: streams over B rows, vectorizes the inner j loop.
    for (int64_t i = begin; i < end; ++i) {
      double* ci = c.row(i);
      const double* ai = a.row(i);
      for (int64_t k = 0; k < n; ++k) {
        const double av = ai[k];
        if (av == 0.0) continue;
        const double* bk = b.row(k);
        for (int64_t j = 0; j < l; ++j) {
          ci[j] += av * bk[j];
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(m, compute_rows);
  } else {
    compute_rows(0, m);
  }
  return c;
}

DenseMatrix MultiplySparseDense(const CsrMatrix& a, const DenseMatrix& b) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows();
  const int64_t l = b.cols();
  DenseMatrix c(m, l);
  for (int64_t i = 0; i < m; ++i) {
    double* ci = c.row(i);
    const auto a_idx = a.RowIndices(i);
    const auto a_val = a.RowValues(i);
    for (size_t ka = 0; ka < a_idx.size(); ++ka) {
      const double av = a_val[ka];
      const double* bk = b.row(a_idx[ka]);
      for (int64_t j = 0; j < l; ++j) {
        ci[j] += av * bk[j];
      }
    }
  }
  return c;
}

DenseMatrix MultiplyDenseSparse(const DenseMatrix& a, const CsrMatrix& b) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows();
  const int64_t n = a.cols();
  const int64_t l = b.cols();
  DenseMatrix c(m, l);
  for (int64_t i = 0; i < m; ++i) {
    double* ci = c.row(i);
    const double* ai = a.row(i);
    for (int64_t k = 0; k < n; ++k) {
      const double av = ai[k];
      if (av == 0.0) continue;
      const auto b_idx = b.RowIndices(k);
      const auto b_val = b.RowValues(k);
      for (size_t kb = 0; kb < b_idx.size(); ++kb) {
        ci[b_idx[kb]] += av * b_val[kb];
      }
    }
  }
  return c;
}

void GuidedExecStats::MergeFrom(const GuidedExecStats& other) {
  guided_products += other.guided_products;
  single_pass += other.single_pass;
  two_pass_fallbacks += other.two_pass_fallbacks;
  overflow_fallbacks += other.overflow_fallbacks;
  dense_direct += other.dense_direct;
  scatter_rows += other.scatter_rows;
  guided_reserve_bytes += other.guided_reserve_bytes;
  blind_reserve_bytes += other.blind_reserve_bytes;
}

int64_t BlindReserveBytesModel(int64_t nnz) {
  if (nnz <= 0) return 0;
  int64_t cap = 1;
  while (cap < nnz) cap <<= 1;
  return 16 * cap;  // 8B value + 8B column index per entry
}

CsrMatrix MultiplySparseSparseGuided(
    const CsrMatrix& a, const CsrMatrix& b,
    const std::vector<int64_t>& row_upper,
    const std::vector<double>& row_estimate, const GuidedProductOptions& opts,
    const ParallelConfig& orig, ThreadPool* pool, GuidedExecStats* stats) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  // Same calibrated seq-vs-par dispatch as the blind parallel SpGEMM.
  const ParallelConfig config =
      orig.ForStage(TunedStage::kSpGemm, a.rows() + a.NumNonZeros());
  const int64_t m = a.rows();
  const int64_t l = b.cols();
  MNC_CHECK_EQ(static_cast<int64_t>(row_upper.size()), m);
  GuidedExecStats local;
  local.guided_products = 1;

  if (!config.enabled() || pool == nullptr) {
    // Sequential: the bounds become the pre-allocation hint (capped by the
    // estimate total when available, since bounds can grossly over-reserve
    // on hub-heavy inputs) and rows append in order.
    int64_t hint = 0;
    for (int64_t ub : row_upper) hint += ub;
    if (!row_estimate.empty()) {
      double est_total = 0.0;
      for (double e : row_estimate) est_total += e;
      hint = std::min(hint, static_cast<int64_t>(est_total) + 1);
    }
    hint = std::min(hint, m * l);
    CsrMatrix result = SequentialProduct(a, b, hint);
    local.single_pass = 1;
    local.scatter_rows = m;
    local.guided_reserve_bytes = 16 * hint;
    local.blind_reserve_bytes = BlindReserveBytesModel(result.NumNonZeros());
    if (stats != nullptr) stats->MergeFrom(local);
    return result;
  }

  // Parallel: single-pass fill into bound-sized slices; the symbolic pass
  // of the two-pass kernel is exactly what the sketch bounds replace.
  const std::vector<int64_t> scan = ExclusiveScan(row_upper);
  const int64_t slice_total = scan.back();
  if (16 * slice_total > opts.single_pass_budget_bytes) {
    CsrMatrix result = MultiplySparseSparse(a, b, config, pool);
    local.two_pass_fallbacks = 1;
    local.guided_reserve_bytes = 16 * result.NumNonZeros();
    local.blind_reserve_bytes = 16 * result.NumNonZeros();
    if (stats != nullptr) stats->MergeFrom(local);
    return result;
  }

  std::optional<CsrMatrix> result =
      FillSlices(a, b, scan, /*checked=*/true, config, pool);
  if (!result) {
    // A bound from a propagated sketch was violated; the two-pass kernel
    // recomputes with exact sizing (bit-identical result).
    result = MultiplySparseSparse(a, b, config, pool);
    local.overflow_fallbacks = 1;
    local.guided_reserve_bytes = 16 * slice_total + 16 * result->NumNonZeros();
    local.blind_reserve_bytes = 16 * result->NumNonZeros();
    if (stats != nullptr) stats->MergeFrom(local);
    return std::move(*result);
  }
  local.single_pass = 1;
  local.scatter_rows = m;
  local.guided_reserve_bytes = 16 * slice_total;
  local.blind_reserve_bytes = BlindReserveBytesModel(result->NumNonZeros());
  if (stats != nullptr) stats->MergeFrom(local);
  return std::move(*result);
}

DenseMatrix MultiplySparseSparseDense(const CsrMatrix& a, const CsrMatrix& b,
                                      ThreadPool* pool) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  const int64_t m = a.rows();
  const int64_t l = b.cols();
  DenseMatrix c(m, l);
  auto compute_rows = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      double* ci = c.row(i);
      const auto a_idx = a.RowIndices(i);
      const auto a_val = a.RowValues(i);
      for (size_t ka = 0; ka < a_idx.size(); ++ka) {
        const double av = a_val[ka];
        const auto b_idx = b.RowIndices(a_idx[ka]);
        const auto b_val = b.RowValues(a_idx[ka]);
        for (size_t t = 0; t < b_idx.size(); ++t) {
          ci[b_idx[t]] += av * b_val[t];
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(m, compute_rows);
  } else {
    compute_rows(0, m);
  }
  return c;
}

Matrix Multiply(const Matrix& a, const Matrix& b, ThreadPool* pool,
                int64_t expected_nnz) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  if (a.is_dense() && b.is_dense()) {
    return Matrix::AutoFromDense(MultiplyDenseDense(a.dense(), b.dense(), pool));
  }
  if (!a.is_dense() && !b.is_dense()) {
    if (pool != nullptr && pool->num_threads() > 1) {
      // The parallel kernel is bit-identical to the sequential one, so the
      // dispatch may use it whenever a pool is offered. It sizes the output
      // exactly (two passes), so the pre-allocation hint has no use here.
      ParallelConfig config;
      config.num_threads = pool->num_threads();
      return Matrix::AutoFromCsr(
          MultiplySparseSparse(a.csr(), b.csr(), config, pool));
    }
    return Matrix::AutoFromCsr(
        MultiplySparseSparse(a.csr(), b.csr(), expected_nnz));
  }
  if (!a.is_dense()) {
    return Matrix::AutoFromDense(MultiplySparseDense(a.csr(), b.dense()));
  }
  return Matrix::AutoFromDense(MultiplyDenseSparse(a.dense(), b.csr()));
}

int64_t ProductNnzExact(const CsrMatrix& a, const CsrMatrix& b) {
  return ProductNnzExact(a, b, ParallelConfig{}, nullptr);
}

int64_t ProductNnzExact(const CsrMatrix& a, const CsrMatrix& b,
                        const ParallelConfig& config, ThreadPool* pool) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  int64_t nnz = 0;
  for (int64_t c : SymbolicRowCounts(a, b, config, pool)) nnz += c;
  return nnz;
}

}  // namespace mnc
