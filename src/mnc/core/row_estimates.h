// Per-row product output estimates — the sketch-guided execution interface.
//
// For C = A B, the global Algorithm 1 estimate (mnc_estimator.h) answers
// "how many non-zeros will C have?". Guided execution needs the finer
// question "how many non-zeros will *row i* of C have?" so SpGEMM output
// slices can be pre-sized before any value is computed. This API answers it
// from A's actual CSR row patterns combined with B's MNC sketch, applying
// the paper's machinery at row granularity:
//
//   * upper bound (Thm 3.2 shape): the columns of output row i are a subset
//     of the union of B's rows selected by A's row pattern, so
//       ub_i = min(sum_{k in pattern(A_i)} hr_B[k], non_empty_cols(B)).
//   * exact (Thm 3.1 shape): the union is disjoint — and the bound tight —
//     when |pattern(A_i)| <= 1, when max(hc_B) <= 1 (A2: all B rows are
//     pairwise disjoint), or when every selected entry of B lies in a
//     single-non-zero column (sum her_B == sum hr_B over the pattern, the
//     extension-vector refinement of Eq. 8).
//   * estimate (Eq. 8 shape): otherwise the her_B entries are exactly known
//     (single-non-zero columns cannot collide) and the remaining
//     sum (hr_B - her_B) entries spread over the multi-non-zero columns with
//     a density-map collision model (Eq. 4), clamped into
//     [max_k hr_B[k], ub_i].
//
// Counts are pattern-level: entries that cancel numerically to exactly 0.0
// during the real SpGEMM may make the true stored count smaller, exactly as
// for ProductNnzExact. Bounds are guarantees only when `b` is an exact
// sketch of the right operand (MncSketch::FromCsr); propagated sketches give
// best-effort bounds and the guided kernels detect and recover from
// violations (see MultiplySparseSparseGuided).

#ifndef MNC_CORE_ROW_ESTIMATES_H_
#define MNC_CORE_ROW_ESTIMATES_H_

#include <cstdint>
#include <vector>

#include "mnc/core/mnc_sketch.h"
#include "mnc/util/parallel.h"
#include "mnc/util/thread_pool.h"

namespace mnc {

struct RowProductEstimate {
  // Eq. 8-style estimated non-zero count of the output row, clamped into
  // [row lower bound, upper_bound]. Equals upper_bound when `exact`.
  double estimate = 0.0;
  // Thm 3.2-style per-row bound on the output row's pattern count.
  int64_t upper_bound = 0;
  // The row pattern count is known exactly (Thm 3.1 conditions hold for
  // this row); then estimate == upper_bound == the exact pattern count.
  bool exact = false;
};

// Aggregates of a per-row estimate vector (single O(m) pass).
struct RowEstimateSummary {
  double estimate_total = 0.0;
  int64_t upper_bound_total = 0;
  int64_t exact_rows = 0;
};

// Split-vector form of a per-row estimate table — the shape the guided
// SpGEMM kernel consumes directly (MultiplySparseSparseGuided takes the
// upper/estimate vectors separately) and the unit the estimation service's
// plan cache stores per product node so a warm Execute can replay guided
// decisions without recomputing any estimate.
struct RowEstimateTable {
  std::vector<int64_t> upper;    // Thm 3.2 per-row bounds
  std::vector<double> estimate;  // Eq. 8 per-row estimates
  RowEstimateSummary summary;

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(sizeof(*this)) +
           static_cast<int64_t>(upper.capacity() * sizeof(int64_t)) +
           static_cast<int64_t>(estimate.capacity() * sizeof(double));
  }
};

// Splits `rows` into the kernel-facing table, summarizing in the same O(m)
// pass SummarizeRowEstimates would take.
RowEstimateTable BuildRowEstimateTable(
    const std::vector<RowProductEstimate>& rows);

// Per-row output estimates for C = A B from A's row patterns and B's
// sketch. Requires a.cols() == b.rows() and b.hr() present (true for every
// sketch this library builds or propagates). Deterministic: no PRNG, and
// the per-row arithmetic reuses the bit-identical-across-SIMD-levels
// kernels (dot_counts / density_combine).
std::vector<RowProductEstimate> EstimateProductRows(const CsrMatrix& a,
                                                    const MncSketch& b);

// Parallel overload: rows are independent, so the result is bit-identical
// to the sequential overload at any thread count.
std::vector<RowProductEstimate> EstimateProductRows(
    const CsrMatrix& a, const MncSketch& b, const ParallelConfig& config,
    ThreadPool* pool);

RowEstimateSummary SummarizeRowEstimates(
    const std::vector<RowProductEstimate>& rows);

}  // namespace mnc

#endif  // MNC_CORE_ROW_ESTIMATES_H_
