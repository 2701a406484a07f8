// Matrix-product kernels: sparse (Gustavson SpGEMM), dense (blocked GEMM),
// mixed, and the format-dispatching Multiply() entry point that provides the
// FP64 ground truth for the benchmark (§6.1: "we execute FP64 matrix
// operations with internal dispatch of dense and sparse operations").

#ifndef MNC_MATRIX_OPS_PRODUCT_H_
#define MNC_MATRIX_OPS_PRODUCT_H_

#include "mnc/matrix/csr_matrix.h"
#include "mnc/matrix/dense_matrix.h"
#include "mnc/matrix/matrix.h"
#include "mnc/util/parallel.h"
#include "mnc/util/thread_pool.h"

namespace mnc {

// C = A B with both inputs sparse (row-wise Gustavson algorithm).
// expected_nnz (optional, e.g. from an MNC estimate) preallocates the
// output arrays — the "memory preallocation" use of sparsity estimates the
// paper's introduction motivates. The result is identical either way.
CsrMatrix MultiplySparseSparse(const CsrMatrix& a, const CsrMatrix& b,
                               int64_t expected_nnz = -1);

// Parallel two-pass Gustavson SpGEMM behind the ParallelConfig knob: a
// symbolic pass counts each output row's non-zeros, an exclusive scan over
// the counts builds row_ptr, and a fill pass writes every row block into its
// disjoint output slice. Each row accumulates and gathers exactly as in the
// sequential kernel, so the result equals MultiplySparseSparse bit-for-bit
// at any thread count.
CsrMatrix MultiplySparseSparse(const CsrMatrix& a, const CsrMatrix& b,
                               const ParallelConfig& config, ThreadPool* pool);

// C = A B with both inputs dense. If pool is non-null, rows of C are
// computed in parallel.
DenseMatrix MultiplyDenseDense(const DenseMatrix& a, const DenseMatrix& b,
                               ThreadPool* pool = nullptr);

// C = A B with sparse A, dense B (dense output).
DenseMatrix MultiplySparseDense(const CsrMatrix& a, const DenseMatrix& b);

// C = A B with dense A, sparse B (dense output).
DenseMatrix MultiplyDenseSparse(const DenseMatrix& a, const CsrMatrix& b);

// ---- Sketch-guided execution --------------------------------------------
//
// The kernels below let an MNC-sketch-informed caller (the guided
// Evaluator, see mnc/ir/evaluator.h) choose allocation strategy, pass
// structure and output format *before* computing. Estimates never change
// values: every guided kernel accumulates each output cell in the same
// ascending-k order as the blind kernels above, so results are bit-identical
// to the blind path — wrong estimates only cost performance (or trigger the
// documented fallbacks), never correctness.

// Counters reported by the guided layer (mnc_tool serve stats, benchmarks).
struct GuidedExecStats {
  int64_t guided_products = 0;     // products that consulted estimates
  int64_t single_pass = 0;         // symbolic pass skipped (bound-sized)
  int64_t two_pass_fallbacks = 0;  // slices over budget -> two-pass kernel
  int64_t overflow_fallbacks = 0;  // a row outgrew its slice -> recompute
  int64_t dense_direct = 0;        // written straight into a DenseMatrix
  int64_t scatter_rows = 0;        // rows through the CSR row accumulator
  // Output staging actually reserved by the guided kernels vs. the modeled
  // allocation of the blind path for the same products (see
  // BlindReserveBytesModel). The difference is the "bytes saved" figure in
  // serve stats; it can be negative when bounds over-allocate.
  int64_t guided_reserve_bytes = 0;
  int64_t blind_reserve_bytes = 0;

  void MergeFrom(const GuidedExecStats& other);
};

struct GuidedProductOptions {
  // Budget for the bound-sized output slices of the single-pass kernel
  // (16 bytes per potential entry). When the per-row upper bounds sum past
  // it, the exact sizing of the two-pass kernel wins and the guided product
  // falls back to it.
  int64_t single_pass_budget_bytes = 64LL << 20;  // 64 MB
};

// Modeled output allocation of the blind (unhinted, sequential) SpGEMM for
// a product that stores `nnz` entries: geometric doubling lands col_idx +
// values at the smallest power-of-two capacity >= nnz, 16 bytes per entry.
// Used only for the guided-vs-blind reserve counters.
int64_t BlindReserveBytesModel(int64_t nnz);

// Sketch-guided Gustavson SpGEMM. row_upper[i] bounds output row i's
// pattern count (EstimateProductRows upper bounds); row_estimate (optional,
// may be empty) carries the per-row estimates that cap the sequential
// reserve hint. With an enabled config + pool this runs a SINGLE-PASS parallel
// variant: output slices are sized by the bounds (no symbolic pass), rows
// fill their slices in parallel, and the slices are compacted exactly like
// the two-pass kernel's. Bounds from propagated (estimated) sketches are
// not guarantees, so a row overflowing its slice aborts the single-pass
// fill and recomputes via the two-pass kernel (overflow_fallbacks);
// slices past the byte budget skip straight to the two-pass kernel
// (two_pass_fallbacks). Sequentially the bounds become a reserve hint and
// rows append in order. Every path runs the same row accumulator
// (kernels::SpGemmRowAccumulator) and returns the blind kernels' result
// bit-for-bit.
CsrMatrix MultiplySparseSparseGuided(
    const CsrMatrix& a, const CsrMatrix& b,
    const std::vector<int64_t>& row_upper,
    const std::vector<double>& row_estimate, const GuidedProductOptions& opts,
    const ParallelConfig& config, ThreadPool* pool,
    GuidedExecStats* stats = nullptr);

// C = A B with both inputs sparse, accumulated directly into a dense output
// — for products whose *estimated* sparsity clears the dense dispatch
// threshold, skipping the CSR detour (sparse materialization + ToDense).
// Each cell accumulates av * bv in the same ascending-k order as the CSR
// scatter kernel, and an exactly-cancelled cell ends at +0.0 either way, so
// the result equals MultiplySparseSparse(a, b).ToDense() bit-for-bit. Rows
// are independent; a pool parallelizes them without changing the result.
DenseMatrix MultiplySparseSparseDense(const CsrMatrix& a, const CsrMatrix& b,
                                      ThreadPool* pool = nullptr);

// Format-dispatching product; the output format is chosen from the actual
// output sparsity (AutoFrom*). Aborts if inner dimensions disagree.
// expected_nnz (optional, e.g. an MNC product estimate) is forwarded to the
// sequential sparse-sparse kernel as its pre-allocation hint; the parallel
// two-pass kernel sizes exactly and ignores it, and dense outputs have no
// use for it. The result is identical either way.
Matrix Multiply(const Matrix& a, const Matrix& b, ThreadPool* pool = nullptr,
                int64_t expected_nnz = -1);

// Exact number of non-zeros of A B without materializing values — a boolean
// ("pattern") SpGEMM. Used by tests as an independent ground-truth check.
int64_t ProductNnzExact(const CsrMatrix& a, const CsrMatrix& b);

// Parallel pattern SpGEMM: the symbolic pass of the parallel kernel alone.
int64_t ProductNnzExact(const CsrMatrix& a, const CsrMatrix& b,
                        const ParallelConfig& config, ThreadPool* pool);

}  // namespace mnc

#endif  // MNC_MATRIX_OPS_PRODUCT_H_
