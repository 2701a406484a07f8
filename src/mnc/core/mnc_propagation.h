// MNC sketch propagation — §3.3 and §4.2 of the paper.
//
// For chains/DAGs of operations, sketches of intermediates are derived from
// input sketches: matrix products scale the input count vectors to the
// estimated output nnz (Eq. 11) with probabilistic rounding; fully diagonal
// inputs short-circuit to an exact copy (Eq. 12); reorganizations propagate
// exactly where possible (Eq. 14); element-wise operations materialize the
// per-row/column estimates of Eq. 13 (Eq. 15).
//
// All probabilistic rounding draws from the caller-provided Rng so that
// experiments are reproducible.

#ifndef MNC_CORE_MNC_PROPAGATION_H_
#define MNC_CORE_MNC_PROPAGATION_H_

#include "mnc/core/mnc_sketch.h"
#include "mnc/util/random.h"

namespace mnc {

// Rounds x >= 0 to floor(x) + Bernoulli(frac(x)) — unbiased, minimal
// variance (§3.3 "Probabilistic Rounding"). Draws from rng only when x has
// a fraction; x is clamped to 2^52 first (no double above has one).
int64_t ProbabilisticRound(double x, Rng& rng);

// Rounding policy for propagated count vectors. §3.3 motivates
// kProbabilistic with the 0.4-per-row example: deterministic rounding
// predicts an empty intermediate and collapses the chain estimate to zero.
// kDeterministic (round-half-up) exists for the ablation study
// (bench/ablation_mnc_features).
enum class RoundingMode {
  kProbabilistic,
  kDeterministic,
};

// Rounds according to `mode`; rng is only consulted for kProbabilistic.
int64_t RoundCount(double x, RoundingMode mode, Rng& rng);

// The vector form every Eq. 11/15 propagation uses: out[i] =
// min(RoundCount(est[i], mode, rng), cap) for est[i] >= 0, drawing from rng
// exactly as that loop would in index order — one draw per entry with a
// fraction.
void RoundInto(const double* est, int64_t n, int64_t cap, RoundingMode mode,
               Rng& rng, int64_t* out);

// Sketch of C = A B. When `basic` is true, uses the MNC Basic estimator and
// skips the diagonal short-circuit.
MncSketch PropagateProduct(const MncSketch& a, const MncSketch& b, Rng& rng,
                           bool basic = false,
                           RoundingMode mode = RoundingMode::kProbabilistic);

// Sketches of element-wise C = A + B and C = A ⊙ B (Eq. 15).
MncSketch PropagateEWiseAdd(const MncSketch& a, const MncSketch& b, Rng& rng,
                            RoundingMode mode = RoundingMode::kProbabilistic);
MncSketch PropagateEWiseMult(const MncSketch& a, const MncSketch& b, Rng& rng,
                             RoundingMode mode = RoundingMode::kProbabilistic);

// Parallel propagation. These take a `seed` instead of a shared Rng: each
// fixed-size row/column block draws from its own PRNG stream seeded as
// MixSeed(MixSeed(seed, stream), block_index), where stream 0 covers the
// output hr vector and stream 1 the output hc vector. No Rng state is ever
// shared across tasks, and because blocks are a function of
// config.min_rows_per_task alone (not the thread count) the result is
// bit-identical at any num_threads in deterministic mode — including
// num_threads == 1 running the same blocks inline. The sequence of draws
// differs from the shared-Rng overloads above, so results are distribution-
// equal but not draw-for-draw equal to them.
MncSketch PropagateProduct(const MncSketch& a, const MncSketch& b,
                           uint64_t seed, const ParallelConfig& config,
                           ThreadPool* pool, bool basic = false,
                           RoundingMode mode = RoundingMode::kProbabilistic);
MncSketch PropagateEWiseAdd(const MncSketch& a, const MncSketch& b,
                            uint64_t seed, const ParallelConfig& config,
                            ThreadPool* pool,
                            RoundingMode mode = RoundingMode::kProbabilistic);
MncSketch PropagateEWiseMult(const MncSketch& a, const MncSketch& b,
                             uint64_t seed, const ParallelConfig& config,
                             ThreadPool* pool,
                             RoundingMode mode = RoundingMode::kProbabilistic);

// Reorganizations (Eq. 14).
MncSketch PropagateTranspose(const MncSketch& a);
MncSketch PropagateNotEqualZero(const MncSketch& a);
MncSketch PropagateEqualZero(const MncSketch& a);
MncSketch PropagateRBind(const MncSketch& a, const MncSketch& b);
MncSketch PropagateCBind(const MncSketch& a, const MncSketch& b);

// diag: m x 1 vector -> m x m diagonal matrix (exact), square matrix ->
// m x 1 vector (best-effort, §4.2).
MncSketch PropagateDiag(const MncSketch& a, Rng& rng,
                        RoundingMode mode = RoundingMode::kProbabilistic);

// Row-wise reshape to k x l. Exact aggregation when rows merge
// (rows % k == 0) or split (k % rows == 0); uniform redistribution
// otherwise (best-effort).
MncSketch PropagateReshape(const MncSketch& a, int64_t k, int64_t l, Rng& rng,
                           RoundingMode mode = RoundingMode::kProbabilistic);

// §8 "additional operations" extension.
//
// Scalar scaling with alpha != 0 preserves the full sketch.
MncSketch PropagateScale(const MncSketch& a);

// rowSums/colSums: under A1, an aggregate is non-zero exactly when the
// row/column is non-empty — the sketch of the result is exact.
MncSketch PropagateRowSums(const MncSketch& a);
MncSketch PropagateColSums(const MncSketch& a);

// Element-wise min/max over non-negative inputs behave like pattern
// intersection/union: reuse the Eq. 15 machinery.
inline MncSketch PropagateEWiseMin(
    const MncSketch& a, const MncSketch& b, Rng& rng,
    RoundingMode mode = RoundingMode::kProbabilistic) {
  return PropagateEWiseMult(a, b, rng, mode);
}
inline MncSketch PropagateEWiseMax(
    const MncSketch& a, const MncSketch& b, Rng& rng,
    RoundingMode mode = RoundingMode::kProbabilistic) {
  return PropagateEWiseAdd(a, b, rng, mode);
}

}  // namespace mnc

#endif  // MNC_CORE_MNC_PROPAGATION_H_
