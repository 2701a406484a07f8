#include "mnc/core/mnc_propagation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "mnc/core/mnc_estimator.h"
#include "mnc/kernels/kernels.h"
#include "mnc/util/arena.h"
#include "mnc/util/check.h"

namespace mnc {

namespace {

// Doubles at or above 2^52 have no fractional part; clamping there keeps
// the int64 conversion in range. Truncation is floor on x >= 0.
constexpr double kNoFraction = 0x1p52;

// The truncate step shared by the scalar and vector rounding below.
inline int64_t Whole(double x) {
  return static_cast<int64_t>(std::min(x, kNoFraction));
}
inline double Fraction(double x, int64_t whole) {
  return std::min(x, kNoFraction) - static_cast<double>(whole);
}

// Eq. 15 estimates are bounded by the operand counts, so they need no cap.
constexpr int64_t kNoCap = std::numeric_limits<int64_t>::max();

}  // namespace

int64_t ProbabilisticRound(double x, Rng& rng) {
  MNC_DCHECK(x >= 0.0);
  const int64_t whole = Whole(x);
  const double frac = Fraction(x, whole);
  return frac > 0.0 ? whole + (rng.Uniform() < frac) : whole;
}

int64_t RoundCount(double x, RoundingMode mode, Rng& rng) {
  if (mode == RoundingMode::kDeterministic) {
    return static_cast<int64_t>(std::llround(x));
  }
  return ProbabilisticRound(x, rng);
}

void RoundInto(const double* est, int64_t n, int64_t cap, RoundingMode mode,
               Rng& rng, int64_t* out) {
  if (mode == RoundingMode::kDeterministic) {
    for (int64_t i = 0; i < n; ++i) {
      out[i] = std::min<int64_t>(std::llround(est[i]), cap);
    }
    return;
  }
  // The engine runs on a local copy: stores to `out` may alias its state,
  // which would pin the state in memory.
  Rng local = rng;
  // Chunks keep the index list on the stack, hot in L1.
  constexpr int64_t kChunk = 512;
  int64_t drawn[kChunk];
  for (int64_t lo = 0; lo < n; lo += kChunk) {
    const int64_t hi = std::min(n, lo + kChunk);
    // Pass 1: whole parts, and the indices of entries with a fraction,
    // compacted without a branch. Clamping the whole part first is exact:
    // min(min(w, cap) + d, cap) == min(w + d, cap) for d in {0, 1}.
    int64_t m = 0;
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t whole = Whole(est[i]);
      out[i] = std::min(whole, cap);
      drawn[m] = i;
      m += Fraction(est[i], whole) > 0.0;
    }
    // Pass 2: one draw per fractional entry, in index order.
    for (int64_t k = 0; k < m; ++k) {
      const int64_t i = drawn[k];
      const int64_t whole = Whole(est[i]);
      out[i] =
          std::min(whole + (local.Uniform() < Fraction(est[i], whole)), cap);
    }
  }
  rng = local;
}

namespace {

// Stages one count vector's estimates with `stage(lo, hi, est)` (one
// vectorized kernel call) and rounds them with RoundInto in index order, so
// the PRNG consumption is independent of the kernel level.
template <typename Stage>
std::vector<int64_t> RoundStaged(int64_t n, int64_t cap, RoundingMode mode,
                                 Rng& rng, const Stage& stage) {
  std::vector<int64_t> out(static_cast<size_t>(n));
  ScratchPool::Lease lease = ScratchPool::Global().Acquire();
  std::vector<double>& est = lease->StageDoubles(static_cast<size_t>(n));
  stage(0, n, est.data());
  RoundInto(est.data(), n, cap, mode, rng, out.data());
  return out;
}

// Parallel RoundStaged: every fixed-size block stages into its worker's
// arena and rounds with its own Rng seeded from (seed, stream, block index),
// so the output is a pure function of the inputs and
// config.min_rows_per_task — independent of the thread count.
template <typename Stage>
std::vector<int64_t> RoundStagedPar(int64_t n, int64_t cap, uint64_t seed,
                                    uint64_t stream,
                                    const ParallelConfig& config,
                                    ThreadPool* pool, RoundingMode mode,
                                    const Stage& stage) {
  std::vector<int64_t> out(static_cast<size_t>(n));
  const uint64_t stream_seed = MixSeed(seed, stream);
  ParallelForBlocks(pool, config, n,
                    [&](int64_t block, int64_t lo, int64_t hi) {
    ScratchPool::Lease lease = ScratchPool::Global().Acquire();
    std::vector<double>& est =
        lease->StageDoubles(static_cast<size_t>(hi - lo));
    stage(lo, hi, est.data());
    Rng rng(MixSeed(stream_seed, static_cast<uint64_t>(block)));
    RoundInto(est.data(), hi - lo, cap, mode, rng, out.data() + lo);
  });
  return out;
}

// Eq. 11 staging: scale = nnz(C) / nnz(input) moves the counts' sum to the
// product estimate.
struct ScaleStage {
  const std::vector<int64_t>& counts;
  double scale;
  void operator()(int64_t lo, int64_t hi, double* est) const {
    kernels::Active().scale_counts(counts.data() + lo, hi - lo, scale, est);
  }
};

// Row-collision factor lambda^r = sum_i hrA_i hrB_i / (nnzA nnzB); the
// column variant uses hc. (Eq. 13/15.)
double Lambda(const std::vector<int64_t>& u, const std::vector<int64_t>& v,
              double nnz_a, double nnz_b) {
  if (nnz_a <= 0.0 || nnz_b <= 0.0) return 0.0;
  const double acc = kernels::Active().dot_counts(
      u.data(), v.data(), static_cast<int64_t>(u.size()));
  return acc / (nnz_a * nnz_b);
}

// Blocked Lambda: per-block partial dot products combine in block order.
double LambdaPar(const std::vector<int64_t>& u, const std::vector<int64_t>& v,
                 double nnz_a, double nnz_b, const ParallelConfig& config,
                 ThreadPool* pool) {
  if (nnz_a <= 0.0 || nnz_b <= 0.0) return 0.0;
  const kernels::KernelTable& k = kernels::Active();
  const double acc = BlockedSum(
      pool, config, static_cast<int64_t>(u.size()),
      [&](int64_t lo, int64_t hi) {
        return k.dot_counts(u.data() + lo, v.data() + lo, hi - lo);
      });
  return acc / (nnz_a * nnz_b);
}

// PRNG stream identifiers for the parallel propagation overloads: the output
// hr vector rounds on stream 0, the output hc vector on stream 1.
constexpr uint64_t kStreamHr = 0;
constexpr uint64_t kStreamHc = 1;

// Eq. 15 staging of one output vector: `add` selects the union estimate
// (capped at `dim`, the other dimension), otherwise the intersection.
struct EWiseStage {
  const std::vector<int64_t>& u;
  const std::vector<int64_t>& v;
  double lambda;
  double dim;
  bool add;
  void operator()(int64_t lo, int64_t hi, double* est) const {
    const kernels::KernelTable& k = kernels::Active();
    if (add) {
      k.ewise_add_est(u.data() + lo, v.data() + lo, hi - lo, lambda, dim, est);
    } else {
      k.ewise_mult_est(u.data() + lo, v.data() + lo, hi - lo, lambda, est);
    }
  }
};

// Eq. 15 for both output vectors, on the caller's Rng (hr first).
MncSketch PropagateEWise(const MncSketch& a, const MncSketch& b, Rng& rng,
                         RoundingMode mode, bool add) {
  MNC_CHECK_EQ(a.rows(), b.rows());
  MNC_CHECK_EQ(a.cols(), b.cols());
  const double nnz_a = static_cast<double>(a.nnz());
  const double nnz_b = static_cast<double>(b.nnz());
  const double lambda_r = Lambda(a.hr(), b.hr(), nnz_a, nnz_b);
  const double lambda_c = Lambda(a.hc(), b.hc(), nnz_a, nnz_b);
  const double rows = static_cast<double>(a.rows());
  const double cols = static_cast<double>(a.cols());
  std::vector<int64_t> hr =
      RoundStaged(a.rows(), kNoCap, mode, rng,
                  EWiseStage{a.hr(), b.hr(), lambda_c, cols, add});
  std::vector<int64_t> hc =
      RoundStaged(a.cols(), kNoCap, mode, rng,
                  EWiseStage{a.hc(), b.hc(), lambda_r, rows, add});
  return MncSketch::FromCounts(a.rows(), a.cols(), std::move(hr),
                               std::move(hc));
}

// Eq. 15 on per-block PRNG streams (see RoundStagedPar).
MncSketch PropagateEWisePar(const MncSketch& a, const MncSketch& b,
                            uint64_t seed, const ParallelConfig& orig,
                            ThreadPool* pool, RoundingMode mode, bool add) {
  MNC_CHECK_EQ(a.rows(), b.rows());
  MNC_CHECK_EQ(a.cols(), b.cols());
  // Calibrated seq-vs-par dispatch (num_threads only; see PropagateProduct).
  const ParallelConfig config =
      orig.ForStage(TunedStage::kPropagate, a.rows() + a.cols());
  const double nnz_a = static_cast<double>(a.nnz());
  const double nnz_b = static_cast<double>(b.nnz());
  const double lambda_r = LambdaPar(a.hr(), b.hr(), nnz_a, nnz_b, config,
                                    pool);
  const double lambda_c = LambdaPar(a.hc(), b.hc(), nnz_a, nnz_b, config,
                                    pool);
  const double rows = static_cast<double>(a.rows());
  const double cols = static_cast<double>(a.cols());
  std::vector<int64_t> hr =
      RoundStagedPar(a.rows(), kNoCap, seed, kStreamHr, config, pool, mode,
                     EWiseStage{a.hr(), b.hr(), lambda_c, cols, add});
  std::vector<int64_t> hc =
      RoundStagedPar(a.cols(), kNoCap, seed, kStreamHc, config, pool, mode,
                     EWiseStage{a.hc(), b.hc(), lambda_r, rows, add});
  return MncSketch::FromCounts(a.rows(), a.cols(), std::move(hr),
                               std::move(hc));
}

}  // namespace

MncSketch PropagateProduct(const MncSketch& a, const MncSketch& b, Rng& rng,
                           bool basic, RoundingMode mode) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  if (!basic) {
    // Eq. 12: a fully diagonal square input leaves the other side unchanged.
    if (a.is_diagonal() && a.rows() == a.cols()) return b;
    if (b.is_diagonal() && b.rows() == b.cols()) return a;
  }
  const double nnz_c =
      basic ? EstimateProductNnzBasic(a, b) : EstimateProductNnz(a, b);
  auto scale = [&](const std::vector<int64_t>& counts, int64_t source_nnz,
                   int64_t cap) {
    if (source_nnz <= 0 || nnz_c <= 0.0) {
      return std::vector<int64_t>(counts.size(), 0);
    }
    return RoundStaged(static_cast<int64_t>(counts.size()), cap, mode, rng,
                       ScaleStage{counts, nnz_c / source_nnz});
  };
  std::vector<int64_t> hr = scale(a.hr(), a.nnz(), b.cols());
  std::vector<int64_t> hc = scale(b.hc(), b.nnz(), a.rows());
  return MncSketch::FromCounts(a.rows(), b.cols(), std::move(hr),
                               std::move(hc));
}

MncSketch PropagateProduct(const MncSketch& a, const MncSketch& b,
                           uint64_t seed, const ParallelConfig& config,
                           ThreadPool* pool, bool basic, RoundingMode mode) {
  MNC_CHECK_EQ(a.cols(), b.rows());
  if (!basic) {
    // Eq. 12: a fully diagonal square input leaves the other side unchanged.
    if (a.is_diagonal() && a.rows() == a.cols()) return b;
    if (b.is_diagonal() && b.rows() == b.cols()) return a;
  }
  const double nnz_c = basic ? EstimateProductNnzBasic(a, b, config, pool)
                             : EstimateProductNnz(a, b, config, pool);
  // Calibrated seq-vs-par dispatch (num_threads only, never the grain: the
  // per-block PRNG streams are keyed to the block layout, and one thread
  // runs the same blocks inline — bit-identical by the contract above).
  const ParallelConfig cfg =
      config.ForStage(TunedStage::kPropagate, a.rows() + b.cols());
  auto scale = [&](const std::vector<int64_t>& counts, int64_t source_nnz,
                   int64_t cap, uint64_t stream) {
    if (source_nnz <= 0 || nnz_c <= 0.0) {
      return std::vector<int64_t>(counts.size(), 0);
    }
    return RoundStagedPar(static_cast<int64_t>(counts.size()), cap, seed,
                          stream, cfg, pool, mode,
                          ScaleStage{counts, nnz_c / source_nnz});
  };
  std::vector<int64_t> hr = scale(a.hr(), a.nnz(), b.cols(), kStreamHr);
  std::vector<int64_t> hc = scale(b.hc(), b.nnz(), a.rows(), kStreamHc);
  return MncSketch::FromCounts(a.rows(), b.cols(), std::move(hr),
                               std::move(hc));
}

MncSketch PropagateEWiseAdd(const MncSketch& a, const MncSketch& b, Rng& rng,
                            RoundingMode mode) {
  return PropagateEWise(a, b, rng, mode, /*add=*/true);
}

MncSketch PropagateEWiseMult(const MncSketch& a, const MncSketch& b, Rng& rng,
                             RoundingMode mode) {
  return PropagateEWise(a, b, rng, mode, /*add=*/false);
}

MncSketch PropagateEWiseAdd(const MncSketch& a, const MncSketch& b,
                            uint64_t seed, const ParallelConfig& config,
                            ThreadPool* pool, RoundingMode mode) {
  return PropagateEWisePar(a, b, seed, config, pool, mode, /*add=*/true);
}

MncSketch PropagateEWiseMult(const MncSketch& a, const MncSketch& b,
                             uint64_t seed, const ParallelConfig& config,
                             ThreadPool* pool, RoundingMode mode) {
  return PropagateEWisePar(a, b, seed, config, pool, mode, /*add=*/false);
}

MncSketch PropagateTranspose(const MncSketch& a) {
  return MncSketch::FromCountsExtended(a.cols(), a.rows(), a.hc(), a.hr(),
                                       a.hec(), a.her(), a.is_diagonal());
}

MncSketch PropagateNotEqualZero(const MncSketch& a) { return a; }

MncSketch PropagateEqualZero(const MncSketch& a) {
  std::vector<int64_t> hr(a.hr().size());
  for (size_t i = 0; i < hr.size(); ++i) hr[i] = a.cols() - a.hr()[i];
  std::vector<int64_t> hc(a.hc().size());
  for (size_t j = 0; j < hc.size(); ++j) hc[j] = a.rows() - a.hc()[j];
  return MncSketch::FromCounts(a.rows(), a.cols(), std::move(hr),
                               std::move(hc));
}

MncSketch PropagateRBind(const MncSketch& a, const MncSketch& b) {
  MNC_CHECK_EQ(a.cols(), b.cols());
  std::vector<int64_t> hr = a.hr();
  hr.insert(hr.end(), b.hr().begin(), b.hr().end());
  std::vector<int64_t> hc(a.hc().size());
  for (size_t j = 0; j < hc.size(); ++j) hc[j] = a.hc()[j] + b.hc()[j];
  // her is invalidated (single-nnz columns may gain entries); hec adds
  // exactly because row counts are untouched (Eq. 14).
  std::vector<int64_t> hec;
  if (!a.hec().empty() && !b.hec().empty()) {
    hec.resize(a.hec().size());
    for (size_t j = 0; j < hec.size(); ++j) hec[j] = a.hec()[j] + b.hec()[j];
  }
  return MncSketch::FromCountsExtended(a.rows() + b.rows(), a.cols(),
                                       std::move(hr), std::move(hc),
                                       /*her=*/{}, std::move(hec));
}

MncSketch PropagateCBind(const MncSketch& a, const MncSketch& b) {
  MNC_CHECK_EQ(a.rows(), b.rows());
  std::vector<int64_t> hc = a.hc();
  hc.insert(hc.end(), b.hc().begin(), b.hc().end());
  std::vector<int64_t> hr(a.hr().size());
  for (size_t i = 0; i < hr.size(); ++i) hr[i] = a.hr()[i] + b.hr()[i];
  std::vector<int64_t> her;
  if (!a.her().empty() && !b.her().empty()) {
    her.resize(a.her().size());
    for (size_t i = 0; i < her.size(); ++i) her[i] = a.her()[i] + b.her()[i];
  }
  return MncSketch::FromCountsExtended(a.rows(), a.cols() + b.cols(),
                                       std::move(hr), std::move(hc),
                                       std::move(her), /*hec=*/{});
}

MncSketch PropagateDiag(const MncSketch& a, Rng& rng, RoundingMode mode) {
  if (a.cols() == 1) {
    // Vector -> diagonal matrix: every count vector equals the vector's 0/1
    // row counts (Eq. 14), and the result is fully diagonal iff the vector
    // is fully dense.
    const bool full = a.nnz() == a.rows();
    return MncSketch::FromCountsExtended(a.rows(), a.rows(), a.hr(), a.hr(),
                                         a.hr(), a.hr(), full);
  }
  // Matrix -> vector of its diagonal: best-effort, assuming row non-zeros
  // are uniformly placed: P(A_ii != 0) ~ hr_i / n.
  MNC_CHECK_EQ(a.rows(), a.cols());
  std::vector<int64_t> hr(a.hr().size());
  int64_t total = 0;
  for (size_t i = 0; i < hr.size(); ++i) {
    const double p =
        static_cast<double>(a.hr()[i]) / static_cast<double>(a.cols());
    hr[i] = RoundCount(std::min(p, 1.0), mode, rng);
    total += hr[i];
  }
  std::vector<int64_t> hc = {total};
  return MncSketch::FromCounts(a.rows(), 1, std::move(hr), std::move(hc));
}

MncSketch PropagateScale(const MncSketch& a) { return a; }

MncSketch PropagateRowSums(const MncSketch& a) {
  std::vector<int64_t> hr(a.hr().size());
  int64_t non_empty = 0;
  for (size_t i = 0; i < hr.size(); ++i) {
    hr[i] = a.hr()[i] > 0 ? 1 : 0;
    non_empty += hr[i];
  }
  std::vector<int64_t> hc = {non_empty};
  return MncSketch::FromCounts(a.rows(), 1, std::move(hr), std::move(hc));
}

MncSketch PropagateColSums(const MncSketch& a) {
  std::vector<int64_t> hc(a.hc().size());
  int64_t non_empty = 0;
  for (size_t j = 0; j < hc.size(); ++j) {
    hc[j] = a.hc()[j] > 0 ? 1 : 0;
    non_empty += hc[j];
  }
  std::vector<int64_t> hr = {non_empty};
  return MncSketch::FromCounts(1, a.cols(), std::move(hr), std::move(hc));
}

MncSketch PropagateReshape(const MncSketch& a, int64_t k, int64_t l, Rng& rng,
                           RoundingMode mode) {
  MNC_CHECK_EQ(a.rows() * a.cols(), k * l);
  if (k == a.rows()) return a;

  std::vector<int64_t> hr(static_cast<size_t>(k), 0);
  std::vector<int64_t> hc(static_cast<size_t>(l), 0);
  if (a.rows() % k == 0) {
    // Merging rows: groups of m/k consecutive input rows concatenate into
    // one output row; row counts aggregate exactly, column counts are
    // scaled and replicated (§4.2).
    const int64_t group = a.rows() / k;
    for (int64_t i = 0; i < a.rows(); ++i) {
      hr[static_cast<size_t>(i / group)] += a.hr()[static_cast<size_t>(i)];
    }
    for (int64_t c = 0; c < l; ++c) {
      const int64_t j = c % a.cols();
      const double est = static_cast<double>(a.hc()[static_cast<size_t>(j)]) /
                         static_cast<double>(group);
      hc[static_cast<size_t>(c)] = std::clamp<int64_t>(
          RoundCount(est, mode, rng), 0, k);
    }
  } else if (k % a.rows() == 0) {
    // Splitting rows: each input row spreads over k/m output rows; column
    // counts aggregate exactly, row counts are scaled.
    const int64_t split = k / a.rows();
    for (int64_t r = 0; r < k; ++r) {
      const double est =
          static_cast<double>(a.hr()[static_cast<size_t>(r / split)]) /
          static_cast<double>(split);
      hr[static_cast<size_t>(r)] =
          std::clamp<int64_t>(RoundCount(est, mode, rng), 0, l);
    }
    for (int64_t j = 0; j < a.cols(); ++j) {
      hc[static_cast<size_t>(j % l)] += a.hc()[static_cast<size_t>(j)];
    }
  } else {
    // General fallback: uniform redistribution of the total count.
    const double nnz = static_cast<double>(a.nnz());
    for (int64_t r = 0; r < k; ++r) {
      hr[static_cast<size_t>(r)] = std::clamp<int64_t>(
          RoundCount(nnz / static_cast<double>(k), mode, rng), 0, l);
    }
    for (int64_t c = 0; c < l; ++c) {
      hc[static_cast<size_t>(c)] = std::clamp<int64_t>(
          RoundCount(nnz / static_cast<double>(l), mode, rng), 0, k);
    }
  }
  return MncSketch::FromCounts(k, l, std::move(hr), std::move(hc));
}

}  // namespace mnc
