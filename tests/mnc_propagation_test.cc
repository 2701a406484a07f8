#include "mnc/core/mnc_propagation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "mnc/core/mnc_estimator.h"

#include "mnc/matrix/coo_matrix.h"
#include "mnc/matrix/generate.h"
#include "mnc/matrix/ops_ewise.h"
#include "mnc/matrix/ops_product.h"
#include "mnc/matrix/ops_reorg.h"
#include "mnc/sparsest/metrics.h"
#include "mnc/util/parallel.h"
#include "mnc/util/random.h"
#include "mnc/util/thread_pool.h"

namespace mnc {
namespace {

TEST(ProbabilisticRoundTest, IntegerIsIdentity) {
  Rng rng(1);
  EXPECT_EQ(ProbabilisticRound(3.0, rng), 3);
  EXPECT_EQ(ProbabilisticRound(0.0, rng), 0);
}

TEST(ProbabilisticRoundTest, Unbiased) {
  Rng rng(2);
  // E[round(0.4)] = 0.4 — the motivating example of §3.3: deterministic
  // rounding of 0.4 to 0 would predict an empty intermediate.
  int64_t total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += ProbabilisticRound(0.4, rng);
  EXPECT_NEAR(static_cast<double>(total) / n, 0.4, 0.02);
}

TEST(ProbabilisticRoundTest, BoundedByFloorCeil) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const int64_t r = ProbabilisticRound(2.7, rng);
    EXPECT_TRUE(r == 2 || r == 3);
  }
}

TEST(ProbabilisticRoundTest, DeterministicModeRoundsHalfUp) {
  Rng rng(4);
  EXPECT_EQ(RoundCount(0.4, RoundingMode::kDeterministic, rng), 0);
  EXPECT_EQ(RoundCount(0.6, RoundingMode::kDeterministic, rng), 1);
  EXPECT_EQ(RoundCount(3.0, RoundingMode::kDeterministic, rng), 3);
}

TEST(ProbabilisticRoundTest, DeterministicPropagationCollapsesSparseChain) {
  // The §3.3 motivating example: all scaled row counts land at 0.4, so
  // deterministic rounding predicts an empty intermediate while
  // probabilistic rounding preserves the expected mass.
  Rng rng(5);
  // A with exactly one non-zero per row; B tuned so nnz(AB)/nnz(A) = 0.4.
  ZipfDistribution dist(50, 0.0);
  CsrMatrix a = GenerateOneNnzPerRow(100, 50, dist, rng);
  // Fake target: scale counts via sketches directly.
  MncSketch ha = MncSketch::FromCsr(a);
  std::vector<int64_t> hr_b(50, 0);
  // 20 non-empty rows of B with one non-zero -> estimated product nnz 40%.
  for (int i = 0; i < 20; ++i) hr_b[static_cast<size_t>(i)] = 1;
  std::vector<int64_t> hc_b(60, 0);
  for (int i = 0; i < 20; ++i) hc_b[static_cast<size_t>(i)] = 1;
  MncSketch hb = MncSketch::FromCounts(50, 60, std::move(hr_b),
                                       std::move(hc_b));

  MncSketch det = PropagateProduct(ha, hb, rng, /*basic=*/false,
                                   RoundingMode::kDeterministic);
  MncSketch prob = PropagateProduct(ha, hb, rng, /*basic=*/false,
                                    RoundingMode::kProbabilistic);
  // Scaled per-row counts are ~0.4 for every occupied row: deterministic
  // rounding zeroes them all out.
  EXPECT_EQ(det.nnz(), 0);
  EXPECT_GT(prob.nnz(), 0);
}

TEST(PropagationTest, DiagonalShortCircuitIsExact) {
  // Eq. 12: diag(d) X propagates X's sketch verbatim.
  Rng rng(4);
  CsrMatrix d = GenerateDiagonal(30, rng);
  CsrMatrix x = GenerateUniformSparse(30, 20, 0.2, rng);
  MncSketch hd = MncSketch::FromCsr(d);
  MncSketch hx = MncSketch::FromCsr(x);
  MncSketch hc = PropagateProduct(hd, hx, rng);
  EXPECT_EQ(hc.hr(), hx.hr());
  EXPECT_EQ(hc.hc(), hx.hc());
  // And symmetrically X diag(d).
  CsrMatrix d2 = GenerateDiagonal(20, rng);
  MncSketch hc2 = PropagateProduct(hx, MncSketch::FromCsr(d2), rng);
  EXPECT_EQ(hc2.hr(), hx.hr());
}

TEST(PropagationTest, ProductSketchTotalsMatchEstimate) {
  Rng rng(5);
  CsrMatrix a = GenerateUniformSparse(60, 50, 0.1, rng);
  CsrMatrix b = GenerateUniformSparse(50, 40, 0.1, rng);
  MncSketch ha = MncSketch::FromCsr(a);
  MncSketch hb = MncSketch::FromCsr(b);
  MncSketch hc = PropagateProduct(ha, hb, rng);
  EXPECT_EQ(hc.rows(), 60);
  EXPECT_EQ(hc.cols(), 40);
  // Probabilistic rounding keeps the total near the scalar estimate.
  const double est = EstimateProductNnz(ha, hb);
  EXPECT_NEAR(static_cast<double>(hc.nnz()), est, 0.25 * est + 5.0);
}

TEST(PropagationTest, TransposeExact) {
  Rng rng(6);
  CsrMatrix a = GenerateUniformSparse(25, 35, 0.15, rng);
  MncSketch h = MncSketch::FromCsr(a);
  MncSketch ht = PropagateTranspose(h);
  MncSketch expected = MncSketch::FromCsr(TransposeSparse(a));
  EXPECT_EQ(ht.hr(), expected.hr());
  EXPECT_EQ(ht.hc(), expected.hc());
  EXPECT_EQ(ht.her(), expected.her());
  EXPECT_EQ(ht.hec(), expected.hec());
}

TEST(PropagationTest, NotEqualZeroIdentity) {
  Rng rng(7);
  CsrMatrix a = GenerateUniformSparse(20, 20, 0.2, rng);
  MncSketch h = MncSketch::FromCsr(a);
  MncSketch hn = PropagateNotEqualZero(h);
  EXPECT_EQ(hn.hr(), h.hr());
  EXPECT_EQ(hn.hc(), h.hc());
}

TEST(PropagationTest, EqualZeroComplement) {
  Rng rng(8);
  CsrMatrix a = GenerateUniformSparse(20, 30, 0.2, rng);
  MncSketch h = PropagateEqualZero(MncSketch::FromCsr(a));
  MncSketch expected =
      MncSketch::FromMatrix(EqualZero(Matrix::Sparse(a)));
  EXPECT_EQ(h.hr(), expected.hr());
  EXPECT_EQ(h.hc(), expected.hc());
}

TEST(PropagationTest, RBindExact) {
  Rng rng(9);
  CsrMatrix a = GenerateUniformSparse(12, 20, 0.2, rng);
  CsrMatrix b = GenerateUniformSparse(8, 20, 0.3, rng);
  MncSketch h = PropagateRBind(MncSketch::FromCsr(a), MncSketch::FromCsr(b));
  MncSketch expected = MncSketch::FromCsr(RBindSparse(a, b));
  EXPECT_EQ(h.hr(), expected.hr());
  EXPECT_EQ(h.hc(), expected.hc());
  // hec adds exactly (Eq. 14).
  if (!h.hec().empty()) {
    EXPECT_EQ(h.hec(), expected.hec());
  }
  // her is dropped (invalidated by concatenation).
  EXPECT_TRUE(h.her().empty());
}

TEST(PropagationTest, CBindExact) {
  Rng rng(10);
  CsrMatrix a = GenerateUniformSparse(15, 10, 0.2, rng);
  CsrMatrix b = GenerateUniformSparse(15, 6, 0.3, rng);
  MncSketch h = PropagateCBind(MncSketch::FromCsr(a), MncSketch::FromCsr(b));
  MncSketch expected = MncSketch::FromCsr(CBindSparse(a, b));
  EXPECT_EQ(h.hr(), expected.hr());
  EXPECT_EQ(h.hc(), expected.hc());
  if (!h.her().empty()) {
    EXPECT_EQ(h.her(), expected.her());
  }
  EXPECT_TRUE(h.hec().empty());
}

TEST(PropagationTest, DiagVectorExact) {
  Rng rng(11);
  CsrMatrix v = GenerateUniformSparse(25, 1, 0.4, rng);
  MncSketch h = PropagateDiag(MncSketch::FromCsr(v), rng);
  MncSketch expected = MncSketch::FromCsr(DiagVectorToMatrix(v));
  EXPECT_EQ(h.hr(), expected.hr());
  EXPECT_EQ(h.hc(), expected.hc());
  EXPECT_EQ(h.nnz(), v.NumNonZeros());
}

TEST(PropagationTest, DiagFullVectorSetsDiagonalFlag) {
  Rng rng(12);
  CsrMatrix v = CsrMatrix::FromDense(GenerateDense(10, 1, rng));
  MncSketch h = PropagateDiag(MncSketch::FromCsr(v), rng);
  EXPECT_TRUE(h.is_diagonal());
}

TEST(PropagationTest, ReshapeMergeRowsExactRowCounts) {
  Rng rng(13);
  CsrMatrix a = GenerateUniformSparse(20, 6, 0.3, rng);
  MncSketch h = PropagateReshape(MncSketch::FromCsr(a), 4, 30, rng);
  MncSketch expected = MncSketch::FromCsr(ReshapeSparse(a, 4, 30));
  // Row counts aggregate exactly when merging rows.
  EXPECT_EQ(h.hr(), expected.hr());
  EXPECT_EQ(h.nnz(), expected.nnz());
}

TEST(PropagationTest, ReshapeSplitRowsExactColCounts) {
  Rng rng(14);
  CsrMatrix a = GenerateUniformSparse(5, 24, 0.3, rng);
  MncSketch h = PropagateReshape(MncSketch::FromCsr(a), 20, 6, rng);
  MncSketch expected = MncSketch::FromCsr(ReshapeSparse(a, 20, 6));
  EXPECT_EQ(h.hc(), expected.hc());
}

TEST(PropagationTest, EWisePropagationMatchesScalarEstimates) {
  Rng rng(15);
  CsrMatrix a = GenerateUniformSparse(50, 40, 0.2, rng);
  CsrMatrix b = GenerateUniformSparse(50, 40, 0.25, rng);
  MncSketch ha = MncSketch::FromCsr(a);
  MncSketch hb = MncSketch::FromCsr(b);

  MncSketch mult = PropagateEWiseMult(ha, hb, rng);
  EXPECT_NEAR(static_cast<double>(mult.nnz()),
              EstimateEWiseMultNnz(ha, hb),
              0.25 * EstimateEWiseMultNnz(ha, hb) + 5.0);

  MncSketch add = PropagateEWiseAdd(ha, hb, rng);
  EXPECT_NEAR(static_cast<double>(add.nnz()), EstimateEWiseAddNnz(ha, hb),
              0.1 * EstimateEWiseAddNnz(ha, hb) + 5.0);
}

// The per-element rounding loop RoundInto replaced, kept as the oracle:
// floor + Bernoulli(frac) (or llround), then clamp to [0, cap], drawing in
// index order.
int64_t ScalarLoopRound(double x, RoundingMode mode, Rng& rng) {
  if (mode == RoundingMode::kDeterministic) {
    return static_cast<int64_t>(std::llround(x));
  }
  const double fl = std::floor(x);
  return static_cast<int64_t>(fl) + (rng.Bernoulli(x - fl) ? 1 : 0);
}

std::vector<int64_t> ScalarLoop(const std::vector<double>& est, int64_t cap,
                                RoundingMode mode, Rng& rng) {
  std::vector<int64_t> out(est.size());
  for (size_t i = 0; i < est.size(); ++i) {
    out[i] = std::clamp<int64_t>(ScalarLoopRound(est[i], mode, rng), 0, cap);
  }
  return out;
}

std::vector<int64_t> Fused(const std::vector<double>& est, int64_t cap,
                           RoundingMode mode, Rng& rng) {
  std::vector<int64_t> out(est.size(), -1);
  RoundInto(est.data(), static_cast<int64_t>(est.size()), cap, mode, rng,
            out.data());
  return out;
}

// Zeros, exact integers, fractions, values above cap and (when `huge`)
// values at or above 2^52, interleaved at random.
std::vector<double> MixedEstimates(size_t n, int64_t cap, bool huge,
                                   Rng& gen) {
  std::vector<double> est(n);
  const double span = std::min(static_cast<double>(cap), 1e6) + 3.0;
  for (double& x : est) {
    switch (gen.UniformInt(huge ? 6 : 5)) {
      case 0: x = 0.0; break;
      case 1: x = static_cast<double>(gen.UniformInt(40)); break;
      case 2: x = gen.Uniform(0.0, 1.0); break;
      case 3: x = gen.Uniform(0.0, span); break;
      case 4: x = span + gen.Uniform(0.0, span); break;
      default: x = 0x1p52 * (1.0 + gen.Uniform(0.0, 255.0)); break;
    }
  }
  return est;
}

TEST(PropagationRoundingTest, FusedMatchesScalarLoop) {
  const int64_t kNoCap = std::numeric_limits<int64_t>::max();
  struct Case {
    int64_t cap;
    bool huge;  // int64(x) for x >= 2^52 equals the fused 2^52 only up to a
                // cap <= 2^52
  };
  const Case cases[] = {{0, true},    {1, true},          {7, true},
                        {1000, true}, {int64_t{1} << 52, true},
                        {kNoCap, false}};
  const size_t lengths[] = {0, 1, 2, 3, 1023, 1024, 1025, 2047, 2048, 2049};
  Rng gen(17);
  for (const RoundingMode mode :
       {RoundingMode::kProbabilistic, RoundingMode::kDeterministic}) {
    for (const Case& c : cases) {
      for (const size_t n : lengths) {
        const std::vector<double> est = MixedEstimates(n, c.cap, c.huge, gen);
        const uint64_t seed = gen.Next();
        Rng oracle_rng(seed);
        Rng fused_rng(seed);
        EXPECT_EQ(Fused(est, c.cap, mode, fused_rng),
                  ScalarLoop(est, c.cap, mode, oracle_rng))
            << "cap=" << c.cap << " n=" << n;
        // Same number of draws consumed.
        EXPECT_EQ(fused_rng.Next(), oracle_rng.Next())
            << "cap=" << c.cap << " n=" << n;
      }
    }
  }
}

TEST(PropagationRoundingTest, ScalarApiTakesTheSameStep) {
  // RoundCount element by element, then min(cap), is the vector routine.
  Rng gen(18);
  for (const RoundingMode mode :
       {RoundingMode::kProbabilistic, RoundingMode::kDeterministic}) {
    const int64_t cap = 900;
    const std::vector<double> est = MixedEstimates(3000, cap, true, gen);
    Rng scalar_rng(5);
    Rng fused_rng(5);
    std::vector<int64_t> scalar(est.size());
    for (size_t i = 0; i < est.size(); ++i) {
      scalar[i] = std::min(RoundCount(est[i], mode, scalar_rng), cap);
    }
    EXPECT_EQ(Fused(est, cap, mode, fused_rng), scalar);
    EXPECT_EQ(fused_rng.Next(), scalar_rng.Next());
  }
  // Above 2^52 a double has no fraction: no draw, and the value truncates
  // to 2^52.
  Rng rng(6);
  Rng untouched(6);
  EXPECT_EQ(ProbabilisticRound(0x1p60, rng), int64_t{1} << 52);
  EXPECT_EQ(ProbabilisticRound(0x1p52, rng), int64_t{1} << 52);
  EXPECT_EQ(rng.Next(), untouched.Next());
}

TEST(PropagationRoundingTest, ParOverloadsMatchBlockOracleAtAnyThreadCount) {
  // Dimensions straddle the 1024-entry blocks that key the PRNG streams.
  Rng gen(19);
  const MncSketch a =
      MncSketch::FromCsr(GenerateUniformSparse(2049, 3100, 0.002, gen));
  const MncSketch b =
      MncSketch::FromCsr(GenerateUniformSparse(3100, 1025, 0.003, gen));
  const MncSketch c =
      MncSketch::FromCsr(GenerateUniformSparse(2049, 3100, 0.004, gen));
  const uint64_t seed = 23;
  ThreadPool pool(7);
  for (const RoundingMode mode :
       {RoundingMode::kProbabilistic, RoundingMode::kDeterministic}) {
    ParallelConfig one;
    one.num_threads = 1;
    const MncSketch product = PropagateProduct(a, b, seed, one, &pool,
                                               /*basic=*/false, mode);
    const MncSketch add = PropagateEWiseAdd(a, c, seed, one, &pool, mode);
    const MncSketch mult = PropagateEWiseMult(a, c, seed, one, &pool, mode);

    // Eq. 11 oracle: block k of the hr (stream 0) or hc (stream 1) vector
    // rounds with Rng(MixSeed(MixSeed(seed, stream), k)) in index order.
    const double nnz_c = EstimateProductNnz(a, b, one, &pool);
    auto oracle = [&](const std::vector<int64_t>& counts, double source_nnz,
                      int64_t cap, uint64_t stream) {
      std::vector<int64_t> out;
      const size_t block = static_cast<size_t>(one.min_rows_per_task);
      for (size_t lo = 0; lo < counts.size(); lo += block) {
        Rng rng(MixSeed(MixSeed(seed, stream), lo / block));
        std::vector<double> est;
        for (size_t i = lo; i < std::min(counts.size(), lo + block); ++i) {
          est.push_back(static_cast<double>(counts[i]) *
                        (nnz_c / source_nnz));
        }
        const std::vector<int64_t> part = ScalarLoop(est, cap, mode, rng);
        out.insert(out.end(), part.begin(), part.end());
      }
      return out;
    };
    EXPECT_EQ(product.hr(),
              oracle(a.hr(), static_cast<double>(a.nnz()), b.cols(), 0));
    EXPECT_EQ(product.hc(),
              oracle(b.hc(), static_cast<double>(b.nnz()), a.rows(), 1));

    for (const int threads : {2, 7}) {
      ParallelConfig par;
      par.num_threads = threads;
      const MncSketch p = PropagateProduct(a, b, seed, par, &pool,
                                           /*basic=*/false, mode);
      EXPECT_EQ(p.hr(), product.hr()) << threads;
      EXPECT_EQ(p.hc(), product.hc()) << threads;
      const MncSketch s = PropagateEWiseAdd(a, c, seed, par, &pool, mode);
      EXPECT_EQ(s.hr(), add.hr()) << threads;
      EXPECT_EQ(s.hc(), add.hc()) << threads;
      const MncSketch m = PropagateEWiseMult(a, c, seed, par, &pool, mode);
      EXPECT_EQ(m.hr(), mult.hr()) << threads;
      EXPECT_EQ(m.hc(), mult.hc()) << threads;
    }
  }
}

// Chain-propagation accuracy property: two-hop product chains estimated via
// propagated sketches stay within a reasonable relative error.
class ChainPropagationTest : public ::testing::TestWithParam<double> {};

TEST_P(ChainPropagationTest, TwoHopChainEstimate) {
  Rng rng(16);
  const double s = GetParam();
  CsrMatrix a = GenerateUniformSparse(80, 80, s, rng);
  CsrMatrix b = GenerateUniformSparse(80, 80, s, rng);
  CsrMatrix c = GenerateUniformSparse(80, 80, s, rng);

  MncSketch hab = PropagateProduct(MncSketch::FromCsr(a),
                                   MncSketch::FromCsr(b), rng);
  const double est =
      EstimateProductSparsity(hab, MncSketch::FromCsr(c));
  const CsrMatrix abc = MultiplySparseSparse(MultiplySparseSparse(a, b), c);
  const double truth = abc.Sparsity();
  if (truth > 0) {
    EXPECT_LT(RelativeError(est, truth), 2.5)
        << "est=" << est << " truth=" << truth;
  }
}

INSTANTIATE_TEST_SUITE_P(Sparsities, ChainPropagationTest,
                         ::testing::Values(0.02, 0.05, 0.1, 0.2));

}  // namespace
}  // namespace mnc
