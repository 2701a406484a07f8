// Property-based differential tests for the parallel kernels (see
// differential_harness.h for the generators).
//
// Three families of properties over seeded random inputs:
//   (a) parallel == sequential: in deterministic mode every parallel kernel
//       (sketch construction, Algorithm 1, Eq. 11/15 propagation, SpGEMM)
//       produces bit-identical results at 1, 2 and 7 threads — and the
//       bit-exact kernels (sketch build, SpGEMM) also match the legacy
//       sequential implementations exactly;
//   (b) Theorem 3.2: the exact product nnz (pattern SpGEMM ground truth)
//       lies within the estimator's lower/upper bounds;
//   (c) Theorem 3.1 and structural exactness: single-nnz-row inputs,
//       permutations and diagonals estimate exactly; and sketch IO v2
//       round-trips every generated sketch bit-for-bit.
//   (e) sketch-guided execution: per-row Theorem 3.2 upper bounds dominate
//       the exact per-row SpGEMM pattern counts (with per-row Theorem 3.1
//       exactness on the structured archetypes), and guided DAG evaluation
//       reproduces the blind evaluator bit-for-bit, sequential and pooled.
//
// Runs under ASan and TSan in CI (debug-asan-ubsan and debug-tsan jobs).

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "differential_harness.h"
#include "mnc/core/mnc_estimator.h"
#include "mnc/core/mnc_propagation.h"
#include "mnc/core/row_estimates.h"
#include "mnc/estimators/bitset_estimator.h"
#include "mnc/ingest/stream_sketch.h"
#include "mnc/ingest/triplet_source.h"
#include "mnc/ir/evaluator.h"
#include "mnc/matrix/io.h"
#include "mnc/matrix/ops_product.h"
#include "mnc/service/estimation_service.h"
#include "mnc/tuning/machine_profile.h"
#include "mnc/util/thread_pool.h"

namespace mnc {
namespace {

using difftest::CsrBitIdentical;
using difftest::HarnessConfig;
using difftest::MakeLeaf;
using difftest::RandomDim;
using difftest::RandomLeaf;
using difftest::RandomSketch;
using difftest::RoundTripsExactly;
using difftest::SketchesBitIdentical;

// Thread counts for the cross-check; 1 exercises the inline blocked path,
// which must agree bit-for-bit with the pooled runs.
const int kThreadCounts[] = {1, 2, 7};

class DifferentialHarnessTest : public ::testing::TestWithParam<int> {
 protected:
  uint64_t Seed() const { return static_cast<uint64_t>(GetParam()); }
};

TEST_P(DifferentialHarnessTest, ParallelSketchBuildMatchesSequential) {
  Rng rng(Seed() * 1009 + 1);
  ThreadPool pool(4);
  for (int round = 0; round < 4; ++round) {
    const CsrMatrix m = RandomLeaf(rng, RandomDim(rng));
    const MncSketch sequential = MncSketch::FromCsr(m);
    for (int threads : kThreadCounts) {
      const MncSketch parallel =
          MncSketch::FromCsr(m, HarnessConfig(threads), &pool);
      EXPECT_TRUE(SketchesBitIdentical(sequential, parallel))
          << "threads=" << threads << " round=" << round;
    }
  }
}

TEST_P(DifferentialHarnessTest, Alg1BitIdenticalAcrossThreadCounts) {
  Rng rng(Seed() * 2003 + 5);
  ThreadPool pool(4);
  const int64_t dim = RandomDim(rng);
  const MncSketch a = MncSketch::FromCsr(RandomLeaf(rng, dim));
  const MncSketch b = MncSketch::FromCsr(RandomLeaf(rng, dim));

  const double reference =
      EstimateProductNnz(a, b, HarnessConfig(1), nullptr);
  const double reference_basic =
      EstimateProductNnzBasic(a, b, HarnessConfig(1), nullptr);
  for (int threads : kThreadCounts) {
    const ParallelConfig config = HarnessConfig(threads);
    EXPECT_EQ(reference, EstimateProductNnz(a, b, config, &pool))
        << "threads=" << threads;
    EXPECT_EQ(reference_basic, EstimateProductNnzBasic(a, b, config, &pool))
        << "threads=" << threads;
  }

  // The blocked reduction may differ from the scalar path only in float
  // association — never beyond a relative epsilon.
  const double scalar = EstimateProductNnz(a, b);
  EXPECT_NEAR(reference, scalar, 1e-9 * (1.0 + std::abs(scalar)));
}

TEST_P(DifferentialHarnessTest, PropagationBitIdenticalAcrossThreadCounts) {
  Rng rng(Seed() * 3001 + 11);
  ThreadPool pool(4);
  const int64_t dim = RandomDim(rng);
  const MncSketch a = MncSketch::FromCsr(RandomLeaf(rng, dim));
  const MncSketch b = MncSketch::FromCsr(RandomLeaf(rng, dim));
  const uint64_t prop_seed = Seed() ^ 0x5bd1e995u;

  const MncSketch product_ref =
      PropagateProduct(a, b, prop_seed, HarnessConfig(1), nullptr);
  const MncSketch add_ref =
      PropagateEWiseAdd(a, b, prop_seed, HarnessConfig(1), nullptr);
  const MncSketch mult_ref =
      PropagateEWiseMult(a, b, prop_seed, HarnessConfig(1), nullptr);
  for (int threads : kThreadCounts) {
    const ParallelConfig config = HarnessConfig(threads);
    EXPECT_TRUE(SketchesBitIdentical(
        product_ref, PropagateProduct(a, b, prop_seed, config, &pool)))
        << "product threads=" << threads;
    EXPECT_TRUE(SketchesBitIdentical(
        add_ref, PropagateEWiseAdd(a, b, prop_seed, config, &pool)))
        << "ewise-add threads=" << threads;
    EXPECT_TRUE(SketchesBitIdentical(
        mult_ref, PropagateEWiseMult(a, b, prop_seed, config, &pool)))
        << "ewise-mult threads=" << threads;
  }
}

TEST_P(DifferentialHarnessTest, SpGemmBitIdenticalToSequential) {
  Rng rng(Seed() * 4001 + 17);
  ThreadPool pool(4);
  const int64_t dim = RandomDim(rng);
  const CsrMatrix a = RandomLeaf(rng, dim);
  const CsrMatrix b = RandomLeaf(rng, dim);

  const CsrMatrix sequential = MultiplySparseSparse(a, b);
  const int64_t exact_nnz = ProductNnzExact(a, b);
  for (int threads : kThreadCounts) {
    const ParallelConfig config = HarnessConfig(threads);
    const CsrMatrix parallel = MultiplySparseSparse(a, b, config, &pool);
    EXPECT_TRUE(CsrBitIdentical(sequential, parallel))
        << "threads=" << threads;
    EXPECT_EQ(exact_nnz, ProductNnzExact(a, b, config, &pool))
        << "threads=" << threads;
  }
}

TEST_P(DifferentialHarnessTest, Theorem32BoundsHoldAgainstExactNnz) {
  Rng rng(Seed() * 5003 + 23);
  ThreadPool pool(4);
  for (int round = 0; round < 4; ++round) {
    const int64_t dim = RandomDim(rng);
    const CsrMatrix ma = RandomLeaf(rng, dim);
    const CsrMatrix mb = RandomLeaf(rng, dim);
    const MncSketch a = MncSketch::FromCsr(ma);
    const MncSketch b = MncSketch::FromCsr(mb);

    const double exact = static_cast<double>(ProductNnzExact(ma, mb));
    const double lower = static_cast<double>(a.half_full_rows()) *
                         static_cast<double>(b.half_full_cols());
    const double upper =
        std::min(static_cast<double>(a.rows()) * static_cast<double>(b.cols()),
                 static_cast<double>(a.non_empty_rows()) *
                     static_cast<double>(b.non_empty_cols()));
    EXPECT_LE(lower, exact) << "round=" << round;
    EXPECT_LE(exact, upper) << "round=" << round;

    // The estimator clamps into the same interval — sequential and parallel.
    const double estimate = EstimateProductNnz(a, b);
    EXPECT_GE(estimate, lower) << "round=" << round;
    EXPECT_LE(estimate, upper) << "round=" << round;
    const double par_estimate =
        EstimateProductNnz(a, b, HarnessConfig(2), &pool);
    EXPECT_GE(par_estimate, lower) << "round=" << round;
    EXPECT_LE(par_estimate, upper) << "round=" << round;
  }
}

TEST_P(DifferentialHarnessTest, Theorem31CasesEstimateExactly) {
  Rng rng(Seed() * 6007 + 29);
  ThreadPool pool(4);
  const int64_t dim = RandomDim(rng);

  // Left operands with max_hr <= 1 (A1 of Theorem 3.1) — and permutation /
  // diagonal inputs, which additionally have max_hc <= 1.
  const difftest::Archetype exact_kinds[] = {
      difftest::Archetype::kOneNnzPerRow, difftest::Archetype::kPermutation,
      difftest::Archetype::kDiagonal, difftest::Archetype::kEmpty};
  for (difftest::Archetype kind : exact_kinds) {
    const CsrMatrix ma = MakeLeaf(kind, dim, rng);
    const CsrMatrix mb = RandomLeaf(rng, dim);
    const MncSketch a = MncSketch::FromCsr(ma);
    const MncSketch b = MncSketch::FromCsr(mb);
    ASSERT_LE(a.max_hr(), 1);

    const double exact = static_cast<double>(ProductNnzExact(ma, mb));
    EXPECT_DOUBLE_EQ(exact, EstimateProductNnz(a, b))
        << "kind=" << static_cast<int>(kind);
    EXPECT_DOUBLE_EQ(exact, EstimateProductNnz(a, b, HarnessConfig(2), &pool))
        << "kind=" << static_cast<int>(kind);

    // A2 (max_hc(B) <= 1): the same structured matrix on the right.
    const double exact_r = static_cast<double>(ProductNnzExact(mb, ma));
    const MncSketch a_right = MncSketch::FromCsr(mb);
    const MncSketch b_right = MncSketch::FromCsr(ma);
    if (b_right.max_hc() <= 1) {
      EXPECT_DOUBLE_EQ(exact_r, EstimateProductNnz(a_right, b_right))
          << "kind=" << static_cast<int>(kind);
    }
  }
}

TEST_P(DifferentialHarnessTest, SketchIoRoundTripsBitForBit) {
  Rng rng(Seed() * 7013 + 31);
  for (int round = 0; round < 6; ++round) {
    const MncSketch s = RandomSketch(rng);
    EXPECT_TRUE(RoundTripsExactly(s)) << "v2 round=" << round;
    EXPECT_TRUE(RoundTripsExactly(s, /*v1=*/true)) << "v1 round=" << round;
  }
  // Propagated sketches (FromCounts — no extension vectors) round-trip too.
  ThreadPool pool(2);
  const int64_t dim = RandomDim(rng);
  const MncSketch a = MncSketch::FromCsr(RandomLeaf(rng, dim));
  const MncSketch b = MncSketch::FromCsr(RandomLeaf(rng, dim));
  const MncSketch c =
      PropagateProduct(a, b, Seed(), HarnessConfig(2), &pool);
  EXPECT_TRUE(RoundTripsExactly(c));
}

// (d) SIMD differential properties: with the kernel table forced to scalar
// vs. the best level this build/CPU supports, every estimate, propagated
// sketch, SpGEMM result and bitset count is identical — the determinism
// contract of mnc/kernels/kernels.h. On scalar-only builds the level list
// collapses to {scalar} and these pass trivially.

TEST_P(DifferentialHarnessTest, SimdEstimatesMatchScalarPerArchetype) {
  ThreadPool pool(4);
  const int archetypes = static_cast<int>(difftest::Archetype::kCount);
  for (int kind = 0; kind < archetypes; ++kind) {
    Rng rng(Seed() * 8009 + static_cast<uint64_t>(kind) * 131 + 37);
    const int64_t dim = RandomDim(rng);
    const MncSketch a = MncSketch::FromCsr(
        MakeLeaf(static_cast<difftest::Archetype>(kind), dim, rng));
    const MncSketch b = MncSketch::FromCsr(RandomLeaf(rng, dim));

    std::vector<double> product, basic, par_product, ewise_mult, ewise_add;
    for (SimdLevel level : difftest::TestableKernelLevels()) {
      kernels::ScopedForceKernels forced(level);
      product.push_back(EstimateProductNnz(a, b));
      basic.push_back(EstimateProductNnzBasic(a, b));
      par_product.push_back(
          EstimateProductNnz(a, b, HarnessConfig(2), &pool));
      ewise_mult.push_back(EstimateEWiseMultNnz(a, b));
      ewise_add.push_back(EstimateEWiseAddNnz(a, b));
    }
    for (size_t i = 1; i < product.size(); ++i) {
      EXPECT_EQ(product[0], product[i]) << "kind=" << kind;
      EXPECT_EQ(basic[0], basic[i]) << "kind=" << kind;
      EXPECT_EQ(par_product[0], par_product[i]) << "kind=" << kind;
      EXPECT_EQ(ewise_mult[0], ewise_mult[i]) << "kind=" << kind;
      EXPECT_EQ(ewise_add[0], ewise_add[i]) << "kind=" << kind;
    }
  }
}

TEST_P(DifferentialHarnessTest, SimdPropagationAndSpGemmMatchScalar) {
  Rng rng(Seed() * 9011 + 41);
  ThreadPool pool(4);
  const int64_t dim = RandomDim(rng);
  const CsrMatrix ma = RandomLeaf(rng, dim);
  const CsrMatrix mb = RandomLeaf(rng, dim);
  const MncSketch a = MncSketch::FromCsr(ma);
  const MncSketch b = MncSketch::FromCsr(mb);
  const uint64_t prop_seed = Seed() ^ 0x9e3779b9u;

  std::vector<MncSketch> products, adds, mults;
  std::vector<CsrMatrix> spgemm;
  std::vector<int64_t> exact_nnz, bool_product, bool_and, bool_or;
  for (SimdLevel level : difftest::TestableKernelLevels()) {
    kernels::ScopedForceKernels forced(level);
    products.push_back(
        PropagateProduct(a, b, prop_seed, HarnessConfig(2), &pool));
    adds.push_back(
        PropagateEWiseAdd(a, b, prop_seed, HarnessConfig(2), &pool));
    mults.push_back(
        PropagateEWiseMult(a, b, prop_seed, HarnessConfig(2), &pool));
    spgemm.push_back(MultiplySparseSparse(ma, mb));
    exact_nnz.push_back(ProductNnzExact(ma, mb));
    const BitMatrix bma = BitMatrix::FromMatrix(Matrix::Sparse(ma));
    const BitMatrix bmb = BitMatrix::FromMatrix(Matrix::Sparse(mb));
    bool_product.push_back(bma.MultiplyBool(bmb).PopCount());
    bool_and.push_back(bma.AndPopCount(bmb));
    bool_or.push_back(bma.OrPopCount(bmb));
  }
  for (size_t i = 1; i < products.size(); ++i) {
    EXPECT_TRUE(SketchesBitIdentical(products[0], products[i]));
    EXPECT_TRUE(SketchesBitIdentical(adds[0], adds[i]));
    EXPECT_TRUE(SketchesBitIdentical(mults[0], mults[i]));
    EXPECT_TRUE(CsrBitIdentical(spgemm[0], spgemm[i]));
    EXPECT_EQ(exact_nnz[0], exact_nnz[i]);
    EXPECT_EQ(bool_product[0], bool_product[i]);
    EXPECT_EQ(bool_and[0], bool_and[i]);
    EXPECT_EQ(bool_or[0], bool_or[i]);
  }
}

// (e) Sketch-guided execution properties (PR 5).

TEST_P(DifferentialHarnessTest, PerRowEstimatesBoundExactRowCounts) {
  Rng rng(Seed() * 10007 + 43);
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    const int64_t dim = RandomDim(rng);
    const CsrMatrix ma = RandomLeaf(rng, dim);
    const CsrMatrix mb = RandomLeaf(rng, dim);
    const MncSketch b = MncSketch::FromCsr(mb);

    const std::vector<RowProductEstimate> rows = EstimateProductRows(ma, b);
    ASSERT_EQ(static_cast<int64_t>(rows.size()), dim);

    std::vector<char> seen(static_cast<size_t>(mb.cols()), 0);
    for (int64_t i = 0; i < dim; ++i) {
      // Exact pattern count of output row i (the symbolic ground truth the
      // single-pass kernel's slice must hold).
      int64_t exact = 0;
      for (int64_t k : ma.RowIndices(i)) {
        for (int64_t j : mb.RowIndices(k)) {
          if (!seen[static_cast<size_t>(j)]) {
            seen[static_cast<size_t>(j)] = 1;
            ++exact;
          }
        }
      }
      for (int64_t k : ma.RowIndices(i)) {
        for (int64_t j : mb.RowIndices(k)) seen[static_cast<size_t>(j)] = 0;
      }
      const RowProductEstimate& r = rows[static_cast<size_t>(i)];
      EXPECT_LE(exact, r.upper_bound) << "round=" << round << " row=" << i;
      EXPECT_LE(r.estimate, static_cast<double>(r.upper_bound))
          << "round=" << round << " row=" << i;
      if (r.exact) {
        EXPECT_EQ(static_cast<double>(exact), r.estimate)
            << "round=" << round << " row=" << i;
      }
    }

    // Parallel row estimation is bit-identical to sequential at any thread
    // count (rows are independent).
    for (int threads : {1, 7}) {
      const std::vector<RowProductEstimate> par =
          EstimateProductRows(ma, b, HarnessConfig(threads), &pool);
      ASSERT_EQ(rows.size(), par.size()) << "threads=" << threads;
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].upper_bound, par[i].upper_bound)
            << "threads=" << threads << " row=" << i;
        EXPECT_EQ(rows[i].estimate, par[i].estimate)
            << "threads=" << threads << " row=" << i;
        EXPECT_EQ(rows[i].exact, par[i].exact)
            << "threads=" << threads << " row=" << i;
      }
    }
  }

  // Per-row Theorem 3.1 exactness: a single-nnz-per-row left operand makes
  // every row exact (A1), and a max_hc <= 1 right operand does too (A2).
  const int64_t dim = RandomDim(rng);
  const CsrMatrix single = MakeLeaf(difftest::Archetype::kOneNnzPerRow, dim, rng);
  const CsrMatrix any = RandomLeaf(rng, dim);
  for (const RowProductEstimate& r :
       EstimateProductRows(single, MncSketch::FromCsr(any))) {
    EXPECT_TRUE(r.exact);
  }
  const CsrMatrix perm = MakeLeaf(difftest::Archetype::kPermutation, dim, rng);
  for (const RowProductEstimate& r :
       EstimateProductRows(any, MncSketch::FromCsr(perm))) {
    EXPECT_TRUE(r.exact);
  }
}

TEST_P(DifferentialHarnessTest, GuidedEvaluationBitIdenticalToBlind) {
  Rng rng(Seed() * 11003 + 47);
  const int64_t dim = RandomDim(rng);
  auto leaf = [&](CsrMatrix m) {
    return ExprNode::Leaf(Matrix::Sparse(std::move(m)));
  };
  const ExprPtr a = leaf(RandomLeaf(rng, dim));
  const ExprPtr b = leaf(RandomLeaf(rng, dim));
  const ExprPtr c = leaf(RandomLeaf(rng, dim));
  const ExprPtr d = leaf(RandomLeaf(rng, dim));

  // Chains and ewise mixes: products over propagated (non-leaf) sketches are
  // exactly where bounds stop being guarantees, so these cover the overflow
  // detection, not just the exact-bound fast path.
  const ExprPtr roots[] = {
      ExprNode::MatMul(ExprNode::MatMul(a, b), c),
      ExprNode::MatMul(ExprNode::Transpose(a), ExprNode::EWiseAdd(b, c)),
      ExprNode::EWiseMult(ExprNode::MatMul(a, b), ExprNode::MatMul(c, d)),
      ExprNode::MatMul(ExprNode::MatMul(a, a), ExprNode::MatMul(a, a)),
  };
  EvaluatorOptions guided;
  guided.guided = true;
  guided.seed = Seed();
  for (const ExprPtr& root : roots) {
    Evaluator blind(nullptr);
    const CsrMatrix expected = blind.Evaluate(root).AsCsr();
    Evaluator seq(nullptr, guided);
    EXPECT_TRUE(CsrBitIdentical(expected, seq.Evaluate(root).AsCsr()));
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      Evaluator par(&pool, guided);
      EXPECT_TRUE(CsrBitIdentical(expected, par.Evaluate(root).AsCsr()))
          << "threads=" << threads;
    }
  }

  // A zero single-pass budget forces every product onto the two-pass
  // fallback. Values must not move.
  EvaluatorOptions stress = guided;
  stress.single_pass_budget_bytes = 0;
  const ExprPtr chain = ExprNode::MatMul(ExprNode::MatMul(a, b), c);
  ThreadPool pool(4);
  Evaluator blind(&pool);
  Evaluator stressed(&pool, stress);
  EXPECT_TRUE(CsrBitIdentical(blind.Evaluate(chain).AsCsr(),
                              stressed.Evaluate(chain).AsCsr()));
}

// Plan-cached serving: a warm service (plan cache + packed-operand store on)
// must replay recorded plans bit-identically to a plans-disabled guided
// service over the same operands — the replay skips canonicalization,
// propagation and row estimation, so this pins down that none of those
// stages is allowed to influence the numeric result. Covered at 1 and 8
// execution threads; the second warm Execute of each expression is the
// actual cache replay.
TEST_P(DifferentialHarnessTest, PlanCachedExecuteBitIdenticalToColdGuided) {
  Rng rng(Seed() * 13007 + 71);
  const int64_t dim = RandomDim(rng);
  const CsrMatrix a = RandomLeaf(rng, dim);
  const CsrMatrix b = RandomLeaf(rng, dim);
  const CsrMatrix c = RandomLeaf(rng, dim);
  const CsrMatrix d = RandomLeaf(rng, dim);

  const std::string sources[] = {
      "A %*% B %*% C",
      "t(A) %*% (B + C)",
      "(A %*% B) * (C %*% D)",
      "(A %*% A) %*% (A %*% A)",
  };
  for (const int threads : {1, 8}) {
    EstimationServiceOptions cold_opts;
    cold_opts.guided_exec = true;
    cold_opts.num_threads = threads;
    cold_opts.parallel.num_threads = threads;
    cold_opts.plan_cache_budget_bytes = 0;
    cold_opts.packed_operand_budget_bytes = 0;
    EstimationServiceOptions warm_opts = cold_opts;
    warm_opts.plan_cache_budget_bytes = 16LL << 20;
    warm_opts.packed_operand_budget_bytes = 32LL << 20;

    EstimationService cold(cold_opts);
    EstimationService warm(warm_opts);
    for (EstimationService* service : {&cold, &warm}) {
      ASSERT_TRUE(service->RegisterMatrix("A", Matrix::Sparse(a)).ok());
      ASSERT_TRUE(service->RegisterMatrix("B", Matrix::Sparse(b)).ok());
      ASSERT_TRUE(service->RegisterMatrix("C", Matrix::Sparse(c)).ok());
      ASSERT_TRUE(service->RegisterMatrix("D", Matrix::Sparse(d)).ok());
    }

    for (const std::string& source : sources) {
      const StatusOr<Matrix> expected = cold.ExecuteSource(source);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      const StatusOr<Matrix> recorded = warm.ExecuteSource(source);
      const StatusOr<Matrix> replayed = warm.ExecuteSource(source);
      ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      EXPECT_TRUE(CsrBitIdentical(expected->AsCsr(), recorded->AsCsr()))
          << "threads=" << threads << " source=" << source;
      EXPECT_TRUE(CsrBitIdentical(expected->AsCsr(), replayed->AsCsr()))
          << "threads=" << threads << " source=" << source;
    }
    const ServiceStats stats = warm.stats();
    EXPECT_GE(stats.plan_hits, static_cast<int64_t>(std::size(sources)))
        << "threads=" << threads;
    EXPECT_GT(stats.packed_operands, 0) << "threads=" << threads;
  }
}

// (f) streaming ingestion: the chunked out-of-core sketch build must be
// bit-identical to the in-memory FromCsr at every chunk size, and the
// row-shard rbind build must be thread-count-invariant.
TEST_P(DifferentialHarnessTest, StreamingSketchBitIdenticalAcrossChunksAndThreads) {
  Rng rng(Seed() * 5011 + 17);
  const CsrMatrix m = RandomLeaf(rng, RandomDim(rng));
  const MncSketch reference = MncSketch::FromCsr(m);
  const std::string path = ::testing::TempDir() + "/difftest_stream_" +
                           std::to_string(Seed()) + ".mtx";
  ASSERT_TRUE(WriteMatrixMarketFile(m, path).ok());

  const int64_t chunks[] = {1, 7, 4096, m.NumNonZeros() + 1};
  for (const int64_t chunk : chunks) {
    auto src = ingest::OpenTripletSource(path);
    ASSERT_TRUE(src.ok()) << src.status().ToString();
    ingest::StreamSketchOptions opts;
    opts.chunk_entries = chunk;
    const auto streamed = ingest::BuildSketchStreaming(**src, opts);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    EXPECT_TRUE(SketchesBitIdentical(reference, *streamed))
        << "chunk=" << chunk;
  }

  // Row-shard rbind at 1 vs 8 threads: per-shard builds race on the pool
  // but the merged counts are integer sums, so the result cannot move.
  const std::string shard_paths[2] = {path, path};
  const std::vector<std::string> shards(shard_paths, shard_paths + 2);
  std::optional<MncSketch> at_one;
  for (const int threads : {1, 8}) {
    ThreadPool pool(threads);
    ingest::StreamSketchOptions opts;
    opts.chunk_entries = 7;
    opts.parallel = HarnessConfig(threads);
    opts.pool = &pool;
    const auto merged = ingest::BuildSketchFromRowShards(shards, opts);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(merged->rows(), 2 * m.rows());
    if (!at_one.has_value()) {
      at_one.emplace(*merged);
    } else {
      EXPECT_TRUE(SketchesBitIdentical(*at_one, *merged)) << "threads=8";
    }
  }
}

// (g) Calibrated dispatch identity (PR 8): a machine profile may change
// only WHERE work executes — sequential vs pooled below/above a stage
// crossover, the block grain on the grain-invariant stages (sketch build,
// SpGEMM), and scalar vs SIMD kernel entries — never the bits of any
// result. Synthetic profiles at the extremes (always-parallel with a tiny
// grain, mid-range crossovers that split the harness dims, never-parallel
// with every kernel demoted to scalar) must reproduce the no-profile
// results exactly, at every thread count.

TEST_P(DifferentialHarnessTest, CalibratedDispatchBitIdenticalToUncalibrated) {
  ThreadPool pool(4);
  const uint64_t prop_seed = Seed() ^ 0x2545f491u;

  auto always = std::make_shared<tuning::MachineProfile>();
  for (int s = 0; s < kNumTunedStages; ++s) {
    always->stages[s].crossover_work = 0;
    always->stages[s].grain = 16;  // adopted only by sketch build / SpGEMM
  }

  // RandomDim() yields 24..64, so work metrics straddle this threshold and
  // both branches of ForStage() are exercised across rounds.
  auto midrange = std::make_shared<tuning::MachineProfile>();
  for (int s = 0; s < kNumTunedStages; ++s) {
    midrange->stages[s].crossover_work = 40;
    midrange->stages[s].grain = 32;
  }

  auto never = std::make_shared<tuning::MachineProfile>();
  for (int s = 0; s < kNumTunedStages; ++s) {
    never->stages[s].crossover_work = tuning::kNeverParallel;
  }
  for (int k = 0; k < tuning::kNumTunedKernels; ++k) {
    never->kernels[k].use_simd = false;  // demote every kernel to scalar
  }

  const std::shared_ptr<const tuning::MachineProfile> profiles[] = {
      always, midrange, never};

  const int archetypes = static_cast<int>(difftest::Archetype::kCount);
  for (int kind = 0; kind < archetypes; ++kind) {
    Rng rng(Seed() * 12007 + static_cast<uint64_t>(kind) * 151 + 53);
    const int64_t dim = RandomDim(rng);
    const CsrMatrix ma = MakeLeaf(static_cast<difftest::Archetype>(kind), dim, rng);
    const CsrMatrix mb = RandomLeaf(rng, dim);

    // Reference results with "no profile" pinned (suppresses any lazily
    // loaded ~/.cache profile for the scope).
    tuning::ScopedProfileOverride no_profile(nullptr);
    const MncSketch sa = MncSketch::FromCsr(ma);
    const MncSketch sb = MncSketch::FromCsr(mb);
    const double est_ref = EstimateProductNnz(sa, sb, HarnessConfig(1), nullptr);
    const MncSketch prop_ref =
        PropagateProduct(sa, sb, prop_seed, HarnessConfig(1), nullptr);
    const CsrMatrix prod_ref = MultiplySparseSparse(ma, mb);

    for (const auto& profile : profiles) {
      tuning::ScopedProfileOverride installed(profile);
      for (int threads : {1, 2, 7, 16}) {
        const ParallelConfig config = HarnessConfig(threads);
        EXPECT_TRUE(SketchesBitIdentical(
            sa, MncSketch::FromCsr(ma, config, &pool)))
            << "kind=" << kind << " threads=" << threads;
        EXPECT_EQ(est_ref, EstimateProductNnz(sa, sb, config, &pool))
            << "kind=" << kind << " threads=" << threads;
        EXPECT_TRUE(SketchesBitIdentical(
            prop_ref, PropagateProduct(sa, sb, prop_seed, config, &pool)))
            << "kind=" << kind << " threads=" << threads;
        EXPECT_TRUE(CsrBitIdentical(
            prod_ref, MultiplySparseSparse(ma, mb, config, &pool)))
            << "kind=" << kind << " threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialHarnessTest,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace mnc
