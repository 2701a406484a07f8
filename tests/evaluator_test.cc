#include "mnc/ir/evaluator.h"

#include <gtest/gtest.h>

#include <memory>

#include "mnc/core/mnc_sketch.h"
#include "mnc/matrix/generate.h"
#include "mnc/matrix/ops_ewise.h"
#include "mnc/matrix/ops_product.h"
#include "mnc/matrix/ops_reorg.h"
#include "mnc/util/random.h"

namespace mnc {
namespace {

TEST(EvaluatorTest, LeafEvaluatesToItself) {
  Rng rng(1);
  CsrMatrix m = GenerateUniformSparse(5, 5, 0.3, rng);
  Evaluator eval;
  EXPECT_TRUE(
      eval.Evaluate(ExprNode::Leaf(Matrix::Sparse(m))).AsCsr().Equals(m));
}

TEST(EvaluatorTest, ProductMatchesKernel) {
  Rng rng(2);
  CsrMatrix a = GenerateUniformSparse(10, 12, 0.2, rng);
  CsrMatrix b = GenerateUniformSparse(12, 8, 0.2, rng);
  Evaluator eval;
  Matrix c = eval.Evaluate(ExprNode::MatMul(
      ExprNode::Leaf(Matrix::Sparse(a)), ExprNode::Leaf(Matrix::Sparse(b))));
  EXPECT_TRUE(c.AsCsr().Equals(MultiplySparseSparse(a, b)));
}

TEST(EvaluatorTest, AllOpsCompose) {
  Rng rng(3);
  CsrMatrix a = GenerateUniformSparse(6, 6, 0.3, rng);
  CsrMatrix b = GenerateUniformSparse(6, 6, 0.3, rng);
  ExprPtr la = ExprNode::Leaf(Matrix::Sparse(a));
  ExprPtr lb = ExprNode::Leaf(Matrix::Sparse(b));

  // ((A + B) ⊙ A)^T != 0, reshaped and rebound.
  ExprPtr expr = ExprNode::NotEqualZero(
      ExprNode::Transpose(ExprNode::EWiseMult(ExprNode::EWiseAdd(la, lb),
                                              la)));
  Evaluator eval;
  Matrix result = eval.Evaluate(expr);
  CsrMatrix expected = NotEqualZeroSparse(TransposeSparse(
      MultiplyEWiseSparseSparse(AddSparseSparse(a, b), a)));
  EXPECT_TRUE(result.AsCsr().Equals(expected));
}

TEST(EvaluatorTest, SharedSubexpressionEvaluatedOnce) {
  Rng rng(4);
  CsrMatrix g = GenerateUniformSparse(20, 20, 0.1, rng);
  ExprPtr lg = ExprNode::Leaf(Matrix::Sparse(g));
  ExprPtr gg = ExprNode::MatMul(lg, lg);
  // Both parents reference gg; the evaluator must reuse the cached result —
  // verified behaviorally by value equality of the two paths.
  ExprPtr left = ExprNode::MatMul(gg, lg);
  ExprPtr right = ExprNode::MatMul(gg, lg);
  Evaluator eval;
  Matrix l = eval.Evaluate(left);
  Matrix r = eval.Evaluate(right);
  EXPECT_TRUE(l.EqualsLogically(r));
}

TEST(EvaluatorTest, CachePersistsAcrossRoots) {
  Rng rng(5);
  CsrMatrix g = GenerateUniformSparse(15, 15, 0.15, rng);
  ExprPtr lg = ExprNode::Leaf(Matrix::Sparse(g));
  ExprPtr gg = ExprNode::MatMul(lg, lg);
  ExprPtr ggg = ExprNode::MatMul(gg, lg);
  Evaluator eval;
  Matrix first = eval.Evaluate(gg);
  Matrix second = eval.Evaluate(ggg);  // reuses cached gg
  EXPECT_TRUE(second.AsCsr().Equals(
      MultiplySparseSparse(first.AsCsr(), g)));
}

TEST(EvaluatorTest, DeepLeftChainIterative) {
  // A 200-product chain of permutations — exercises the iterative
  // post-order (no stack overflow) and exactness.
  Rng rng(6);
  CsrMatrix p = GeneratePermutation(50, rng);
  ExprPtr lp = ExprNode::Leaf(Matrix::Sparse(p));
  Rng rng2(7);
  CsrMatrix x = GenerateUniformSparse(50, 20, 0.2, rng2);
  ExprPtr acc = ExprNode::Leaf(Matrix::Sparse(x));
  for (int i = 0; i < 200; ++i) {
    acc = ExprNode::MatMul(lp, acc);
  }
  Evaluator eval;
  Matrix result = eval.Evaluate(acc);
  EXPECT_EQ(result.NumNonZeros(), x.NumNonZeros());
}

TEST(EvaluatorTest, CacheSurvivesNodeChurn) {
  // Regression test: cached results key on node identity; short-lived
  // expression nodes from earlier Evaluate() calls must not alias new nodes
  // allocated at recycled addresses. Build and evaluate many transient
  // chains against one long-lived Evaluator.
  Rng rng(9);
  std::vector<ExprPtr> leaves;
  for (int i = 0; i < 4; ++i) {
    leaves.push_back(ExprNode::Leaf(
        Matrix::Sparse(GenerateUniformSparse(12, 12, 0.3, rng))));
  }
  Evaluator eval;
  for (int round = 0; round < 50; ++round) {
    // Fresh left-deep chain over varying windows each round.
    const size_t start = static_cast<size_t>(round % 3);
    ExprPtr acc = leaves[start];
    for (size_t k = start + 1; k < leaves.size(); ++k) {
      acc = ExprNode::MatMul(acc, leaves[k]);
    }
    const Matrix got = eval.Evaluate(acc);
    // Independent fresh evaluation must agree.
    Evaluator fresh;
    EXPECT_TRUE(got.EqualsLogically(fresh.Evaluate(acc))) << round;
  }
}

TEST(EvaluatorTest, GuidedOffLeavesStatsAndSketchesEmpty) {
  // guided=false is the default construction path; no sketches may be built
  // and every counter must stay zero — the blind history is untouched.
  Rng rng(20);
  CsrMatrix a = GenerateUniformSparse(16, 16, 0.2, rng);
  CsrMatrix b = GenerateUniformSparse(16, 16, 0.2, rng);
  ExprPtr expr = ExprNode::MatMul(ExprNode::Leaf(Matrix::Sparse(a)),
                                  ExprNode::Leaf(Matrix::Sparse(b)));
  Evaluator eval;
  eval.Evaluate(expr);
  EXPECT_EQ(eval.guided_stats().guided_products, 0);
  EXPECT_EQ(eval.guided_stats().single_pass, 0);
  EXPECT_EQ(eval.guided_stats().dense_direct, 0);
  EXPECT_EQ(eval.NodeSketch(expr.get()), nullptr);
}

TEST(EvaluatorTest, GuidedMatchesBlindAndPopulatesStats) {
  // Sparse enough that neither product crosses the dense-dispatch
  // threshold: both stay on the guided CSR kernel, which counts every
  // output row once in scatter_rows.
  Rng rng(21);
  CsrMatrix a = GenerateUniformSparse(24, 24, 0.05, rng);
  CsrMatrix b = GenerateUniformSparse(24, 24, 0.05, rng);
  CsrMatrix c = GenerateUniformSparse(24, 24, 0.05, rng);
  ExprPtr la = ExprNode::Leaf(Matrix::Sparse(a));
  ExprPtr lb = ExprNode::Leaf(Matrix::Sparse(b));
  ExprPtr lc = ExprNode::Leaf(Matrix::Sparse(c));
  ExprPtr expr = ExprNode::MatMul(ExprNode::MatMul(la, lb),
                                  ExprNode::EWiseAdd(lc, lc));

  Evaluator blind;
  Matrix expected = blind.Evaluate(expr);

  EvaluatorOptions opts;
  opts.guided = true;
  Evaluator guided(nullptr, opts);
  Matrix got = guided.Evaluate(expr);

  EXPECT_TRUE(got.AsCsr().Equals(expected.AsCsr()));
  // Two sparse-sparse products ran through the guided dispatch.
  EXPECT_EQ(guided.guided_stats().guided_products, 2);
  EXPECT_EQ(guided.guided_stats().scatter_rows, 2 * 24);
  // Every node of the DAG got a sketch, consistent with its result.
  const MncSketch* root_sketch = guided.NodeSketch(expr.get());
  ASSERT_NE(root_sketch, nullptr);
  EXPECT_EQ(root_sketch->rows(), got.rows());
  EXPECT_EQ(root_sketch->cols(), got.cols());
  ASSERT_NE(guided.NodeSketch(la.get()), nullptr);
  // Leaf sketches are exact, built from the matrix itself.
  EXPECT_EQ(guided.NodeSketch(la.get())->nnz(), a.NumNonZeros());
}

TEST(EvaluatorTest, GuidedLeafSketchProviderIsConsulted) {
  Rng rng(22);
  CsrMatrix a = GenerateUniformSparse(12, 12, 0.25, rng);
  CsrMatrix b = GenerateUniformSparse(12, 12, 0.25, rng);
  ExprPtr la = ExprNode::Leaf(Matrix::Sparse(a));
  ExprPtr lb = ExprNode::Leaf(Matrix::Sparse(b));
  ExprPtr expr = ExprNode::MatMul(la, lb);

  int provider_calls = 0;
  auto precomputed = std::make_shared<const MncSketch>(
      MncSketch::FromMatrix(Matrix::Sparse(a)));
  EvaluatorOptions opts;
  opts.guided = true;
  opts.leaf_sketches = [&](const ExprNode& node)
      -> std::shared_ptr<const MncSketch> {
    ++provider_calls;
    // Serve only the first leaf; the evaluator must build the other itself.
    return &node == la.get() ? precomputed : nullptr;
  };
  Evaluator eval(nullptr, opts);
  Matrix got = eval.Evaluate(expr);

  EXPECT_EQ(provider_calls, 2);
  EXPECT_EQ(eval.NodeSketch(la.get()), precomputed.get());
  ASSERT_NE(eval.NodeSketch(lb.get()), nullptr);
  EXPECT_TRUE(got.AsCsr().Equals(MultiplySparseSparse(a, b)));
}

TEST(EvaluatorTest, GuidedClearCacheDropsSketchesKeepsStats) {
  Rng rng(23);
  CsrMatrix a = GenerateUniformSparse(10, 10, 0.3, rng);
  ExprPtr la = ExprNode::Leaf(Matrix::Sparse(a));
  ExprPtr expr = ExprNode::MatMul(la, la);
  EvaluatorOptions opts;
  opts.guided = true;
  Evaluator eval(nullptr, opts);

  Matrix first = eval.Evaluate(expr);
  ASSERT_NE(eval.NodeSketch(expr.get()), nullptr);
  const int64_t products_after_first = eval.guided_stats().guided_products;
  EXPECT_EQ(products_after_first, 1);

  eval.ClearCache();
  EXPECT_EQ(eval.NodeSketch(expr.get()), nullptr);
  // Counters survive ClearCache (they report lifetime work, like the
  // service's cumulative stats); re-evaluation is bit-identical.
  Matrix second = eval.Evaluate(expr);
  EXPECT_TRUE(second.AsCsr().Equals(first.AsCsr()));
  EXPECT_EQ(eval.guided_stats().guided_products, products_after_first + 1);
}

TEST(EvaluatorTest, GuidedDenseBoundProductComesBackDense) {
  // A dense-ish product (est sparsity >= the dense dispatch threshold) must
  // be produced directly as a DenseMatrix, and still match the blind values.
  Rng rng(24);
  CsrMatrix a = GenerateUniformSparse(32, 32, 0.4, rng);
  CsrMatrix b = GenerateUniformSparse(32, 32, 0.4, rng);
  ExprPtr expr = ExprNode::MatMul(ExprNode::Leaf(Matrix::Sparse(a)),
                                  ExprNode::Leaf(Matrix::Sparse(b)));
  Evaluator blind;
  Matrix expected = blind.Evaluate(expr);

  EvaluatorOptions opts;
  opts.guided = true;
  Evaluator guided(nullptr, opts);
  Matrix got = guided.Evaluate(expr);
  EXPECT_EQ(guided.guided_stats().dense_direct, 1);
  EXPECT_TRUE(got.is_dense());
  EXPECT_TRUE(got.AsCsr().Equals(expected.AsCsr()));
}

TEST(EvaluatorTest, ReshapeAndDiag) {
  Rng rng(8);
  CsrMatrix v = GenerateUniformSparse(9, 1, 0.5, rng);
  ExprPtr diag = ExprNode::Diag(ExprNode::Leaf(Matrix::Sparse(v)));
  ExprPtr reshaped = ExprNode::Reshape(diag, 27, 3);
  Evaluator eval;
  Matrix result = eval.Evaluate(reshaped);
  EXPECT_TRUE(result.AsCsr().Equals(
      ReshapeSparse(DiagVectorToMatrix(v), 27, 3)));
}

}  // namespace
}  // namespace mnc
