#include "mnc/ir/evaluator.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "mnc/core/mnc_estimator.h"
#include "mnc/core/row_estimates.h"
#include "mnc/estimators/sparsity_estimator.h"
#include "mnc/ir/sketch_propagator.h"
#include "mnc/matrix/ops_ewise.h"
#include "mnc/matrix/ops_product.h"
#include "mnc/matrix/ops_reorg.h"
#include "mnc/tuning/machine_profile.h"
#include "mnc/util/random.h"

namespace mnc {

ParallelConfig Evaluator::GuidedConfig() const {
  ParallelConfig config;
  if (pool_ != nullptr) config.num_threads = pool_->num_threads();
  config.profile = options_.profile.get();
  return config;
}

const tuning::MachineProfile* Evaluator::GuidedProfile() const {
  if (options_.profile != nullptr) return options_.profile.get();
  return tuning::ActiveProfileRaw();
}

const MncSketch& Evaluator::SketchFor(const ExprNode* node) {
  auto it = sketches_.find(node);
  if (it != sketches_.end()) return *it->second;

  std::shared_ptr<const MncSketch> sketch;
  if (node->is_leaf()) {
    if (options_.leaf_sketches) sketch = options_.leaf_sketches(*node);
    if (sketch == nullptr) {
      sketch = std::make_shared<const MncSketch>(
          pool_ != nullptr
              ? MncSketch::FromMatrix(node->matrix(), GuidedConfig(), pool_)
              : MncSketch::FromMatrix(node->matrix()));
    }
  } else {
    // The post-order evaluation walk sketches children before parents, so
    // these lookups are memo hits; the explicit sequencing keeps the
    // sketch_seq_ draw order deterministic regardless.
    const MncSketch& left = SketchFor(node->left().get());
    const MncSketch* right = nullptr;
    if (node->right() != nullptr) right = &SketchFor(node->right().get());
    sketch = std::make_shared<const MncSketch>(PropagateNodeSketch(
        *node, left, right, MixSeed(options_.seed, sketch_seq_++),
        options_.rounding, GuidedConfig(), pool_));
  }
  auto [pos, inserted] = sketches_.emplace(node, std::move(sketch));
  (void)inserted;
  return *pos->second;
}

Matrix Evaluator::GuidedMultiply(const ExprNode* node, const Matrix& a,
                                 const Matrix& b, const MncSketch& sa,
                                 const MncSketch& sb) {
  const ParallelConfig config = GuidedConfig();
  const bool parallel = config.enabled() && pool_ != nullptr;
  // Calibrated guided break-evens, falling back to the built-in constants
  // when uncalibrated. The threshold only picks the physical output format
  // / accumulation order of paths that compute identical values, so a
  // calibrated profile never changes results.
  const tuning::MachineProfile* prof = GuidedProfile();
  const double dense_threshold =
      prof != nullptr && prof->guided.dense_dispatch_threshold >= 0.0
          ? prof->guided.dense_dispatch_threshold
          : kDenseDispatchThreshold;
  if (!a.is_dense() && !b.is_dense()) {
    const int64_t m = a.rows();
    const int64_t l = b.cols();
    const std::vector<RowProductEstimate> rows =
        parallel ? EstimateProductRows(a.csr(), sb, config, pool_)
                 : EstimateProductRows(a.csr(), sb);
    RowEstimateTable table = BuildRowEstimateTable(rows);
    const double cells = static_cast<double>(m) * static_cast<double>(l);
    const double est_sp =
        cells > 0.0 ? std::min(table.summary.estimate_total / cells, 1.0)
                    : 0.0;
    if (est_sp >= dense_threshold) {
      // Estimated-dense product: accumulate straight into a DenseMatrix
      // instead of materializing CSR and converting afterwards, which is
      // what the blind path does for a dense-bound product.
      guided_stats_.guided_products += 1;
      guided_stats_.dense_direct += 1;
      const int64_t blind_nnz = std::min(
          static_cast<int64_t>(table.summary.estimate_total), m * l);
      const int64_t blind_bytes =
          prof != nullptr && prof->guided.blind_reserve_bytes_per_nnz > 0.0
              ? static_cast<int64_t>(prof->guided.blind_reserve_bytes_per_nnz *
                                     static_cast<double>(blind_nnz))
              : BlindReserveBytesModel(blind_nnz);
      guided_stats_.blind_reserve_bytes += blind_bytes;
      if (options_.plan_record) {
        ProductPlanEntry entry;
        entry.sparse_sparse = true;
        entry.dense_direct = true;
        entry.est_sparsity = est_sp;
        entry.blind_reserve_bytes = blind_bytes;
        options_.plan_record(node, std::move(entry));
      }
      return Matrix::Dense(MultiplySparseSparseDense(a.csr(), b.csr(), pool_));
    }
    GuidedProductOptions opts;
    opts.single_pass_budget_bytes =
        prof != nullptr && prof->guided.single_pass_budget_bytes > 0
            ? prof->guided.single_pass_budget_bytes
            : options_.single_pass_budget_bytes;
    if (options_.plan_record) {
      ProductPlanEntry entry;
      entry.sparse_sparse = true;
      entry.est_sparsity = est_sp;
      entry.table = table;
      entry.opts = opts;
      options_.plan_record(node, std::move(entry));
    }
    return Matrix::AutoFromCsr(MultiplySparseSparseGuided(
        a.csr(), b.csr(), table.upper, table.estimate, opts, config, pool_,
        &guided_stats_));
  }
  // Mixed/dense products materialize a dense result anyway; the estimate
  // replaces AutoFromDense's O(rows * cols) output scan with a direct
  // format choice (AutoFromDenseEstimated).
  guided_stats_.guided_products += 1;
  const double est_sp = parallel ? EstimateProductSparsity(sa, sb, config, pool_)
                                 : EstimateProductSparsity(sa, sb);
  DenseMatrix out =
      a.is_dense() && b.is_dense()
          ? MultiplyDenseDense(a.dense(), b.dense(), pool_)
          : (a.is_dense() ? MultiplyDenseSparse(a.dense(), b.csr())
                          : MultiplySparseDense(a.csr(), b.dense()));
  if (est_sp >= dense_threshold) guided_stats_.dense_direct += 1;
  if (options_.plan_record) {
    ProductPlanEntry entry;
    entry.dense_direct = est_sp >= dense_threshold;
    entry.est_sparsity = est_sp;
    options_.plan_record(node, std::move(entry));
  }
  return Matrix::AutoFromDenseEstimated(std::move(out), est_sp);
}

Matrix Evaluator::ReplayMultiply(const ExprNode* node, const Matrix& a,
                                 const Matrix& b) {
  const ProductPlanEntry* plan = options_.plan_lookup(node);
  // Replay preserves the cold guided execution exactly: the same kernels
  // consume the same recorded vectors and budgets, so values AND physical
  // formats reproduce bit-for-bit. The blind fallbacks below cover decision
  // records that no longer match the operands' formats (possible only if a
  // stale plan outlived an invalidation edge) — blind kernels compute
  // bit-identical values in whatever format the operands dictate.
  if (plan == nullptr) return Multiply(a, b, pool_);
  if (plan->sparse_sparse) {
    if (a.is_dense() || b.is_dense()) return Multiply(a, b, pool_);
    if (plan->dense_direct) {
      guided_stats_.guided_products += 1;
      guided_stats_.dense_direct += 1;
      guided_stats_.blind_reserve_bytes += plan->blind_reserve_bytes;
      return Matrix::Dense(MultiplySparseSparseDense(a.csr(), b.csr(), pool_));
    }
    if (plan->table.upper.size() != static_cast<size_t>(a.rows())) {
      return Multiply(a, b, pool_);
    }
    return Matrix::AutoFromCsr(MultiplySparseSparseGuided(
        a.csr(), b.csr(), plan->table.upper, plan->table.estimate, plan->opts,
        GuidedConfig(), pool_, &guided_stats_));
  }
  if (!a.is_dense() && !b.is_dense()) return Multiply(a, b, pool_);
  guided_stats_.guided_products += 1;
  DenseMatrix out =
      a.is_dense() && b.is_dense()
          ? MultiplyDenseDense(a.dense(), b.dense(), pool_)
          : (a.is_dense() ? MultiplyDenseSparse(a.dense(), b.csr())
                          : MultiplySparseDense(a.csr(), b.dense()));
  if (plan->dense_direct) guided_stats_.dense_direct += 1;
  return Matrix::AutoFromDenseEstimated(std::move(out), plan->est_sparsity);
}

Matrix Evaluator::Evaluate(const ExprPtr& root) {
  MNC_CHECK(root != nullptr);
  pinned_roots_.push_back(root);
  // Iterative post-order to keep deep chains off the call stack.
  std::vector<const ExprNode*> stack = {root.get()};
  while (!stack.empty()) {
    const ExprNode* node = stack.back();
    if (cache_.contains(node)) {
      stack.pop_back();
      continue;
    }
    if (node->is_leaf()) {
      cache_.emplace(node, node->matrix());
      if (options_.guided) SketchFor(node);
      stack.pop_back();
      continue;
    }
    const ExprNode* left = node->left().get();
    const ExprNode* right =
        node->right() != nullptr ? node->right().get() : nullptr;
    const bool left_ready = cache_.contains(left);
    const bool right_ready = right == nullptr || cache_.contains(right);
    if (!left_ready || !right_ready) {
      if (!left_ready) stack.push_back(left);
      if (!right_ready) stack.push_back(right);
      continue;
    }
    const Matrix& a = cache_.at(left);
    Matrix result = Matrix::Sparse(CsrMatrix(0, 0));
    switch (node->op()) {
      case OpKind::kMatMul:
        // Guided mode consults the operands' propagated sketches; both are
        // memo hits here (children were sketched when cached). Either path
        // yields bit-identical values (guided may differ in physical format
        // only when the estimate is wrong about the dense threshold).
        // Replay mode (plan_lookup) re-dispatches from recorded decisions
        // without any sketch.
        result = options_.guided
                     ? GuidedMultiply(node, a, cache_.at(right),
                                      SketchFor(left), SketchFor(right))
                     : (options_.plan_lookup
                            ? ReplayMultiply(node, a, cache_.at(right))
                            : Multiply(a, cache_.at(right), pool_));
        break;
      case OpKind::kEWiseAdd:
        result = Add(a, cache_.at(right));
        break;
      case OpKind::kEWiseMult:
        result = MultiplyEWise(a, cache_.at(right));
        break;
      case OpKind::kTranspose: {
        // A cataloged leaf's transpose may be pre-packed by the service's
        // packed-operand store; the cached matrix is the bit-exact
        // Transpose of the leaf, so substituting it cannot change results.
        std::shared_ptr<const Matrix> packed;
        if (options_.cached_transpose && node->left()->is_leaf() &&
            node->left()->has_matrix()) {
          packed = options_.cached_transpose(*node->left());
        }
        result = packed != nullptr ? *packed : Transpose(a);
        break;
      }
      case OpKind::kReshape:
        result = Reshape(a, node->rows(), node->cols());
        break;
      case OpKind::kDiag:
        result = Diag(a);
        break;
      case OpKind::kRBind:
        result = RBind(a, cache_.at(right));
        break;
      case OpKind::kCBind:
        result = CBind(a, cache_.at(right));
        break;
      case OpKind::kNotEqualZero:
        result = NotEqualZero(a);
        break;
      case OpKind::kEqualZero:
        result = EqualZero(a);
        break;
      case OpKind::kEWiseMin:
        result = MinEWise(a, cache_.at(right));
        break;
      case OpKind::kEWiseMax:
        result = MaxEWise(a, cache_.at(right));
        break;
      case OpKind::kScale:
        result = Scale(a, node->scale_alpha());
        break;
      case OpKind::kRowSums:
        result = RowSums(a);
        break;
      case OpKind::kColSums:
        result = ColSums(a);
        break;
    }
    cache_.emplace(node, std::move(result));
    if (options_.guided) SketchFor(node);
    stack.pop_back();
  }
  return cache_.at(root.get());
}

Status Evaluator::ValidateDag(const ExprPtr& root) const {
  if (root == nullptr) {
    return Status::InvalidArgument("null expression root");
  }
  std::vector<const ExprNode*> stack = {root.get()};
  std::unordered_map<const ExprNode*, bool> visited;
  while (!stack.empty()) {
    const ExprNode* node = stack.back();
    stack.pop_back();
    if (visited.contains(node)) continue;
    visited.emplace(node, true);
    if (node->is_leaf()) {
      // A sketch-only leaf (streaming registration) has nothing to
      // materialize; evaluation of any DAG containing one must fail with a
      // typed error rather than an MNC_CHECK abort inside matrix().
      if (!node->has_matrix()) {
        return Status::FailedPrecondition(
            "leaf '" + node->name() +
            "' is sketch-only (registered by streaming ingestion) and has "
            "no backing matrix to evaluate");
      }
      continue;
    }

    const ExprNode* left = node->left().get();
    const ExprNode* right =
        node->right() != nullptr ? node->right().get() : nullptr;
    if (left == nullptr) {
      return Status::InvalidArgument("node " + node->ToString() +
                                     " has no left operand");
    }
    const Shape a{left->rows(), left->cols()};
    const Shape b_shape{right != nullptr ? right->rows() : 0,
                        right != nullptr ? right->cols() : 0};
    StatusOr<Shape> out = TryInferOutputShape(
        node->op(), a, right != nullptr ? &b_shape : nullptr, node->rows(),
        node->cols());
    if (!out.ok()) {
      return out.status().WithContext("node " + node->ToString());
    }
    if (out->rows != node->rows() || out->cols != node->cols()) {
      return Status::InvalidArgument(
          "node " + node->ToString() + " declares " +
          std::to_string(node->rows()) + " x " + std::to_string(node->cols()) +
          " but its operands imply " + std::to_string(out->rows) + " x " +
          std::to_string(out->cols));
    }
    stack.push_back(left);
    if (right != nullptr) stack.push_back(right);
  }
  return Status::Ok();
}

StatusOr<Matrix> Evaluator::TryEvaluate(const ExprPtr& root) {
  MNC_RETURN_IF_ERROR(ValidateDag(root));
  try {
    return Evaluate(root);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("evaluation failed: ") + e.what());
  } catch (...) {
    return Status::Internal("evaluation failed with an unknown exception");
  }
}

}  // namespace mnc
