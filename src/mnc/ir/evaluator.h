// Ground-truth evaluation of expression DAGs.
//
// Executes the DAG with the FP64 engine (dense/sparse dispatch per
// operation), memoizing shared subexpressions by node identity. The measured
// output sparsities are the ground truth against which the SparsEst
// benchmark computes relative errors, and the execution itself is the
// runtime baseline "MM" in Figures 7(a)/8(a).
//
// With EvaluatorOptions::guided set, MNC sketches are propagated alongside
// evaluation and every matrix product is pre-sized and format-dispatched
// from the estimates before computing — the
// sketch-guided execution layer (see ops_product.h for the kernels and the
// bit-identity guarantee).

#ifndef MNC_IR_EVALUATOR_H_
#define MNC_IR_EVALUATOR_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "mnc/core/mnc_propagation.h"
#include "mnc/core/mnc_sketch.h"
#include "mnc/core/row_estimates.h"
#include "mnc/ir/expr.h"
#include "mnc/matrix/ops_product.h"
#include "mnc/util/status.h"
#include "mnc/util/thread_pool.h"

namespace mnc {

// One recorded guided-product decision — everything GuidedMultiply derived
// from the operands' sketches, in replayable form. A warm (plan-cached)
// execution re-dispatches each product from its entry without building or
// propagating a single sketch, and reproduces the cold guided execution
// bit-for-bit: the entry feeds the very same vectors and budgets back into
// the very same kernels.
struct ProductPlanEntry {
  bool sparse_sparse = false;  // both operands were CSR: guided SpGEMM path
  bool dense_direct = false;   // accumulate straight into a DenseMatrix
  double est_sparsity = 0.0;   // estimated output sparsity (dense paths)
  // Modeled blind allocation for dense-direct products (stat parity with
  // the cold run; the CSR kernel accounts its own reserve bytes).
  int64_t blind_reserve_bytes = 0;
  RowEstimateTable table;     // per-row bounds (sparse-sparse CSR path only)
  GuidedProductOptions opts;  // effective budgets at record time

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(sizeof(*this)) + table.MemoryBytes() -
           static_cast<int64_t>(sizeof(table));
  }
};

// Sketch-guided execution knobs. With guided off (the default) the
// evaluator behaves exactly as before: no sketches are built and every
// operation runs the blind kernels. With guided on, MNC sketches are
// propagated alongside evaluation and every matrix product consults them to
// pick allocation, pass structure and output format up front — the
// guided kernels guarantee bit-identical values either way (see
// mnc/matrix/ops_product.h), so `guided` is purely a performance switch.
struct EvaluatorOptions {
  bool guided = false;
  // Forwarded to GuidedProductOptions for sparse-sparse products.
  int64_t single_pass_budget_bytes = 64LL << 20;
  // Seed for sketch propagation's probabilistic rounding; evaluation order
  // over a fixed DAG is deterministic, so a fixed seed makes guided
  // decisions reproducible.
  uint64_t seed = 42;
  RoundingMode rounding = RoundingMode::kProbabilistic;
  // Optional source of precomputed leaf sketches (e.g. the estimation
  // service's catalog). Return nullptr to have the evaluator build the
  // sketch from the leaf matrix itself.
  std::function<std::shared_ptr<const MncSketch>(const ExprNode&)>
      leaf_sketches;
  // Optional calibration profile (mnc/tuning/machine_profile.h). When set,
  // its calibrated guided break-evens (dense-dispatch threshold,
  // single-pass budget, blind-reserve model) replace the built-in
  // constants above, and its seq-vs-par crossovers steer the propagation /
  // SpGEMM parallelism. nullptr falls back to the process-wide active
  // profile, then to the constants. Purely a performance switch: every
  // calibrated choice selects among bit-identical execution paths.
  std::shared_ptr<const tuning::MachineProfile> profile;
  // Plan record/replay hooks (the estimation service's warm-path plan
  // cache; see mnc/service/plan_cache.h). At most one of {guided +
  // plan_record, plan_lookup} is meaningful per evaluator:
  //   - plan_record fires once per guided matrix product with the node and
  //     the decisions GuidedMultiply just derived (guided mode only).
  //   - plan_lookup non-null switches evaluation into replay mode: guided
  //     stays off, no sketch is built or propagated, and every product
  //     re-dispatches from its recorded entry. A node without an entry
  //     falls back to the blind kernel (bit-identical values).
  std::function<void(const ExprNode*, ProductPlanEntry)> plan_record;
  std::function<const ProductPlanEntry*(const ExprNode*)> plan_lookup;
  // Precomputed exact transpose of a cataloged leaf (the packed-operand
  // store). Consulted for Transpose(leaf) nodes; must return either nullptr
  // or the bit-exact Transpose of the leaf's matrix.
  std::function<std::shared_ptr<const Matrix>(const ExprNode&)>
      cached_transpose;
};

class Evaluator {
 public:
  // pool (optional, not owned) parallelizes dense matrix products.
  explicit Evaluator(ThreadPool* pool = nullptr) : pool_(pool) {}

  // Guided construction; see EvaluatorOptions.
  Evaluator(ThreadPool* pool, EvaluatorOptions options)
      : pool_(pool), options_(std::move(options)) {}

  // Evaluates the DAG rooted at `root`. Results of shared subexpressions are
  // cached for the lifetime of the Evaluator, so evaluating several related
  // roots (e.g., all intermediates of a chain) reuses work.
  Matrix Evaluate(const ExprPtr& root);

  // Recoverable boundary for untrusted DAGs: validates the root and every
  // node's operand shapes up front (InvalidArgument naming the node), and
  // converts execution-time worker failures — e.g. a thread-pool task
  // killed by the "threadpool.task" fail point — into kInternal instead of
  // propagating an exception.
  StatusOr<Matrix> TryEvaluate(const ExprPtr& root);

  // Shape-consistency sweep over the DAG without executing it.
  Status ValidateDag(const ExprPtr& root) const;

  // Drops all cached intermediates (and, in guided mode, their sketches).
  void ClearCache() {
    cache_.clear();
    sketches_.clear();
    pinned_roots_.clear();
    sketch_seq_ = 0;
  }

  // Guided-execution counters accumulated across Evaluate calls (all zero
  // when guided is off).
  const GuidedExecStats& guided_stats() const { return guided_stats_; }

  // The sketch propagated for `node` during a guided evaluation, or nullptr
  // (never populated with guided off).
  const MncSketch* NodeSketch(const ExprNode* node) const {
    auto it = sketches_.find(node);
    return it != sketches_.end() ? it->second.get() : nullptr;
  }

 private:
  // Sketch of a leaf/internal node, memoized in sketches_. Children's
  // sketches must already be present for internal nodes.
  const MncSketch& SketchFor(const ExprNode* node);

  // Sketch-guided matrix product dispatch (guided mode only). `node` is the
  // product being evaluated, forwarded to the plan_record hook.
  Matrix GuidedMultiply(const ExprNode* node, const Matrix& a, const Matrix& b,
                        const MncSketch& sa, const MncSketch& sb);

  // Warm replay of a recorded product decision (plan_lookup mode only);
  // falls back to the blind kernel when no entry was recorded for `node`.
  Matrix ReplayMultiply(const ExprNode* node, const Matrix& a,
                        const Matrix& b);

  // Parallel-propagation config sized to the attached pool (carries the
  // evaluator's profile for per-stage calibrated dispatch).
  ParallelConfig GuidedConfig() const;

  // The calibration profile in effect: the explicit option, else the
  // process-wide active one, else nullptr.
  const tuning::MachineProfile* GuidedProfile() const;

  ThreadPool* pool_;
  EvaluatorOptions options_;
  GuidedExecStats guided_stats_;
  std::unordered_map<const ExprNode*, Matrix> cache_;
  std::unordered_map<const ExprNode*, std::shared_ptr<const MncSketch>>
      sketches_;
  // Per-node propagation seed counter; deterministic because the post-order
  // walk over a fixed DAG visits nodes in a fixed order.
  uint64_t sketch_seq_ = 0;
  // The cache keys on node identity, so every evaluated root is pinned to
  // keep its DAG alive — otherwise a freed node's address could be reused
  // by a new node and alias a stale cache entry.
  std::vector<ExprPtr> pinned_roots_;
};

}  // namespace mnc

#endif  // MNC_IR_EVALUATOR_H_
