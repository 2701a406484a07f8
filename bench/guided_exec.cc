// Sketch-guided vs blind chain execution (the PR-5 execution layer).
//
// Evaluates a sparse matrix-product chain A1 %*% A2 %*% ... three ways:
// blind (the historical Evaluator), guided-cold (sketches built from the
// leaves inside the evaluation), and guided-warm (leaf sketches supplied up
// front, the estimation-service deployment). A chain of moderately sparse
// inputs densifies product by product, so one run exercises the whole
// guided decision table: single-pass bound-sized SpGEMM early, dense-direct
// accumulation once the estimate clears the dense dispatch threshold.
// Guided results are cross-checked bit-for-bit against blind before any
// timing is reported.
//
// Flags:
//   --dim <n>          square matrix dimension (default 1024)
//   --sparsity <f>     leaf sparsity (default 0.005)
//   --chain <k>        number of chained matrices (default 4)
//   --threads <t>      worker threads (default 4)
//   --reps <n>         repetitions; the median is reported (default 5)
//   --json             also write BENCH_guided.json
//   --check            exit non-zero unless warm guided evaluation is at
//                      least --min-speedup x the blind evaluation (used by
//                      ctest; values are compared for bit-identity first,
//                      so a pass means "same answer, not slower").
//   --min-speedup <x>  required blind/guided-warm ratio (default 1.0; the
//                      observed margin is large — guided skips the symbolic
//                      SpGEMM pass and the CSR detour of dense-bound
//                      products — so the default is deliberately modest to
//                      absorb loaded-CI timer noise).
//   --min-steady-speedup <x>  required cold-service/steady-service ratio
//                      (default 2.0). The steady leg runs the same chain
//                      through two EstimationServices: one with the plan
//                      cache disabled (every Execute re-runs
//                      canonicalization, sketch propagation, and row
//                      estimation — repeatable cold), one with it enabled
//                      (warm Executes replay the cached plan straight into
//                      the kernels). Steady results are verified
//                      bit-identical to cold before timing is reported.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "mnc/util/stopwatch.h"
#include "mnc/util/thread_pool.h"

namespace {

// Median-of-reps wall time of fn(), in seconds.
template <typename Fn>
double MedianSeconds(int64_t reps, const Fn& fn) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(reps));
  for (int64_t r = 0; r < reps; ++r) {
    mnc::Stopwatch watch;
    fn();
    times.push_back(watch.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t dim = mncbench::ArgInt(argc, argv, "dim", 1024);
  const double sparsity = mncbench::ArgDouble(argc, argv, "sparsity", 0.005);
  const int64_t chain = mncbench::ArgInt(argc, argv, "chain", 4);
  const int64_t threads = mncbench::ArgInt(argc, argv, "threads", 4);
  const int64_t reps = mncbench::ArgInt(argc, argv, "reps", 5);
  const bool json = mncbench::ArgFlag(argc, argv, "json");
  const bool check = mncbench::ArgFlag(argc, argv, "check");
  const double min_speedup =
      mncbench::ArgDouble(argc, argv, "min-speedup", 1.0);
  const double min_steady_speedup =
      mncbench::ArgDouble(argc, argv, "min-steady-speedup", 2.0);
  if (chain < 2) {
    std::fprintf(stderr, "error: --chain must be >= 2\n");
    return 1;
  }

  mnc::ThreadPool pool(static_cast<int>(threads));

  mnc::Rng rng(42);
  std::vector<mnc::ExprPtr> leaves;
  for (int64_t i = 0; i < chain; ++i) {
    leaves.push_back(mnc::ExprNode::Leaf(
        mnc::Matrix::Sparse(
            mnc::GenerateUniformSparse(dim, dim, sparsity, rng)),
        "A" + std::to_string(i)));
  }
  mnc::ExprPtr root = leaves[0];
  for (int64_t i = 1; i < chain; ++i) {
    root = mnc::ExprNode::MatMul(root, leaves[static_cast<size_t>(i)]);
  }

  // Precomputed leaf sketches for the warm configuration (what the
  // estimation service's catalog supplies).
  std::unordered_map<const mnc::ExprNode*,
                     std::shared_ptr<const mnc::MncSketch>>
      leaf_sketches;
  for (const auto& leaf : leaves) {
    leaf_sketches.emplace(leaf.get(),
                          std::make_shared<const mnc::MncSketch>(
                              mnc::MncSketch::FromMatrix(leaf->matrix())));
  }

  mnc::EvaluatorOptions guided_cold;
  guided_cold.guided = true;
  mnc::EvaluatorOptions guided_warm = guided_cold;
  guided_warm.leaf_sketches =
      [&leaf_sketches](const mnc::ExprNode& leaf)
      -> std::shared_ptr<const mnc::MncSketch> {
    auto it = leaf_sketches.find(&leaf);
    return it != leaf_sketches.end() ? it->second : nullptr;
  };

  // Cross-check: guided evaluation must reproduce the blind result
  // bit-for-bit (physical format may differ when an estimate disagrees with
  // the dense threshold, so compare the CSR images).
  mnc::Evaluator blind_ev(&pool);
  const mnc::Matrix blind_result = blind_ev.Evaluate(root);
  {
    mnc::Evaluator ev(&pool, guided_warm);
    const mnc::Matrix guided_result = ev.Evaluate(root);
    if (!blind_result.AsCsr().Equals(guided_result.AsCsr())) {
      std::fprintf(stderr, "FAIL: guided result differs from blind\n");
      return 1;
    }
  }

  // Fresh evaluator per run — the intermediate cache would otherwise
  // short-circuit every repetition.
  const double blind_s = MedianSeconds(reps, [&] {
    mnc::Evaluator ev(&pool);
    ev.Evaluate(root);
  });
  const double cold_s = MedianSeconds(reps, [&] {
    mnc::Evaluator ev(&pool, guided_cold);
    ev.Evaluate(root);
  });
  const double warm_s = MedianSeconds(reps, [&] {
    mnc::Evaluator ev(&pool, guided_warm);
    ev.Evaluate(root);
  });

  // Decision counters from one warm evaluation.
  mnc::Evaluator counter_ev(&pool, guided_warm);
  counter_ev.Evaluate(root);
  const mnc::GuidedExecStats& stats = counter_ev.guided_stats();

  // --- Steady-state serving leg -----------------------------------------
  // Two services over the same registered chain: `cold_svc` has the plan
  // cache disabled, so every ExecuteSource repeats the full analysis
  // pipeline; `steady_svc` has it enabled, so after one warm-up Execute the
  // cached plan is replayed. The expression string is what a repeat-operand
  // serving client would send.
  std::string source;
  for (int64_t i = 0; i < chain; ++i) {
    if (i > 0) source += " %*% ";
    source += "A" + std::to_string(i);
  }
  mnc::EstimationServiceOptions cold_opts;
  cold_opts.guided_exec = true;
  cold_opts.num_threads = static_cast<int>(threads);
  cold_opts.parallel.num_threads = static_cast<int>(threads);
  cold_opts.plan_cache_budget_bytes = 0;
  cold_opts.packed_operand_budget_bytes = 0;
  mnc::EstimationServiceOptions steady_opts = cold_opts;
  steady_opts.plan_cache_budget_bytes = 64LL << 20;
  steady_opts.packed_operand_budget_bytes = 64LL << 20;

  mnc::EstimationService cold_svc(cold_opts);
  mnc::EstimationService steady_svc(steady_opts);
  for (int64_t i = 0; i < chain; ++i) {
    const std::string name = "A" + std::to_string(i);
    const mnc::Matrix& m = leaves[static_cast<size_t>(i)]->matrix();
    if (!cold_svc.RegisterMatrix(name, m).ok() ||
        !steady_svc.RegisterMatrix(name, m).ok()) {
      std::fprintf(stderr, "FAIL: service registration failed\n");
      return 1;
    }
  }

  // Bit-identity first: the steady (plan-replayed) result must match the
  // cold guided result exactly — warm-up rep included, so both the
  // recording and the replaying Execute are checked.
  const auto cold_once = cold_svc.ExecuteSource(source);
  const auto steady_warmup = steady_svc.ExecuteSource(source);
  const auto steady_once = steady_svc.ExecuteSource(source);
  if (!cold_once.ok() || !steady_warmup.ok() || !steady_once.ok()) {
    std::fprintf(stderr, "FAIL: service execution failed\n");
    return 1;
  }
  if (!cold_once->AsCsr().Equals(steady_warmup->AsCsr()) ||
      !cold_once->AsCsr().Equals(steady_once->AsCsr())) {
    std::fprintf(stderr, "FAIL: steady result differs from cold guided\n");
    return 1;
  }
  if (steady_svc.stats().plan_hits < 1) {
    std::fprintf(stderr, "FAIL: steady service never hit the plan cache\n");
    return 1;
  }

  const double service_cold_s = MedianSeconds(reps, [&] {
    if (!cold_svc.ExecuteSource(source).ok()) std::abort();
  });
  const double steady_s = MedianSeconds(reps, [&] {
    if (!steady_svc.ExecuteSource(source).ok()) std::abort();
  });
  const double speedup_steady =
      steady_s > 0.0 ? service_cold_s / steady_s : 0.0;

  const double speedup_cold = cold_s > 0.0 ? blind_s / cold_s : 0.0;
  const double speedup_warm = warm_s > 0.0 ? blind_s / warm_s : 0.0;

  std::printf("guided_exec: dim=%lld sparsity=%g chain=%lld threads=%lld "
              "reps=%lld\n",
              static_cast<long long>(dim), sparsity,
              static_cast<long long>(chain), static_cast<long long>(threads),
              static_cast<long long>(reps));
  std::printf("  blind:        %9.3f ms\n", blind_s * 1e3);
  std::printf("  guided cold:  %9.3f ms  %6.2fx\n", cold_s * 1e3,
              speedup_cold);
  std::printf("  guided warm:  %9.3f ms  %6.2fx\n", warm_s * 1e3,
              speedup_warm);
  std::printf("  service cold: %9.3f ms  (plan cache off)\n",
              service_cold_s * 1e3);
  std::printf("  steady:       %9.3f ms  %6.2fx vs service cold "
              "(%lld plan hits)\n",
              steady_s * 1e3, speedup_steady,
              static_cast<long long>(steady_svc.stats().plan_hits));
  std::printf("  decisions: %lld products, %lld single-pass, "
              "%lld dense-direct, %lld fallbacks (%lld budget, "
              "%lld overflow), %lld scatter rows\n",
              static_cast<long long>(stats.guided_products),
              static_cast<long long>(stats.single_pass),
              static_cast<long long>(stats.dense_direct),
              static_cast<long long>(stats.two_pass_fallbacks +
                                     stats.overflow_fallbacks),
              static_cast<long long>(stats.two_pass_fallbacks),
              static_cast<long long>(stats.overflow_fallbacks),
              static_cast<long long>(stats.scatter_rows));
  std::printf("  reserve: guided %lld bytes vs blind model %lld bytes "
              "(%lld saved)\n",
              static_cast<long long>(stats.guided_reserve_bytes),
              static_cast<long long>(stats.blind_reserve_bytes),
              static_cast<long long>(stats.blind_reserve_bytes -
                                     stats.guided_reserve_bytes));
  std::printf("  output nnz %lld, sparsity %.6g\n",
              static_cast<long long>(blind_result.NumNonZeros()),
              blind_result.Sparsity());

  if (json) {
    mncbench::JsonReport report("guided");
    report.Add("dim", dim);
    report.Add("sparsity", sparsity);
    report.Add("chain", chain);
    report.Add("threads", threads);
    report.Add("reps", reps);
    report.Add("blind_seconds", blind_s);
    report.Add("guided_cold_seconds", cold_s);
    report.Add("guided_warm_seconds", warm_s);
    report.Add("speedup_cold", speedup_cold);
    report.Add("speedup_warm", speedup_warm);
    report.Add("service_cold_seconds", service_cold_s);
    report.Add("steady_seconds", steady_s);
    report.Add("speedup_steady", speedup_steady);
    report.Add("plan_hits", steady_svc.stats().plan_hits);
    report.Add("guided_products", stats.guided_products);
    report.Add("single_pass", stats.single_pass);
    report.Add("dense_direct", stats.dense_direct);
    report.Add("two_pass_fallbacks", stats.two_pass_fallbacks);
    report.Add("overflow_fallbacks", stats.overflow_fallbacks);
    report.Add("scatter_rows", stats.scatter_rows);
    report.Add("guided_reserve_bytes", stats.guided_reserve_bytes);
    report.Add("blind_reserve_bytes", stats.blind_reserve_bytes);
    report.Add("output_nnz", blind_result.NumNonZeros());
    report.WriteToFile();
  }

  if (check) {
    if (speedup_warm < min_speedup) {
      std::fprintf(stderr,
                   "CHECK FAILED: warm guided speedup %.2fx < required "
                   "%.2fx (blind %.3f ms, guided %.3f ms)\n",
                   speedup_warm, min_speedup, blind_s * 1e3, warm_s * 1e3);
      return 1;
    }
    if (speedup_steady < min_steady_speedup) {
      std::fprintf(stderr,
                   "CHECK FAILED: steady-state speedup %.2fx < required "
                   "%.2fx (service cold %.3f ms, steady %.3f ms)\n",
                   speedup_steady, min_steady_speedup, service_cold_s * 1e3,
                   steady_s * 1e3);
      return 1;
    }
    std::printf("CHECK PASSED: warm %.2fx >= %.2fx, steady %.2fx >= %.2fx, "
                "guided == blind, steady == cold\n",
                speedup_warm, min_speedup, speedup_steady,
                min_steady_speedup);
  }
  return 0;
}
