// mnc_tool — command-line front end for the MNC library.
//
// Subcommands:
//   generate <kind> <rows> <cols> <sparsity> <out.mtx> [seed]
//       Writes a random Matrix-Market file. Kinds: uniform, permutation,
//       diagonal, token (one non-zero per row, Zipf columns), graph.
//   sketch <a.mtx> [--out <a.mncs>] [--stream] [--chunk <entries>]
//       Prints the MNC sketch summary statistics of a matrix; --out also
//       serializes the sketch (binary) for later driver-side estimation.
//       --stream builds the sketch out-of-core from the file (Matrix Market
//       or MNCT binary triplets) in --chunk-sized pieces without ever
//       materializing the matrix: peak memory is O(chunk + sketch).
//   estimate-sketches <a.mncs> <b.mncs>
//       Estimates the product sparsity (with a confidence interval) purely
//       from serialized sketches — no matrix data needed.
//   estimate <op> <a.mtx> [b.mtx] [--exact]
//       Estimates the output sparsity of one operation with every
//       applicable estimator. Ops: matmul, add, emult, emin, emax,
//       transpose, rowsums, colsums. --exact also executes the operation.
//   chain <m1.mtx> <m2.mtx> [...]
//       Optimizes the multiplication chain, comparing the dimension-only
//       and the sparsity-aware (MNC) dynamic programs.
//   calibrate [--out <profile.mncp>] [--threads <n>] [--reps <n>] [--quick]
//       Micro-benchmarks this machine (scalar-vs-SIMD per kernel,
//       seq-vs-par crossover per parallel stage, guided-execution
//       break-evens) and persists the fitted MachineProfile — by default
//       to ~/.cache/mnc/profile.mncp, where the library auto-loads it.
//       See src/mnc/tuning/.
//   serve [--budget-mb <m>] [--threads <n>] [--guided]
//       [--spill-dir <dir> --catalog-budget-mb <m>]
//       [--plan-budget-mb <m>] [--packed-budget-mb <m>]
//       [--exec "cmd; cmd; ..."] [--listen <port> [--workers <n>]
//       [--max-connections <n>]]
//       Runs a long-lived estimation service: matrices are registered once
//       (sketch catalog with content dedup), and repeated queries are
//       answered from the canonicalized-expression memo cache. With
//       --guided, `exec` runs sketch-guided (products pre-sized and
//       format-dispatched from the cataloged sketches; identical values,
//       counters reported by `stats`). With --spill-dir and
//       --catalog-budget-mb, cold catalog sketches are LRU-evicted to
//       checksummed disk segments and fault back transparently on use.
//       With --guided, repeated `exec` of the same expression over the same
//       operands replays a cached plan (canonicalization, propagation, and
//       row estimation skipped; bit-identical results). --plan-budget-mb /
//       --packed-budget-mb size the plan cache and packed-operand store
//       (defaults 16/32 MB; 0 disables).
//       Commands, one per stdin line (or ';'-separated via --exec):
//         register <name> <file.mtx>   build/reuse the sketch of a matrix
//         register-path <name> <file> [<file2> ...] [--union]
//                                      streaming registration (sketch the
//                                      files chunk-by-chunk, out-of-core)
//         estimate <expression>        estimate a DML-like expression
//         exec <expression>            evaluate a DML-like expression
//         stats                        print catalog/memo/query counters
//         clear                        drop all memoized sub-expressions
//         clear-catalog                drop sketches, packed operands, plans
//         sleep <ms>                   hold a worker (testing/drain drills)
//         quit                         exit
//       With --listen the same commands are served over a framed TCP
//       socket on 127.0.0.1:<port> (--exec preloads the catalog first);
//       SIGINT/SIGTERM drains gracefully. Without --listen, stdin is the
//       offline mode of the same command layer.
//   client --connect <port> [--deadline-ms <n>] [--exec "cmd; cmd; ..."]
//       Connects to a `serve --listen` server and runs commands from stdin
//       (or --exec). Typed server errors (deadline exceeded, server busy,
//       degraded-tier notes) are reported per command.
//   expr "<expression-or-script>" --bind NAME=file.mtx [--bind ...]
//       [--exact]
//       Parses a DML-like expression or multi-statement script (%*%, *, +,
//       t(), reshape(), diag(), rbind/cbind, min/max, rowSums/colSums,
//       != 0, == 0, scalar*, "Y = ...;" assignments) over the bound
//       matrices and estimates its output sparsity with every applicable
//       estimator.
//
// Example session:
//   mnc_tool generate uniform 5000 5000 0.001 a.mtx
//   mnc_tool generate uniform 5000 5000 0.001 b.mtx
//   mnc_tool estimate matmul a.mtx b.mtx --exact

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mnc/mnc.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  mnc_tool generate <uniform|permutation|diagonal|token|"
               "graph> <rows> <cols> <sparsity> <out.mtx> [seed]\n"
               "  mnc_tool sketch <a.mtx> [--out <a.mncs>] [--stream]"
               " [--chunk <entries>]\n"
               "  mnc_tool estimate-sketches <a.mncs> <b.mncs>\n"
               "  mnc_tool estimate <matmul|add|emult|emin|emax|transpose|"
               "rowsums|colsums> <a.mtx> [b.mtx] [--exact]\n"
               "  mnc_tool chain <m1.mtx> <m2.mtx> [...]\n"
               "  mnc_tool expr \"<expression>\" --bind NAME=file.mtx"
               " [--bind ...] [--exact]\n"
               "  mnc_tool calibrate [--out <profile.mncp>] [--threads <n>]"
               " [--reps <n>] [--quick]\n"
               "  mnc_tool serve [--budget-mb <m>] [--threads <n>]"
               " [--guided] [--profile <profile.mncp>]"
               " [--spill-dir <dir> --catalog-budget-mb <m>]"
               " [--plan-budget-mb <m>] [--packed-budget-mb <m>]"
               " [--exec \"cmd; cmd; ...\"]"
               " [--listen <port> [--workers <n>]"
               " [--max-connections <n>]]\n"
               "  mnc_tool client --connect <port> [--deadline-ms <n>]"
               " [--exec \"cmd; cmd; ...\"]\n");
  return 2;
}

mnc::StatusOr<mnc::CsrMatrix> Load(const char* path) {
  auto m = mnc::ReadMatrixMarketFile(path);
  if (!m.ok()) {
    std::fprintf(stderr, "error: %s\n", m.status().ToString().c_str());
  }
  return m;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 7) return Usage();
  const std::string kind = argv[2];
  const int64_t rows = std::atoll(argv[3]);
  const int64_t cols = std::atoll(argv[4]);
  const double sparsity = std::atof(argv[5]);
  const char* out = argv[6];
  mnc::Rng rng(argc > 7 ? static_cast<uint64_t>(std::atoll(argv[7])) : 42);

  mnc::CsrMatrix m(0, 0);
  if (kind == "uniform") {
    m = mnc::GenerateUniformSparse(rows, cols, sparsity, rng);
  } else if (kind == "permutation") {
    m = mnc::GeneratePermutation(rows, rng);
  } else if (kind == "diagonal") {
    m = mnc::GenerateDiagonal(rows, rng);
  } else if (kind == "token") {
    mnc::ZipfDistribution dist(cols, 1.1);
    m = mnc::GenerateOneNnzPerRow(rows, cols, dist, rng);
  } else if (kind == "graph") {
    m = mnc::GenerateGraphAdjacency(
        rows, sparsity * static_cast<double>(cols), 1.1, rng);
  } else {
    return Usage();
  }
  if (const mnc::Status s = mnc::WriteMatrixMarketFile(m, out); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %lld x %lld, %lld non-zeros (sparsity %.3g)\n", out,
              static_cast<long long>(m.rows()),
              static_cast<long long>(m.cols()),
              static_cast<long long>(m.NumNonZeros()), m.Sparsity());
  return 0;
}

int CmdSketch(int argc, char** argv) {
  if (argc < 3) return Usage();
  const char* out = nullptr;
  bool stream = false;
  long long chunk = 0;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
    if (std::strcmp(argv[i], "--stream") == 0) stream = true;
    if (std::strcmp(argv[i], "--chunk") == 0 && i + 1 < argc) {
      chunk = std::strtoll(argv[++i], nullptr, 10);
    }
  }

  mnc::Stopwatch watch;
  std::optional<mnc::MncSketch> built;
  double build_ms = 0.0;
  if (stream) {
    // Out-of-core path: the matrix is never materialized; peak memory is
    // O(chunk + sketch).
    auto src = mnc::ingest::OpenTripletSource(argv[2]);
    if (!src.ok()) {
      std::fprintf(stderr, "error: %s\n", src.status().ToString().c_str());
      return 1;
    }
    mnc::ingest::StreamSketchOptions opts;
    if (chunk > 0) opts.chunk_entries = chunk;
    auto streamed = mnc::ingest::BuildSketchStreaming(*src.value(), opts);
    if (!streamed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   streamed.status().ToString().c_str());
      return 1;
    }
    built.emplace(std::move(streamed).value());
    build_ms = watch.ElapsedMillis();
  } else {
    const auto m = Load(argv[2]);
    if (!m.ok()) return 1;
    watch = mnc::Stopwatch();
    built.emplace(mnc::MncSketch::FromCsr(*m));
    build_ms = watch.ElapsedMillis();
  }
  const mnc::MncSketch& h = *built;

  std::printf("matrix: %lld x %lld, %lld non-zeros (sparsity %.6g)\n",
              static_cast<long long>(h.rows()),
              static_cast<long long>(h.cols()),
              static_cast<long long>(h.nnz()), h.Sparsity());
  std::printf("sketch: %lld bytes, built in %.3f ms\n",
              static_cast<long long>(h.SizeBytes()), build_ms);
  std::printf("  max(hr)=%lld  max(hc)=%lld\n",
              static_cast<long long>(h.max_hr()),
              static_cast<long long>(h.max_hc()));
  std::printf("  non-empty rows=%lld cols=%lld\n",
              static_cast<long long>(h.non_empty_rows()),
              static_cast<long long>(h.non_empty_cols()));
  std::printf("  single-nnz rows=%lld cols=%lld\n",
              static_cast<long long>(h.single_nnz_rows()),
              static_cast<long long>(h.single_nnz_cols()));
  std::printf("  half-full rows=%lld cols=%lld\n",
              static_cast<long long>(h.half_full_rows()),
              static_cast<long long>(h.half_full_cols()));
  std::printf("  diagonal=%s extended=%s\n",
              h.is_diagonal() ? "yes" : "no",
              h.has_extended() ? "yes" : "no");
  if (out != nullptr) {
    if (const mnc::Status s = mnc::WriteSketchFile(h, out); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("sketch written to %s\n", out);
  }
  return 0;
}

int CmdEstimateSketches(int argc, char** argv) {
  if (argc < 4) return Usage();
  const auto a = mnc::ReadSketchFile(argv[2]);
  const auto b = mnc::ReadSketchFile(argv[3]);
  if (!a.ok()) {
    std::fprintf(stderr, "error: %s\n", a.status().ToString().c_str());
    return 1;
  }
  if (!b.ok()) {
    std::fprintf(stderr, "error: %s\n", b.status().ToString().c_str());
    return 1;
  }
  if (a->cols() != b->rows()) {
    std::fprintf(stderr, "error: inner dimensions disagree (%lld vs %lld)\n",
                 static_cast<long long>(a->cols()),
                 static_cast<long long>(b->rows()));
    return 1;
  }
  mnc::Stopwatch watch;
  const mnc::SparsityInterval interval =
      mnc::EstimateProductSparsityInterval(*a, *b);
  std::printf("product %lld x %lld\n", static_cast<long long>(a->rows()),
              static_cast<long long>(b->cols()));
  std::printf("estimated sparsity: %.6g%s (in %.3f ms)\n", interval.estimate,
              interval.exact ? " (exact)" : "", watch.ElapsedMillis());
  if (!interval.exact) {
    std::printf("95%% interval:       [%.6g, %.6g]\n", interval.lower,
                interval.upper);
  }
  return 0;
}

// Runs every applicable estimator over the DAG and prints one row each,
// optionally followed by the exact (executed) result.
int EstimateAndReport(const mnc::ExprPtr& expr, bool exact) {
  std::printf("%-16s %-14s %-12s\n", "estimator", "sparsity", "time[ms]");
  mnc::MetaAcEstimator meta_ac;
  mnc::MetaWcEstimator meta_wc;
  mnc::SamplingEstimator sample(true);
  mnc::MncEstimator mnc_est;
  mnc::DensityMapEstimator dmap;
  mnc::LayeredGraphEstimator lgraph;
  for (mnc::SparsityEstimator* est :
       std::vector<mnc::SparsityEstimator*>{&meta_wc, &meta_ac, &sample,
                                            &mnc_est, &dmap, &lgraph}) {
    mnc::SketchPropagator prop(est);
    mnc::Stopwatch watch;
    const auto sparsity = prop.EstimateSparsity(expr);
    const double ms = watch.ElapsedMillis();
    if (sparsity.has_value()) {
      std::printf("%-16s %-14.6g %-12.3f\n", est->Name().c_str(), *sparsity,
                  ms);
    } else {
      std::printf("%-16s %-14s %-12s\n", est->Name().c_str(), "n/a", "-");
    }
  }

  if (exact) {
    mnc::ThreadPool pool;
    mnc::Evaluator eval(&pool);
    mnc::Stopwatch watch;
    const mnc::Matrix result = eval.Evaluate(expr);
    std::printf("%-16s %-14.6g %-12.3f  (%lld non-zeros)\n", "EXACT",
                result.Sparsity(), watch.ElapsedMillis(),
                static_cast<long long>(result.NumNonZeros()));
  }
  return 0;
}

int CmdEstimate(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string op_name = argv[2];
  bool exact = false;
  std::vector<const char*> files;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--exact") == 0) {
      exact = true;
    } else {
      files.push_back(argv[i]);
    }
  }

  mnc::OpKind op;
  bool binary = true;
  if (op_name == "matmul") {
    op = mnc::OpKind::kMatMul;
  } else if (op_name == "add") {
    op = mnc::OpKind::kEWiseAdd;
  } else if (op_name == "emult") {
    op = mnc::OpKind::kEWiseMult;
  } else if (op_name == "emin") {
    op = mnc::OpKind::kEWiseMin;
  } else if (op_name == "emax") {
    op = mnc::OpKind::kEWiseMax;
  } else if (op_name == "transpose") {
    op = mnc::OpKind::kTranspose;
    binary = false;
  } else if (op_name == "rowsums") {
    op = mnc::OpKind::kRowSums;
    binary = false;
  } else if (op_name == "colsums") {
    op = mnc::OpKind::kColSums;
    binary = false;
  } else {
    return Usage();
  }
  if (files.size() != (binary ? 2u : 1u)) return Usage();

  const auto a = Load(files[0]);
  if (!a.ok()) return 1;
  std::optional<mnc::CsrMatrix> b;
  if (binary) {
    auto loaded = Load(files[1]);
    if (!loaded.ok()) return 1;
    b = std::move(loaded).value();
  }

  // Validate shape compatibility before building the expression: the files
  // are untrusted input, so a mismatch is a clean error, not an abort.
  {
    const mnc::Shape shape_a{a->rows(), a->cols()};
    std::optional<mnc::Shape> shape_b;
    if (binary) shape_b = mnc::Shape{b->rows(), b->cols()};
    const auto out = mnc::TryInferOutputShape(
        op, shape_a, shape_b ? &*shape_b : nullptr);
    if (!out.ok()) {
      std::fprintf(stderr, "error: %s\n", out.status().ToString().c_str());
      return 1;
    }
  }

  mnc::ExprPtr expr_a =
      mnc::ExprNode::Leaf(mnc::Matrix::AutoFromCsr(*a), files[0]);
  mnc::ExprPtr expr;
  switch (op) {
    case mnc::OpKind::kMatMul:
      expr = mnc::ExprNode::MatMul(
          expr_a, mnc::ExprNode::Leaf(mnc::Matrix::AutoFromCsr(*b),
                                      files[1]));
      break;
    case mnc::OpKind::kEWiseAdd:
      expr = mnc::ExprNode::EWiseAdd(
          expr_a, mnc::ExprNode::Leaf(mnc::Matrix::AutoFromCsr(*b),
                                      files[1]));
      break;
    case mnc::OpKind::kEWiseMult:
      expr = mnc::ExprNode::EWiseMult(
          expr_a, mnc::ExprNode::Leaf(mnc::Matrix::AutoFromCsr(*b),
                                      files[1]));
      break;
    case mnc::OpKind::kEWiseMin:
      expr = mnc::ExprNode::EWiseMin(
          expr_a, mnc::ExprNode::Leaf(mnc::Matrix::AutoFromCsr(*b),
                                      files[1]));
      break;
    case mnc::OpKind::kEWiseMax:
      expr = mnc::ExprNode::EWiseMax(
          expr_a, mnc::ExprNode::Leaf(mnc::Matrix::AutoFromCsr(*b),
                                      files[1]));
      break;
    case mnc::OpKind::kTranspose:
      expr = mnc::ExprNode::Transpose(expr_a);
      break;
    case mnc::OpKind::kRowSums:
      expr = mnc::ExprNode::RowSums(expr_a);
      break;
    case mnc::OpKind::kColSums:
      expr = mnc::ExprNode::ColSums(expr_a);
      break;
    default:
      return Usage();
  }

  return EstimateAndReport(expr, exact);
}

int CmdExpr(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string source = argv[2];
  bool exact = false;
  std::map<std::string, mnc::Matrix> bindings;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--exact") == 0) {
      exact = true;
      continue;
    }
    if (std::strcmp(argv[i], "--bind") == 0 && i + 1 < argc) {
      const std::string spec = argv[++i];
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "error: --bind expects NAME=file.mtx, got %s\n",
                     spec.c_str());
        return 2;
      }
      const auto m = Load(spec.substr(eq + 1).c_str());
      if (!m.ok()) return 1;
      bindings.emplace(spec.substr(0, eq), mnc::Matrix::AutoFromCsr(*m));
      continue;
    }
    return Usage();
  }

  // ParseProgram accepts both single expressions and multi-statement
  // scripts ("Y = X %*% W; Y != 0").
  const mnc::ParseResult parsed = mnc::ParseProgram(source, bindings);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
    return 1;
  }
  std::printf("expression: %s (%lld x %lld output)\n",
              parsed.expr->ToString().c_str(),
              static_cast<long long>(parsed.expr->rows()),
              static_cast<long long>(parsed.expr->cols()));
  return EstimateAndReport(parsed.expr, exact);
}

int CmdChain(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::vector<mnc::MncSketch> sketches;
  std::vector<mnc::Shape> shapes;
  for (int i = 2; i < argc; ++i) {
    const auto m = Load(argv[i]);
    if (!m.ok()) return 1;
    if (!sketches.empty() && sketches.back().cols() != m->rows()) {
      std::fprintf(stderr, "error: chain dimension mismatch at %s\n",
                   argv[i]);
      return 1;
    }
    sketches.push_back(mnc::MncSketch::FromCsr(*m));
    shapes.push_back({m->rows(), m->cols()});
  }

  const mnc::MMChainResult dense = mnc::OptimizeMMChainDense(shapes);
  const mnc::MMChainResult sparse = mnc::OptimizeMMChainSparse(sketches);
  const double dense_cost =
      mnc::EvaluatePlanCostSparse(*dense.plan, sketches);
  const double sparse_cost =
      mnc::EvaluatePlanCostSparse(*sparse.plan, sketches);
  std::printf("dimension-only plan:  %s\n  sparse cost %.4g\n",
              mnc::PlanToString(*dense.plan).c_str(), dense_cost);
  std::printf("sparsity-aware plan:  %s\n  sparse cost %.4g (%.2fx better)\n",
              mnc::PlanToString(*sparse.plan).c_str(), sparse_cost,
              dense_cost / sparse_cost);
  return 0;
}

// --- serve: long-lived estimation service, offline (stdin/--exec) or as a
// framed socket server (--listen); `client` connects to the latter. Both
// front ends share mnc::serve::RunServeCommand so the command language
// cannot drift between modes.

// Signal plumbing for `serve --listen`: the handler may only touch
// async-signal-safe state, so it flips a flag and pokes the server's wake
// pipe; the main thread notices and runs the graceful drain.
volatile std::sig_atomic_t g_stop_requested = 0;
mnc::serve::Server* g_signal_server = nullptr;

void HandleStopSignal(int) {
  g_stop_requested = 1;
  if (g_signal_server != nullptr) g_signal_server->RequestShutdown();
}

// Runs one offline command, printing the outcome the way the REPL always
// has (body to stdout, errors to stderr).
mnc::serve::CommandOutcome RunOfflineCommand(mnc::EstimationService& service,
                                             const std::string& line) {
  const mnc::serve::CommandOutcome out =
      mnc::serve::RunServeCommand(service, line);
  if (!out.ok()) {
    std::fprintf(stderr, "error: %s\n", out.status.ToString().c_str());
  } else if (!out.body.empty()) {
    std::printf("%s\n", out.body.c_str());
  }
  return out;
}

// Splits an `--exec "cmd; cmd"` script and feeds `run`; stops early when a
// command asks to quit. Returns true when every command succeeded.
template <typename RunFn>
bool RunExecScript(const std::string& script, RunFn run) {
  bool all_ok = true;
  size_t start = 0;
  while (start <= script.size()) {
    const size_t end = script.find(';', start);
    const std::string cmd = script.substr(
        start, end == std::string::npos ? std::string::npos : end - start);
    bool quit = false;
    if (!run(cmd, &quit)) all_ok = false;
    if (quit || end == std::string::npos) break;
    start = end + 1;
  }
  return all_ok;
}

int RunListenServer(mnc::EstimationService& service, int port, int workers,
                    int max_connections) {
  mnc::serve::ServerOptions sopts;
  sopts.port = port;
  if (workers > 0) sopts.num_workers = workers;
  if (max_connections > 0) sopts.max_connections = max_connections;
  mnc::serve::Server server(&service, sopts);
  if (const mnc::Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }

  g_signal_server = &server;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  std::printf("serving on 127.0.0.1:%d (SIGINT/SIGTERM drains and exits)\n",
              server.port());
  std::fflush(stdout);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Shutdown();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_signal_server = nullptr;

  const mnc::serve::ServerStats st = server.stats();
  std::printf("drained: %lld connections, %lld requests, %lld replies "
              "(%lld degraded), %lld errors (%lld busy, %lld deadline), "
              "%lld malformed frames\n",
              static_cast<long long>(st.accepted),
              static_cast<long long>(st.requests),
              static_cast<long long>(st.replies),
              static_cast<long long>(st.degraded),
              static_cast<long long>(st.typed_errors),
              static_cast<long long>(st.busy_rejected),
              static_cast<long long>(st.deadline_errors),
              static_cast<long long>(st.malformed_frames));
  return 0;
}

int CmdCalibrate(int argc, char** argv) {
  mnc::tuning::CalibrationOptions copt;
  std::string out = mnc::tuning::DefaultProfilePath();
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      copt.threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      copt.reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      copt.quick = true;
    } else {
      return Usage();
    }
  }
  const auto profile = mnc::tuning::Calibrate(copt);
  if (!profile.ok()) {
    std::fprintf(stderr, "error: %s\n", profile.status().ToString().c_str());
    return 1;
  }
  const mnc::tuning::MachineProfile& p = profile.value();
  std::printf("machine profile (threads=%d, simd=%s)\n", p.calibrated_threads,
              mnc::SimdLevelName(p.simd_level));
  std::printf("%-20s %10s %10s %s\n", "kernel", "cache x", "stream x",
              "verdict");
  for (int i = 0; i < mnc::tuning::kNumTunedKernels; ++i) {
    const mnc::tuning::KernelCalib& k = p.kernels[i];
    std::printf("%-20s %9.2fx %9.2fx %s\n",
                mnc::tuning::TunedKernelName(
                    static_cast<mnc::tuning::TunedKernel>(i)),
                k.simd_cache_ns > 0 ? k.scalar_cache_ns / k.simd_cache_ns : 1.0,
                k.simd_stream_ns > 0 ? k.scalar_stream_ns / k.simd_stream_ns
                                     : 1.0,
                k.use_simd ? "simd" : "scalar");
  }
  static const char* kStageNames[] = {"sketch_build", "estimate", "propagate",
                                      "spgemm"};
  for (int s = 0; s < mnc::kNumTunedStages; ++s) {
    const mnc::tuning::StageCalib& c = p.stages[s];
    if (c.crossover_work >= mnc::tuning::kNeverParallel) {
      std::printf("%-20s par: never\n", kStageNames[s]);
    } else if (c.crossover_work <= 0) {
      std::printf("%-20s par: always (grain %lld)\n", kStageNames[s],
                  static_cast<long long>(c.grain));
    } else {
      std::printf("%-20s par above work %lld (grain %lld)\n", kStageNames[s],
                  static_cast<long long>(c.crossover_work),
                  static_cast<long long>(c.grain));
    }
  }
  std::printf("guided: dense threshold %.3f, single-pass budget %lld MB, "
              "reserve %.1f B/nnz\n",
              p.guided.dense_dispatch_threshold,
              static_cast<long long>(p.guided.single_pass_budget_bytes >> 20),
              p.guided.blind_reserve_bytes_per_nnz);
  if (out.empty()) {
    std::fprintf(stderr,
                 "warning: no --out and no derivable default path; profile "
                 "not persisted\n");
    return 0;
  }
  const mnc::Status st = mnc::tuning::SaveProfile(p, out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("profile written to %s\n", out.c_str());
  return 0;
}

int CmdServe(int argc, char** argv) {
  mnc::EstimationServiceOptions options;
  const char* exec = nullptr;
  int listen_port = -1;
  int workers = 0;
  int max_connections = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--budget-mb") == 0 && i + 1 < argc) {
      options.memo_budget_bytes = std::atoll(argv[++i]) << 20;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      // Sizes the batch pool AND enables the parallel kernels (sketch
      // construction, Algorithm 1, Eq. 11 propagation) at the same width;
      // deterministic blocking keeps answers thread-count-independent.
      options.num_threads = std::atoi(argv[++i]);
      options.parallel.num_threads = options.num_threads;
    } else if (std::strcmp(argv[i], "--guided") == 0) {
      options.guided_exec = true;
    } else if (std::strcmp(argv[i], "--spill-dir") == 0 && i + 1 < argc) {
      options.spill_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--catalog-budget-mb") == 0 &&
               i + 1 < argc) {
      options.catalog_resident_budget_bytes = std::atoll(argv[++i]) << 20;
    } else if (std::strcmp(argv[i], "--plan-budget-mb") == 0 && i + 1 < argc) {
      // Warm-path plan cache (0 disables). Only consulted with --guided.
      options.plan_cache_budget_bytes = std::atoll(argv[++i]) << 20;
    } else if (std::strcmp(argv[i], "--packed-budget-mb") == 0 &&
               i + 1 < argc) {
      // Packed-operand store budget (0 disables).
      options.packed_operand_budget_bytes = std::atoll(argv[++i]) << 20;
    } else if (std::strcmp(argv[i], "--exec") == 0 && i + 1 < argc) {
      exec = argv[++i];
    } else if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      listen_port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-connections") == 0 &&
               i + 1 < argc) {
      // Connection-count bound (--listen mode); 0 = unlimited.
      max_connections = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      // Calibration profile for the serving tier: steers seq-vs-par and
      // guided dispatch for this service AND installs the per-kernel
      // scalar/SIMD verdicts process-wide. Answers are bit-identical with
      // or without it.
      auto loaded = mnc::tuning::LoadProfile(argv[++i]);
      if (!loaded.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      auto profile = std::make_shared<const mnc::tuning::MachineProfile>(
          std::move(loaded).value());
      // Detection only: an explicit --profile is honored even when foreign,
      // but say so — replayed crossovers from another box skew timing (the
      // answers stay bit-identical either way).
      std::string why;
      if (!mnc::tuning::ProfileMatchesHost(*profile, &why)) {
        std::fprintf(stderr,
                     "warning: profile %s does not match this host (%s)\n",
                     argv[i], why.c_str());
      }
      mnc::tuning::SetActiveProfile(profile);
      options.profile = std::move(profile);
    } else {
      return Usage();
    }
  }

  mnc::EstimationService service(options);

  // --exec runs first in both modes; with --listen it preloads the catalog
  // before the socket opens.
  bool exec_ok = true;
  if (exec != nullptr) {
    exec_ok = RunExecScript(exec, [&](const std::string& cmd, bool* quit) {
      const auto out = RunOfflineCommand(service, cmd);
      *quit = out.quit;
      return out.ok();
    });
    if (listen_port < 0) return exec_ok ? 0 : 1;
    if (!exec_ok) return 1;  // refuse to serve from a half-loaded catalog
  }

  if (listen_port >= 0) {
    return RunListenServer(service, listen_port, workers, max_connections);
  }

  // Interactive stdin REPL: a failed command reports its error and keeps
  // the session alive; EOF (or quit) is a clean exit 0. Only --exec
  // scripting turns command failures into a nonzero exit code.
  std::string line;
  while (std::getline(std::cin, line)) {
    if (RunOfflineCommand(service, line).quit) break;
  }
  return 0;
}

int CmdClient(int argc, char** argv) {
  int port = -1;
  long deadline_ms = 0;
  const char* exec = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atol(argv[++i]);
    } else if (std::strcmp(argv[i], "--exec") == 0 && i + 1 < argc) {
      exec = argv[++i];
    } else {
      return Usage();
    }
  }
  if (port <= 0) return Usage();

  mnc::serve::ServeClient client;
  if (const mnc::Status s = client.Connect(port); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }

  bool transport_down = false;
  // Returns false on any failure (typed server error or transport fault);
  // sets *quit when the session ended.
  auto run_one = [&](const std::string& cmd, bool* quit) {
    *quit = false;
    if (cmd.find_first_not_of(" \t\r\n") == std::string::npos) return true;
    const auto reply = client.Call(cmd, static_cast<uint32_t>(deadline_ms));
    if (!reply.ok()) {
      std::fprintf(stderr, "transport error: %s\n",
                   reply.status().ToString().c_str());
      transport_down = true;
      *quit = true;
      return false;
    }
    if (!reply->ok()) {
      // Typed server error: report it, session stays usable.
      std::fprintf(stderr, "error: %s\n", reply->status.ToString().c_str());
      return false;
    }
    if (!reply->body.empty()) std::printf("%s\n", reply->body.c_str());
    if (reply->degraded) {
      std::printf("(degraded: served by %s)\n", reply->served_by.c_str());
    }
    if (reply->body == "bye") *quit = true;  // server closes after `quit`
    return true;
  };

  if (exec != nullptr) {
    const bool all_ok = RunExecScript(exec, run_one);
    return (all_ok && !transport_down) ? 0 : 1;
  }

  // Interactive mode mirrors the offline REPL: command errors keep the
  // session alive, EOF is a clean exit; only a dead transport is nonzero.
  std::string line;
  while (std::getline(std::cin, line)) {
    bool quit = false;
    run_one(line, &quit);
    if (quit) break;
  }
  return transport_down ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  // Resolve the machine profile once at startup so every subcommand —
  // including the sequential, no-config paths that never consult
  // ParallelConfig::ForStage — runs with the tuned kernel table installed,
  // and so a corrupt MNC_PROFILE warns immediately rather than only when a
  // parallel stage happens to trigger the lazy load. `calibrate` is exempt:
  // it must measure the uncalibrated machine, not a previously tuned one.
  if (cmd != "calibrate") (void)mnc::tuning::ActiveProfile();
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "sketch") return CmdSketch(argc, argv);
  if (cmd == "estimate-sketches") return CmdEstimateSketches(argc, argv);
  if (cmd == "estimate") return CmdEstimate(argc, argv);
  if (cmd == "expr") return CmdExpr(argc, argv);
  if (cmd == "chain") return CmdChain(argc, argv);
  if (cmd == "calibrate") return CmdCalibrate(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  if (cmd == "client") return CmdClient(argc, argv);
  return Usage();
}
