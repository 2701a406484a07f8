// Serving-tier load benchmark: an in-process framed socket server under
// concurrent client threads, reporting throughput and latency percentiles.
//
//   --clients <n>          concurrent client threads (default 8)
//   --reqs <n>             requests per client (default 200)
//   --dim <n>              registered matrix dimension (default 256)
//   --sparsity <f>         registered matrix sparsity (default 0.01)
//   --workers <n>          server worker threads (default 4)
//   --reps <n>             repetitions of the concurrent phase; throughput
//                          and percentiles come from the best rep (noise
//                          guard on small/shared machines), errors
//                          accumulate across all reps (default 1)
//   --json                 also write BENCH_serve.json
//   --check                exit non-zero unless the robustness/perf gates
//                          hold
//
// Phases (one server over one EstimationService; the memo is warmed first
// so every phase measures the steady serving state):
//   1. single-client baseline: one connection, sequential requests;
//   2. concurrent: --clients connections.
//
// --check gates (machine-adaptive, CI-safe):
//   - zero request errors and zero transport errors in both phases;
//   - concurrent aggregate QPS >= 0.4x the single-client baseline QPS
//     (concurrency must not collapse throughput; on any multi-core machine
//     it improves it, the low bar only guards pathological serialization);
//   - p99 latency <= max(10 ms, 50x p50): no stragglers orders of
//     magnitude beyond the median, i.e. no lost/odd-ball requests.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "mnc/matrix/generate.h"
#include "mnc/serve/client.h"
#include "mnc/serve/server.h"
#include "mnc/service/estimation_service.h"

namespace {

double Percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[idx];
}

// The steady request mix: memo-friendly repeats of chain expressions, like
// a real serving tier sitting in front of an optimizer (the paper's
// matrix-chain workloads). Nontrivial DAGs make the per-request service
// work (parse, canonical hash, memo traversal) measurable.
const char* kQueries[] = {
    "estimate (A %*% B) %*% (A + B) %*% t(A) %*% (B %*% A) %*% (A * B)",
    "estimate t(B) %*% (A %*% B) %*% (B + A) %*% (A %*% A) %*% t(A %*% B)",
    "estimate (A + B) %*% (A %*% B) %*% (B %*% B) %*% t(B + A) %*% A",
    "estimate (B %*% A) %*% t(A + B) %*% (A %*% B) %*% (B * A) %*% B",
};
constexpr int kNumQueries = 4;

struct PhaseResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t ok = 0;
  int64_t errors = 0;  // typed command errors + transport errors
};

// Folds one repetition into the accumulated result: counts accumulate,
// timing comes from the best (highest-throughput) rep —
// the same noise guard the other machine-adaptive gates use on small
// shared runners.
void FoldRep(PhaseResult& best, const PhaseResult& rep) {
  best.ok += rep.ok;
  best.errors += rep.errors;
  if (rep.qps > best.qps) {
    best.qps = rep.qps;
    best.p50_ms = rep.p50_ms;
    best.p99_ms = rep.p99_ms;
  }
}

PhaseResult RunPhase(int port, int clients, int reqs_per_client) {
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> errors{0};

  mnc::Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      mnc::serve::ServeClient client;
      if (!client.Connect(port).ok()) {
        errors.fetch_add(reqs_per_client, std::memory_order_relaxed);
        return;
      }
      latencies[t].reserve(reqs_per_client);
      for (int i = 0; i < reqs_per_client; ++i) {
        mnc::Stopwatch watch;
        auto r = client.Call(kQueries[(t + i) % kNumQueries],
                             /*deadline_ms=*/0, /*timeout_ms=*/30'000);
        const double ms = watch.ElapsedMillis();
        if (r.ok() && r->ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          latencies[t].push_back(ms);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const double wall_s = wall.ElapsedMillis() / 1000.0;

  std::vector<double> all;
  for (auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  PhaseResult result;
  result.ok = ok.load();
  result.errors = errors.load();
  result.qps = wall_s > 0 ? static_cast<double>(result.ok) / wall_s : 0.0;
  result.p50_ms = Percentile(all, 0.50);
  result.p99_ms = Percentile(all, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const int clients =
      static_cast<int>(mncbench::ArgInt(argc, argv, "clients", 8));
  const int reqs = static_cast<int>(mncbench::ArgInt(argc, argv, "reqs", 200));
  const int64_t dim = mncbench::ArgInt(argc, argv, "dim", 256);
  const double sparsity = mncbench::ArgDouble(argc, argv, "sparsity", 0.01);
  const int workers =
      static_cast<int>(mncbench::ArgInt(argc, argv, "workers", 4));
  const int reps =
      std::max(1, static_cast<int>(mncbench::ArgInt(argc, argv, "reps", 1)));
  const bool json = mncbench::ArgFlag(argc, argv, "json");
  const bool check = mncbench::ArgFlag(argc, argv, "check");

  mnc::EstimationService service;
  mnc::Rng rng(42);
  {
    auto a = service.RegisterMatrix(
        "A", mnc::Matrix::Sparse(
                 mnc::GenerateUniformSparse(dim, dim, sparsity, rng)));
    auto b = service.RegisterMatrix(
        "B", mnc::Matrix::Sparse(
                 mnc::GenerateUniformSparse(dim, dim, sparsity, rng)));
    if (!a.ok() || !b.ok()) {
      std::fprintf(stderr, "register failed\n");
      return 1;
    }
  }

  mnc::serve::ServerOptions opts;
  opts.num_workers = workers;
  opts.max_inflight = std::max(64, clients * 4);
  opts.max_pipeline = 8;
  mnc::serve::Server server(&service, opts);
  if (const mnc::Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("serve_load: dim=%lld sparsity=%g workers=%d clients=%d "
              "reqs/client=%d\n",
              static_cast<long long>(dim), sparsity, workers, clients, reqs);

  // Warm the memo so every phase measures the steady serving state.
  const PhaseResult warmup = RunPhase(server.port(), 1, 8);
  (void)warmup;

  const PhaseResult single = RunPhase(server.port(), 1, reqs);
  std::printf("single : %8.0f qps   p50 %7.3f ms   p99 %7.3f ms   "
              "%lld ok %lld err\n",
              single.qps, single.p50_ms, single.p99_ms,
              static_cast<long long>(single.ok),
              static_cast<long long>(single.errors));

  PhaseResult conc;
  for (int r = 0; r < reps; ++r) {
    FoldRep(conc, RunPhase(server.port(), clients, reqs));
  }
  std::printf("x%-5d : %8.0f qps   p50 %7.3f ms   p99 %7.3f ms   "
              "%lld ok %lld err\n",
              clients, conc.qps, conc.p50_ms, conc.p99_ms,
              static_cast<long long>(conc.ok),
              static_cast<long long>(conc.errors));

  server.Shutdown();
  const mnc::serve::ServerStats stats = server.stats();
  std::printf("server : %lld conns, %lld requests, %lld replies, "
              "%lld typed errors, %lld busy\n",
              static_cast<long long>(stats.accepted),
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.replies),
              static_cast<long long>(stats.typed_errors),
              static_cast<long long>(stats.busy_rejected));

  if (json) {
    mncbench::JsonReport report("serve");
    report.Add("dim", static_cast<int64_t>(dim));
    report.Add("clients", static_cast<int64_t>(clients));
    report.Add("reqs_per_client", static_cast<int64_t>(reqs));
    report.Add("workers", static_cast<int64_t>(workers));
    report.Add("single_qps", single.qps);
    report.Add("single_p50_ms", single.p50_ms);
    report.Add("single_p99_ms", single.p99_ms);
    report.Add("concurrent_qps", conc.qps);
    report.Add("concurrent_p50_ms", conc.p50_ms);
    report.Add("concurrent_p99_ms", conc.p99_ms);
    report.Add("ok", single.ok + conc.ok);
    report.Add("errors", single.errors + conc.errors);
    report.Add("busy_rejected", stats.busy_rejected);
    report.WriteToFile();
  }

  if (check) {
    if (single.errors != 0 || conc.errors != 0) {
      std::fprintf(stderr, "CHECK FAILED: %lld request errors\n",
                   static_cast<long long>(single.errors + conc.errors));
      return 1;
    }
    if (conc.ok != static_cast<int64_t>(reps) * clients * reqs) {
      std::fprintf(stderr,
                   "CHECK FAILED: %lld/%lld concurrent requests resolved\n",
                   static_cast<long long>(conc.ok),
                   static_cast<long long>(reps) * clients * reqs);
      return 1;
    }
    if (conc.qps < 0.4 * single.qps) {
      std::fprintf(stderr,
                   "CHECK FAILED: concurrent qps %.0f < 0.4x single %.0f\n",
                   conc.qps, single.qps);
      return 1;
    }
    const double p99_bound = std::max(10.0, 50.0 * conc.p50_ms);
    if (conc.p99_ms > p99_bound) {
      std::fprintf(stderr,
                   "CHECK FAILED: p99 %.3f ms exceeds bound %.3f ms "
                   "(p50 %.3f ms)\n",
                   conc.p99_ms, p99_bound, conc.p50_ms);
      return 1;
    }
    std::printf("CHECK PASSED\n");
  }
  return 0;
}
