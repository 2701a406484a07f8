// Untraced end-to-end run. The run is split into kSubRuns sub-runs. Each
// spawns and sets up a fresh server, warms it up, then drives the workload
// in a closed loop for a share of --seconds and checks every reply. On a
// shared host a stretch of tens of seconds can run a server several times
// slower, and the median over five sub-runs did not absorb such stretches;
// so the median latency reported is that of the least disturbed sub-run.
// Set-up time and memory are medians over the sub-runs. Prints each
// sub-run's figures, so a server slow in only some sub-runs still shows,
// then the end-to-end metrics as the last stdout line.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"

namespace {

constexpr int kSubRuns = 5;

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = ParseOptions(argc, argv);
  RunContext ctx = Prepare(opt);
  const double window_s = opt.seconds / kSubRuns;

  std::vector<double> setup_s, p50, rss_mb;
  int64_t attempted = 0, failed = 0, server_errors = 0;
  std::string first_error;
  // Every sub-run's own figures, printed before the result.
  std::string detail;
  for (int k = 0; k < kSubRuns; ++k) {
    ServerProcess server;
    std::string error;
    const auto t0 = std::chrono::steady_clock::now();
    if (!server.Start(opt, ctx.inputs, ctx.profile_path) ||
        !RunSetup(ctx.inputs, ctx.refs, server.port(), &error)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   error.empty() ? "the server did not start" : error.c_str());
      Finish(ctx);
      return 1;
    }
    setup_s.push_back(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());

    const LoadResult load =
        RunLoad(ctx.inputs, ctx.refs, server.port(), opt.seed + k, kWarmupSeconds, window_s);
    p50.push_back(Percentile(load.request_ms, 0.50));
    rss_mb.push_back(server.MemoryMb("VmHWM:"));
    int64_t errors = 0, busy = 0;
    if (!ParseDrained(server.Stop(), &errors, &busy)) errors = 1;
    attempted += load.attempted;
    failed += load.failed;
    server_errors += errors;
    if (first_error.empty()) first_error = load.first_error;
    if (load.request_ms.empty()) ++failed;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"setup_s\": %.4f, \"request_p50_ms\": %.4f, \"peak_rss_mb\": %.1f, "
                  "\"requests\": %zu, \"writes\": %lld, \"writes_reused\": %lld}",
                  k == 0 ? "" : ", ", setup_s.back(), p50.back(), rss_mb.back(),
                  load.request_ms.size(), static_cast<long long>(load.writes),
                  static_cast<long long>(load.writes_reused));
    detail += buf;
  }
  std::printf("{\"subruns\": [%s]}\n", detail.c_str());

  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"request_p50_ms", *std::min_element(p50.begin(), p50.end()), "ms"},
      {"peak_rss_mb", Median(rss_mb), "MB"},
  };
  const bool correct = failed == 0 && server_errors == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: %lld of %lld requests failed; server errors %lld%s%s\n",
                 static_cast<long long>(failed), static_cast<long long>(attempted),
                 static_cast<long long>(server_errors), first_error.empty() ? "" : "; first: ",
                 first_error.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  Finish(ctx);
  return correct ? 0 : 1;
}
