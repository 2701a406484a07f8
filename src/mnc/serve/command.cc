#include "mnc/serve/command.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "mnc/matrix/io.h"
#include "mnc/util/stopwatch.h"

namespace mnc::serve {

namespace {

std::string Trim(const std::string& s) {
  const size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// printf-into-std::string helper for the fixed-size stat lines.
template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return std::string(buf);
}

// Longest a `sleep` command may hold a worker; guards against a client
// parking the whole worker pool behind multi-minute sleeps.
constexpr int64_t kMaxSleepMillis = 10'000;

// Client-supplied text echoed into an error message is capped: a "verb" can
// be an arbitrarily long token (up to the frame payload limit), and an error
// that echoes it whole would itself blow the reply-frame size budget.
std::string TruncateEcho(const std::string& text) {
  constexpr size_t kMaxEchoBytes = 200;
  if (text.size() <= kMaxEchoBytes) return text;
  return text.substr(0, kMaxEchoBytes) + "...";
}

CommandOutcome SleepCommand(const std::string& rest,
                            const RequestContext* ctx) {
  CommandOutcome out;
  char* end = nullptr;
  const long long ms = std::strtoll(rest.c_str(), &end, 10);
  if (end == rest.c_str() || *end != '\0' || ms < 0) {
    out.status = Status::InvalidArgument("sleep expects a millisecond count");
    return out;
  }
  const int64_t total = std::min<int64_t>(ms, kMaxSleepMillis);
  // Sleep in small slices so deadlines/cancellation interrupt promptly.
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(total);
  while (std::chrono::steady_clock::now() < until) {
    if (ctx != nullptr) {
      const Status bound = ctx->Check("sleep");
      if (!bound.ok()) {
        out.status = bound;
        return out;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  out.body = Format("slept %lld ms", static_cast<long long>(total));
  return out;
}

}  // namespace

bool IsDegradedTier(const std::string& served_by) {
  return !served_by.empty() && served_by != "mnc" && served_by != "memo";
}

CommandOutcome RunServeCommand(EstimationService& service,
                               const std::string& raw,
                               const RequestContext* ctx,
                               const ServeTierInfo* serve) {
  CommandOutcome out;
  const std::string line = Trim(raw);
  if (line.empty() || line[0] == '#') return out;

  const size_t space = line.find_first_of(" \t");
  const std::string verb = line.substr(0, space);
  const std::string rest =
      space == std::string::npos ? "" : Trim(line.substr(space + 1));

  if (verb == "quit" || verb == "exit") {
    out.quit = true;
    out.body = "bye";
    return out;
  }

  if (verb == "register") {
    const size_t sep = rest.find_first_of(" \t");
    if (sep == std::string::npos) {
      out.status = Status::InvalidArgument("register <name> <file.mtx>");
      return out;
    }
    const std::string name = rest.substr(0, sep);
    const std::string file = Trim(rest.substr(sep + 1));
    auto m = ReadMatrixMarketFile(file);
    if (!m.ok()) {
      out.status = m.status();
      return out;
    }
    const int64_t dedup_before = service.stats().register_dedup_hits;
    Stopwatch watch;
    const auto leaf = service.RegisterMatrix(name, Matrix::AutoFromCsr(*m));
    if (!leaf.ok()) {
      out.status = leaf.status();
      return out;
    }
    const bool reused = service.stats().register_dedup_hits > dedup_before;
    out.body = Format(
        "registered %s: %lld x %lld, sparsity %.6g, %s (%.3f ms)",
        name.c_str(), static_cast<long long>((*leaf)->rows()),
        static_cast<long long>((*leaf)->cols()), (*leaf)->matrix().Sparsity(),
        reused ? "reused existing sketch" : "sketch built",
        watch.ElapsedMillis());
    return out;
  }

  if (verb == "register-path") {
    // register-path <name> <file> [<file2> ...] [--union]
    // Streaming registration: the files are sketched chunk-by-chunk without
    // materializing the matrix. Multiple files are row shards by default;
    // --union adds same-shaped pieces instead.
    std::vector<std::string> args;
    size_t pos = 0;
    while (pos < rest.size()) {
      const size_t sep = rest.find_first_of(" \t", pos);
      const std::string tok =
          rest.substr(pos, sep == std::string::npos ? sep : sep - pos);
      if (!tok.empty()) args.push_back(tok);
      if (sep == std::string::npos) break;
      pos = sep + 1;
    }
    StreamRegisterOptions opts;
    if (!args.empty() && args.back() == "--union") {
      opts.multi = StreamRegisterOptions::MultiFile::kUnion;
      args.pop_back();
    }
    if (args.size() < 2) {
      out.status = Status::InvalidArgument(
          "register-path <name> <file> [<file2> ...] [--union]");
      return out;
    }
    const std::string name = args.front();
    const std::vector<std::string> paths(args.begin() + 1, args.end());
    Stopwatch watch;
    const auto leaf = service.RegisterMatrixStreaming(name, paths, opts);
    if (!leaf.ok()) {
      out.status = leaf.status();
      return out;
    }
    // Sketch-only leaf: dimensions and sparsity come from the cataloged
    // sketch, not a materialized matrix.
    const auto sketch = service.LookupSketch(name);
    if (!sketch.ok()) {
      out.status = sketch.status();
      return out;
    }
    out.body = Format(
        "registered %s (streaming, %zu file%s): %lld x %lld, sparsity %.6g "
        "(%.3f ms)",
        name.c_str(), paths.size(), paths.size() == 1 ? "" : "s",
        static_cast<long long>((*leaf)->rows()),
        static_cast<long long>((*leaf)->cols()), (*sketch)->Sparsity(),
        watch.ElapsedMillis());
    return out;
  }

  if (verb == "estimate") {
    if (rest.empty()) {
      out.status = Status::InvalidArgument("estimate <expression>");
      return out;
    }
    Stopwatch watch;
    const auto result = service.EstimateSource(rest, ctx);
    const double ms = watch.ElapsedMillis();
    if (!result.ok()) {
      out.status = result.status();
      return out;
    }
    out.served_by = result->served_by;
    out.degraded = IsDegradedTier(result->served_by);
    out.body = Format(
        "sparsity %.6g (%lld x %lld output, served by %s%s, %.3f ms)",
        result->sparsity, static_cast<long long>(result->rows),
        static_cast<long long>(result->cols), result->served_by.c_str(),
        result->memo_hit ? ", memo hit" : "", ms);
    return out;
  }

  if (verb == "exec") {
    if (rest.empty()) {
      out.status = Status::InvalidArgument("exec <expression>");
      return out;
    }
    Stopwatch watch;
    const auto result = service.ExecuteSource(rest, ctx);
    const double ms = watch.ElapsedMillis();
    if (!result.ok()) {
      out.status = result.status();
      return out;
    }
    out.served_by = "exec";
    out.body = Format(
        "executed: %lld x %lld output, %lld non-zeros, sparsity %.6g, %s, "
        "%.3f ms",
        static_cast<long long>(result->rows()),
        static_cast<long long>(result->cols()),
        static_cast<long long>(result->NumNonZeros()), result->Sparsity(),
        result->is_dense() ? "dense" : "sparse", ms);
    return out;
  }

  if (verb == "stats") {
    const ServiceStats s = service.stats();
    out.body =
        Format("catalog: %lld names, %lld sketches, %lld dedup hits, "
               "%lld leaf hits, %lld leaf misses\n",
               static_cast<long long>(s.registered_names),
               static_cast<long long>(s.registered_sketches),
               static_cast<long long>(s.register_dedup_hits),
               static_cast<long long>(s.catalog_hits),
               static_cast<long long>(s.catalog_misses)) +
        Format("queries: %lld estimates (%lld batch), %lld fallback, "
               "%lld failed\n",
               static_cast<long long>(s.estimates),
               static_cast<long long>(s.batch_queries),
               static_cast<long long>(s.fallback_estimates),
               static_cast<long long>(s.failed_estimates)) +
        Format("memo: %lld entries, %lld/%lld bytes, %lld hits, "
               "%lld misses, %lld evictions, %lld poisoned dropped\n",
               static_cast<long long>(s.memo.entries),
               static_cast<long long>(s.memo.bytes_used),
               static_cast<long long>(s.memo.budget_bytes),
               static_cast<long long>(s.memo.hits),
               static_cast<long long>(s.memo.misses),
               static_cast<long long>(s.memo.evictions),
               static_cast<long long>(s.memo.poisoned_dropped)) +
        Format("exec: %lld executions, %lld guided products, "
               "%lld single-pass, %lld dense-direct, %lld fallbacks "
               "(%lld budget, %lld overflow), %lld scatter rows, "
               "%lld bytes saved vs blind reserve",
               static_cast<long long>(s.executions),
               static_cast<long long>(s.guided.guided_products),
               static_cast<long long>(s.guided.single_pass),
               static_cast<long long>(s.guided.dense_direct),
               static_cast<long long>(s.guided.two_pass_fallbacks +
                                      s.guided.overflow_fallbacks),
               static_cast<long long>(s.guided.two_pass_fallbacks),
               static_cast<long long>(s.guided.overflow_fallbacks),
               static_cast<long long>(s.guided.scatter_rows),
               static_cast<long long>(s.guided.blind_reserve_bytes -
                                      s.guided.guided_reserve_bytes)) +
        Format("\nplan: %lld hits (%lld canonical), %lld misses, "
               "%lld invalidations, %lld entries, %lld bytes, "
               "%lld packed operands, %lld packed bytes",
               static_cast<long long>(s.plan_hits),
               static_cast<long long>(s.plan_canonical_hits),
               static_cast<long long>(s.plan_misses),
               static_cast<long long>(s.plan_invalidations),
               static_cast<long long>(s.plan_entries),
               static_cast<long long>(s.plan_bytes),
               static_cast<long long>(s.packed_operands),
               static_cast<long long>(s.packed_operand_bytes)) +
        Format("\ningest: %lld streaming registrations, %lld resident "
               "bytes, %lld spilled, %lld spills, %lld faults, "
               "%lld read failures, %lld write failures",
               static_cast<long long>(s.streaming_registrations),
               static_cast<long long>(s.resident_bytes),
               static_cast<long long>(s.spilled_sketches),
               static_cast<long long>(s.catalog_spills),
               static_cast<long long>(s.catalog_faults),
               static_cast<long long>(s.spill_read_failures),
               static_cast<long long>(s.spill_write_failures));
    if (serve != nullptr) {
      out.body += Format("\nserve: %lld open connections, %lld rejected",
                         static_cast<long long>(serve->open_connections),
                         static_cast<long long>(serve->conn_rejected));
    }
    return out;
  }

  if (verb == "clear") {
    service.ClearMemo();
    out.body = "memo cleared";
    return out;
  }

  if (verb == "clear-catalog") {
    service.ClearCatalog();
    out.body = "catalog cleared (sketches, packed operands, cached plans)";
    return out;
  }

  if (verb == "sleep") return SleepCommand(rest, ctx);

  out.status = Status::InvalidArgument(
      "unknown command '" + TruncateEcho(verb) +
      "' (register/register-path/estimate/exec/stats/clear/clear-catalog/"
      "sleep/quit)");
  return out;
}

}  // namespace mnc::serve
