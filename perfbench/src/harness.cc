// Server process control, the closed-loop load generator and result output.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) close(out_fd_);
}

bool ServerProcess::Start(const Options& opt, const Inputs& in,
                          const std::string& profile_path) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return false;
  const std::string log = opt.work_dir + "/server.log";
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);

  std::vector<std::string> args = {opt.mnc_tool, "serve",  "--profile",
                                   profile_path, "--listen", "0"};
  if (in.guided) args.push_back("--guided");
  // A clean environment: no stray profile, cache directory or fail point
  // from the host reaches the server. MNC_SIMD is passed through and
  // recorded in the host descriptor.
  std::vector<std::string> env = {"HOME=" + opt.work_dir,
                                  "XDG_CACHE_HOME=" + opt.work_dir + "/cache",
                                  "MNC_PROFILE=" + profile_path};
  if (const char* path = std::getenv("PATH")) env.push_back(std::string("PATH=") + path);
  if (const char* simd = std::getenv("MNC_SIMD")) env.push_back(std::string("MNC_SIMD=") + simd);
  std::vector<char*> argv, envp;
  for (std::string& a : args) argv.push_back(a.data());
  for (std::string& e : env) envp.push_back(e.data());
  argv.push_back(nullptr);
  envp.push_back(nullptr);
  const int rc = posix_spawn(&pid_, opt.mnc_tool.c_str(), &fa, nullptr,
                             argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  out_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    return false;
  }

  const std::string marker = "serving on 127.0.0.1:";
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 60.0) {
    const size_t at = buffered_.find(marker);
    if (at != std::string::npos && buffered_.find('\n', at) != std::string::npos) {
      port_ = std::atoi(buffered_.c_str() + at + marker.size());
      return port_ > 0;
    }
    pollfd p{out_fd_, POLLIN, 0};
    if (poll(&p, 1, 200) <= 0) continue;
    char buf[4096];
    const ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n <= 0) return false;  // exited before listening
    buffered_.append(buf, static_cast<size_t>(n));
  }
  return false;
}

double ServerProcess::MemoryMb(const std::string& field) const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) return std::atof(line.c_str() + field.size()) / 1024.0;
  }
  return 0.0;
}

std::string ServerProcess::Stop() {
  if (pid_ <= 0) return "";
  kill(pid_, SIGTERM);
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 30.0) {
    pollfd p{out_fd_, POLLIN, 0};
    if (poll(&p, 1, 200) <= 0) continue;
    char buf[4096];
    const ssize_t n = read(out_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    buffered_.append(buf, static_cast<size_t>(n));
  }
  if (SecondsSince(start) >= 30.0) kill(pid_, SIGKILL);
  waitpid(pid_, nullptr, 0);
  pid_ = -1;
  const size_t at = buffered_.find("drained:");
  if (at == std::string::npos) return "";
  return buffered_.substr(at, buffered_.find('\n', at) - at);
}

double Counters::Get(const std::string& key) const {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

Counters ParseStats(const std::string& body) {
  // Each stats line is "<section>: <n> <word> <word>..., <n> <word>...";
  // a counter is keyed "<section>.<first word after the number>".
  Counters c;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string section = line.substr(0, colon);
    std::istringstream words(line.substr(colon + 1));
    std::string tok;
    bool have_number = false;
    double number = 0.0;
    while (words >> tok) {
      if (!tok.empty() && tok.back() == ',') tok.pop_back();
      if (tok.empty()) continue;
      if (tok.front() == '(') tok.erase(0, 1);
      char* end = nullptr;
      const double v = std::strtod(tok.c_str(), &end);
      if (end != tok.c_str() && (*end == '\0' || *end == '/')) {
        number = v;
        have_number = true;
        continue;
      }
      if (have_number) {
        c.values.emplace(section + "." + tok, number);
        have_number = false;
      }
    }
  }
  return c;
}

bool ParseDrained(const std::string& line, int64_t* errors, int64_t* busy) {
  const size_t e = line.find(" errors (");
  if (e == std::string::npos) return false;
  const size_t start = line.rfind(", ", e);
  if (start == std::string::npos) return false;
  *errors = std::atoll(line.c_str() + start + 2);
  *busy = std::atoll(line.c_str() + e + std::strlen(" errors ("));
  return true;
}

bool RunSetup(const Inputs& in, const References& refs, int port, std::string* error) {
  mnc::serve::ServeClient client;
  if (const mnc::Status s = client.Connect(port); !s.ok()) {
    *error = "connect: " + s.ToString();
    return false;
  }
  for (const std::string& line : in.setup) {
    Request req;
    req.verb = Verb::kRegister;
    req.line = line;
    auto reply = client.Call(line, 0, 120'000);
    if (!reply.ok()) {
      *error = line + ": " + reply.status().ToString();
      return false;
    }
    if (std::string why = CheckReply(refs, req, *reply, 0, 0); !why.empty()) {
      *error = why;
      return false;
    }
  }
  return true;
}

LoadResult RunLoad(const Inputs& in, const References& refs, int port,
                   uint64_t seed, double warmup_s, double seconds, int64_t writes_before) {
  // Writes started and completed so far (exec-mixed), for CheckReply.
  std::atomic<int64_t> writes_started{writes_before}, writes_done{writes_before};
  const Verb main_verb = in.exec ? Verb::kExec : Verb::kEstimate;
  std::mutex mu;
  LoadResult total;
  const Clock::time_point begin = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                     std::chrono::duration<double>(warmup_s));
  const Clock::time_point end = begin + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(seconds));
  auto worker = [&](int conn) {
    LoadResult mine;
    RequestStream stream(in, seed, conn, writes_before);
    mnc::serve::ServeClient client;
    if (const mnc::Status s = client.Connect(port); !s.ok()) {
      mine.failed = mine.attempted = 1;
      mine.first_error = "connect: " + s.ToString();
    }
    while (client.connected() && Clock::now() < end) {
      const Request req = stream.Next();
      const bool write = req.verb == Verb::kRegister;
      if (write) writes_started.fetch_add(1);
      const int64_t lo = writes_done.load();
      const Clock::time_point t0 = Clock::now();
      auto reply = client.Call(req.line, 0, 120'000);
      const Clock::time_point t1 = Clock::now();
      if (write) writes_done.fetch_add(1);
      const int64_t hi = writes_started.load();
      ++mine.attempted;
      std::string why = reply.ok() ? CheckReply(refs, req, *reply, lo, hi)
                                   : "transport: " + reply.status().ToString();
      if (!why.empty()) {
        ++mine.failed;
        if (mine.first_error.empty()) mine.first_error = why;
        continue;
      }
      if (write) {
        ++mine.writes;
        if (reply->body.find("reused existing sketch") != std::string::npos) {
          ++mine.writes_reused;
        }
      }
      if (req.verb != main_verb || t0 < begin || t1 > end) continue;
      mine.request_ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    std::lock_guard<std::mutex> lock(mu);
    total.request_ms.insert(total.request_ms.end(), mine.request_ms.begin(),
                            mine.request_ms.end());
    total.writes += mine.writes;
    total.writes_reused += mine.writes_reused;
    total.attempted += mine.attempted;
    total.failed += mine.failed;
    if (total.first_error.empty()) total.first_error = mine.first_error;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < in.connections; ++c) threads.emplace_back(worker, c);
  for (std::thread& t : threads) t.join();
  return total;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

RunContext Prepare(const Options& opt) {
#ifndef NDEBUG
  constexpr bool kOptimized = false;
#else
  constexpr bool kOptimized = true;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || !kOptimized) {
    std::fprintf(stderr, "perfbench: refusing a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", PERFBENCH_BUILD_TYPE);
    std::exit(2);
  }
  RunContext ctx;
  ctx.opt = opt;
  ctx.dir = opt.work_dir + "/" + opt.workload + "-" + std::to_string(opt.seed);
  RemoveTree(ctx.dir);
  std::filesystem::create_directories(ctx.dir);
  ctx.profile_path = ctx.dir + "/profile.mncp";
  ctx.profile = PinnedProfile(ctx.profile_path, &ctx.profile_id);
  mnc::tuning::SetActiveProfile(ctx.profile);
  std::printf("%s\n", HostDescriptor(opt, ctx.profile_id).c_str());
  std::fflush(stdout);
  ctx.inputs = GenerateInputs(opt, ctx.dir);
  ctx.refs = ComputeReferences(ctx.inputs, ctx.profile, opt.corrupt_reference);
  return ctx;
}

void Finish(const RunContext& ctx) { RemoveTree(ctx.dir); }

}  // namespace perfbench
