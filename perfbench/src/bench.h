// Shared pieces of the end-to-end serving benchmark: workload inputs and
// request streams, reference replies, the server process, the closed-loop
// load generator and the result line.
//
// The system under test is `mnc_tool serve --listen` at its default flags
// (exec-mixed adds --guided). Inputs are generated from the seed into files
// before any clock starts; the server only ever sees those files.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mnc/serve/client.h"
#include "mnc/tuning/machine_profile.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;              // self-test size: small inputs
  bool corrupt_reference = false;  // self-test: one wrong reference
  std::string mnc_tool;           // path of the server binary
  std::string work_dir;           // scratch directory inside the checkout
  std::string source_id;          // git SHA or source digest
};

// Parses the command line; exits with a usage message on bad input.
Options ParseOptions(int argc, char** argv);

enum class Verb { kRegister, kEstimate, kExec };

struct Request {
  std::string line;
  Verb verb = Verb::kEstimate;
  int expr = -1;  // index into Inputs::exprs (estimate/exec)
};

// Everything a workload needs, written to disk before the clock starts.
struct Inputs {
  std::string workload;
  std::vector<std::string> setup;  // register lines, in order
  // (name, file) of each operand as first registered.
  std::vector<std::pair<std::string, std::string>> operands;
  std::vector<std::string> exprs;  // expression pool
  // exec-mixed: "register A <variant file>" per variant index. Variant 0
  // is the set-up one; write number w (counted from 1 on one server)
  // installs variant w, so no write repeats a fingerprint.
  std::vector<std::string> variant_lines;
  int connections = 1;
  bool guided = false;
  // exec-mixed: connection 0 writes the next variant every this many
  // seconds of its stream's wall time; 0 means no writes.
  double write_period_s = 0.0;
  bool exec = false;  // the stream alternates exec and estimate
};

// Generates operands and expressions for `opt.workload` from the seed.
Inputs GenerateInputs(const Options& opt, const std::string& dir);

// The request stream of one connection. The expressions are deterministic
// in (seed, conn); in exec-mixed, connection 0 also writes on a clock that
// starts when the stream is made, so a server sees the same number of
// writes per second however fast it answers. `writes_before` is the number
// of writes that server has already had.
class RequestStream {
 public:
  RequestStream(const Inputs& in, uint64_t seed, int conn, int64_t writes_before = 0);
  Request Next();

 private:
  const Inputs& in_;
  uint64_t state_;
  int conn_;
  int pending_estimate_ = -1;  // exec-mixed: estimate follows its exec
  int64_t next_write_ = 1;     // write number, and so variant, to send next
  std::chrono::steady_clock::time_point write_due_;
};

// Expected reply prefixes, computed in-process before the server starts.
struct References {
  // estimate[expr][variant]: the reply up to the serving-tier suffix.
  std::vector<std::vector<std::string>> estimate;
  // exec[expr]: "executed: R x C output, N non-zeros" from a blind
  // evaluator; empty when the workload sends no exec.
  std::vector<std::string> exec;
  // register line -> reply up to the operand's sparsity.
  std::map<std::string, std::string> register_keys;
};

References ComputeReferences(const Inputs& in,
                             const std::shared_ptr<const mnc::tuning::MachineProfile>& profile,
                             bool corrupt);

// The comparable part of a reply body: estimates up to ", served by",
// exec up to "non-zeros", register up to the operand's sparsity.
std::string ReplyKey(Verb verb, const std::string& body);

// Checks one reply; returns an empty string when correct, else the reason.
// In exec-mixed a reply may reflect any variant of A written by the writes
// numbered epoch_lo..epoch_hi (completed at its send .. started by its reply).
std::string CheckReply(const References& refs, const Request& req,
                       const mnc::serve::ServeClient::Reply& reply, int64_t epoch_lo,
                       int64_t epoch_hi);

// The pinned machine profile: every stage uncalibrated, SIMD level of this
// host, so dispatch matches a host with no profile at all.
std::shared_ptr<const mnc::tuning::MachineProfile> PinnedProfile(
    const std::string& path, std::string* identity);

// One line of host facts printed before the result.
std::string HostDescriptor(const Options& opt, const std::string& profile_id);

// `mnc_tool serve --listen 0` as a child process.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns the server and waits for its listening line.
  bool Start(const Options& opt, const Inputs& in, const std::string& profile_path);
  int port() const { return port_; }
  // A memory line of the server's /proc status (e.g. "VmHWM:"), in MB.
  double MemoryMb(const std::string& field) const;
  // SIGTERM, wait for the drain line; returns the line (empty on failure).
  std::string Stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  std::string buffered_;
};

// Counters read from the `stats` verb (service + serve tier).
struct Counters {
  std::map<std::string, double> values;
  double Get(const std::string& key) const;
};
Counters ParseStats(const std::string& body);
// `drained:` line of a stopped server: typed_errors and busy_rejected.
bool ParseDrained(const std::string& line, int64_t* errors, int64_t* busy);

// Closed-loop load over `in.connections` connections for `seconds`.
struct LoadResult {
  // Round trips of the window's main requests: exec on exec-mixed, else
  // estimate.
  std::vector<double> request_ms;
  // exec-mixed writes, warm-up included, and how many of them the server
  // answered from an existing sketch (a fingerprint it had already seen).
  int64_t writes = 0;
  int64_t writes_reused = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;
};
// `writes_before` as for RequestStream.
LoadResult RunLoad(const Inputs& in, const References& refs, int port,
                   uint64_t seed, double warmup_s, double seconds,
                   int64_t writes_before = 0);

// Registers every setup line over one connection, checking each reply.
// Returns false (and sets *error) on any failure.
bool RunSetup(const Inputs& in, const References& refs, int port, std::string* error);

double Median(std::vector<double> v);
double Percentile(std::vector<double> v, double q);

// The final stdout line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics);

// Closed-loop traffic before the measured window (memo/plan warm-up).
inline constexpr double kWarmupSeconds = 1.0;

// What every run prepares before a server starts.
struct RunContext {
  Options opt;
  std::string dir;  // this run's generated inputs
  std::string profile_path;
  std::string profile_id;
  std::shared_ptr<const mnc::tuning::MachineProfile> profile;
  Inputs inputs;
  References refs;
};

// Refuses a non-Release build, pins the machine profile, prints the host
// descriptor, generates the inputs and computes the references.
RunContext Prepare(const Options& opt);

// Deletes the generated inputs.
void Finish(const RunContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
