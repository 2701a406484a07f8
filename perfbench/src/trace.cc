// Traced run: replays the workload's seeded request stream one request at a
// time against the server (the measured round trip) and in-process through
// RunServeCommand on two twin services — one traced, one not. A span is
// recorded around every call that crosses into a layer; calls the library
// makes internally are intercepted at link time (--wrap, see
// CMakeLists.txt), so no library source is instrumented. Afterwards a short
// concurrent phase reads the server's own counter deltas (batching, memo,
// plans). Prints the per-layer metrics as the last stdout line.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "mnc/core/mnc_sketch.h"
#include "mnc/core/row_estimates.h"
#include "mnc/ingest/stream_sketch.h"
#include "mnc/ir/evaluator.h"
#include "mnc/ir/expr_hash.h"
#include "mnc/lang/parser.h"
#include "mnc/matrix/io.h"
#include "mnc/matrix/ops_product.h"
#include "mnc/serve/command.h"
#include "mnc/serve/frame.h"
#include "mnc/service/estimation_service.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Layers, named by module. ir.hash is reported inside ir.canonicalize_us.
// The span file adds two rows per request that are not calls: serve.request
// (the client-measured round trip) and serve.frame.
enum Layer : uint8_t {
  kCommand,
  kParse,
  kCanonicalize,
  kHash,
  kEvaluate,
  kEstimate,
  kExecute,
  kRegister,
  kSketchBuild,
  kPropagate,
  kAlg1,
  kRowEstimates,
  kSpgemm,
  kMmRead,
  kStreamSketch,
  kFlopCount,  // the tracer's own flop counting, kept out of its parent
  kNumLayers,
};

constexpr const char* kLayerNames[kNumLayers] = {
    "serve.command",
    "lang.parse",      "ir.canonicalize",  "ir.hash",
    "ir.evaluate",     "service.estimate", "service.execute",
    "service.register", "core.sketch_build", "core.propagate",
    "core.alg1",       "core.row_estimates", "matrix.spgemm",
    "matrix.mm_read",  "ingest.stream_sketch", "trace.flop_count",
};

struct Span {
  int32_t parent = -1;
  Layer layer = kCommand;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double flops = 0.0;
};

// Spans of the request being replayed. Only the replay thread records:
// `active` is thread-local and null everywhere else (and on the untraced
// twin service's calls).
struct Tracer {
  std::vector<Span> spans;
  std::vector<int32_t> stack;
  static thread_local Tracer* active;
};
thread_local Tracer* Tracer::active = nullptr;

class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) : tracer_(Tracer::active) {
    if (tracer_ == nullptr) return;
    index_ = static_cast<int32_t>(tracer_->spans.size());
    Span s;
    s.parent = tracer_->stack.empty() ? -1 : tracer_->stack.back();
    s.layer = layer;
    tracer_->spans.push_back(s);
    tracer_->stack.push_back(index_);
    tracer_->spans[static_cast<size_t>(index_)].start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    tracer_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
    tracer_->stack.pop_back();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddFlops(double flops) {
    if (tracer_ != nullptr) tracer_->spans[static_cast<size_t>(index_)].flops = flops;
  }

 private:
  Tracer* tracer_;
  int32_t index_ = -1;
};

// Scharpff et al.'s SpGEMM operation count: two flops per multiply-add,
// sum over A's non-zeros (i, k) of nnz(B[k, :]).
double SpgemmFlops(const mnc::CsrMatrix& a, const mnc::CsrMatrix& b) {
  if (Tracer::active == nullptr) return 0.0;
  ScopedSpan span(kFlopCount);
  const std::vector<int64_t>& bp = b.row_ptr();
  double madds = 0.0;
  for (const int64_t k : a.col_idx()) {
    madds += static_cast<double>(bp[static_cast<size_t>(k) + 1] - bp[static_cast<size_t>(k)]);
  }
  return 2.0 * madds;
}

}  // namespace
}  // namespace perfbench

// --- Link-time wrappers ----------------------------------------------------
//
// Each PB_SYM_* names a mangled library symbol; CMakeLists.txt passes
// --wrap for every one of them, so calls from other object files reach
// __wrap_<sym> below, which forwards to __real_<sym> inside a span. Member
// functions take `this` as their first parameter.

namespace perfbench_wrap {

using perfbench::ScopedSpan;
using namespace mnc;

#define PB_REAL(sym) __asm__("__real_" sym)
#define PB_WRAP(sym) __asm__("__wrap_" sym)

#define PB_SYM_ESTIMATE_SOURCE "_ZN3mnc17EstimationService14EstimateSourceERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKNS_14RequestContextE"
#define PB_SYM_EXECUTE_SOURCE "_ZN3mnc17EstimationService13ExecuteSourceERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKNS_14RequestContextE"
#define PB_SYM_REGISTER_MATRIX "_ZN3mnc17EstimationService14RegisterMatrixERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_6MatrixE"
#define PB_SYM_REGISTER_STREAMING "_ZN3mnc17EstimationService23RegisterMatrixStreamingERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt6vectorIS6_SaIS6_EERKNS_21StreamRegisterOptionsE"
#define PB_SYM_PARSE_PROGRAM "_ZN3mnc12ParseProgramERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt3mapIS5_NS_6MatrixESt4lessIS5_ESaISt4pairIS6_S9_EEERKS8_IS5_St10shared_ptrIKNS_8ExprNodeEESB_SaISC_IS6_SL_EEE"
#define PB_SYM_CANONICALIZE "_ZN3mnc16CanonicalizeExprERKSt10shared_ptrIKNS_8ExprNodeEERKSt8functionIFmRS2_EE"
#define PB_SYM_HASH "_ZN3mnc10ExprHasher4HashERKSt10shared_ptrIKNS_8ExprNodeEE"
#define PB_SYM_TRY_EVALUATE "_ZN3mnc9Evaluator11TryEvaluateERKSt10shared_ptrIKNS_8ExprNodeEE"
#define PB_SYM_PROPAGATE_NODE "_ZN3mnc19PropagateNodeSketchERKNS_8ExprNodeERKNS_9MncSketchEPS4_mNS_12RoundingModeERKNS_14ParallelConfigEPNS_10ThreadPoolE"
#define PB_SYM_NNZ "_ZN3mnc18EstimateProductNnzERKNS_9MncSketchES2_"
#define PB_SYM_NNZ_PAR "_ZN3mnc18EstimateProductNnzERKNS_9MncSketchES2_RKNS_14ParallelConfigEPNS_10ThreadPoolE"
#define PB_SYM_SPARSITY "_ZN3mnc23EstimateProductSparsityERKNS_9MncSketchES2_"
#define PB_SYM_SPARSITY_PAR "_ZN3mnc23EstimateProductSparsityERKNS_9MncSketchES2_RKNS_14ParallelConfigEPNS_10ThreadPoolE"
#define PB_SYM_FROM_MATRIX "_ZN3mnc9MncSketch10FromMatrixERKNS_6MatrixE"
#define PB_SYM_FROM_MATRIX_PAR "_ZN3mnc9MncSketch10FromMatrixERKNS_6MatrixERKNS_14ParallelConfigEPNS_10ThreadPoolE"
#define PB_SYM_ROWS "_ZN3mnc19EstimateProductRowsERKNS_9CsrMatrixERKNS_9MncSketchE"
#define PB_SYM_ROWS_PAR "_ZN3mnc19EstimateProductRowsERKNS_9CsrMatrixERKNS_9MncSketchERKNS_14ParallelConfigEPNS_10ThreadPoolE"
#define PB_SYM_ROW_TABLE "_ZN3mnc21BuildRowEstimateTableERKSt6vectorINS_18RowProductEstimateESaIS1_EE"
#define PB_SYM_SPGEMM_GUIDED "_ZN3mnc26MultiplySparseSparseGuidedERKNS_9CsrMatrixES2_RKSt6vectorIlSaIlEERKS3_IdSaIdEERKNS_20GuidedProductOptionsERKNS_14ParallelConfigEPNS_10ThreadPoolEPNS_15GuidedExecStatsE"
#define PB_SYM_SPGEMM_DENSE "_ZN3mnc25MultiplySparseSparseDenseERKNS_9CsrMatrixES2_PNS_10ThreadPoolE"
#define PB_SYM_MM_READ "_ZN3mnc20ReadMatrixMarketFileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define PB_SYM_STREAM_SKETCH "_ZN3mnc6ingest20BuildSketchStreamingERNS0_13TripletSourceERKNS0_19StreamSketchOptionsE"

using Str = std::string;
using Ctx = RequestContext;
using Paths = std::vector<std::string>;
using LeafMap = std::map<std::string, ExprPtr>;
using MatrixMap = std::map<std::string, Matrix>;
using RowEsts = std::vector<RowProductEstimate>;

// Declares __real_<sym> and defines __wrap_<sym> as a span around it.
#define PB_WRAPPER(layer, sym, ret, name, params, args) \
  ret Real##name params PB_REAL(sym);                   \
  ret Wrap##name params PB_WRAP(sym);                   \
  ret Wrap##name params {                               \
    ScopedSpan span(perfbench::layer);                  \
    return Real##name args;                             \
  }

PB_WRAPPER(kEstimate, PB_SYM_ESTIMATE_SOURCE, StatusOr<EstimateResult>, EstimateSource,
           (EstimationService * s, const Str& src, const Ctx* c), (s, src, c))
PB_WRAPPER(kExecute, PB_SYM_EXECUTE_SOURCE, StatusOr<Matrix>, ExecuteSource,
           (EstimationService * s, const Str& src, const Ctx* c), (s, src, c))
PB_WRAPPER(kRegister, PB_SYM_REGISTER_MATRIX, StatusOr<ExprPtr>, RegisterMatrix,
           (EstimationService * s, const Str& name, const Matrix& m), (s, name, m))
PB_WRAPPER(kRegister, PB_SYM_REGISTER_STREAMING, StatusOr<ExprPtr>, RegisterStreaming,
           (EstimationService * s, const Str& name, const Paths& p,
            const StreamRegisterOptions& o),
           (s, name, p, o))
PB_WRAPPER(kParse, PB_SYM_PARSE_PROGRAM, ParseResult, ParseProgram,
           (const Str& src, const MatrixMap& b, const LeafMap& l), (src, b, l))
PB_WRAPPER(kCanonicalize, PB_SYM_CANONICALIZE, ExprPtr, Canonicalize,
           (const ExprPtr& root, const LeafFingerprintFn& fp), (root, fp))
PB_WRAPPER(kHash, PB_SYM_HASH, uint64_t, Hash, (ExprHasher * h, const ExprPtr& n), (h, n))
PB_WRAPPER(kEvaluate, PB_SYM_TRY_EVALUATE, StatusOr<Matrix>, TryEvaluate,
           (Evaluator * e, const ExprPtr& root), (e, root))
PB_WRAPPER(kPropagate, PB_SYM_PROPAGATE_NODE, MncSketch, PropagateNode,
           (const ExprNode& n, const MncSketch& l, const MncSketch* r, uint64_t seed,
            RoundingMode mode, const ParallelConfig& cfg, ThreadPool* pool),
           (n, l, r, seed, mode, cfg, pool))
PB_WRAPPER(kAlg1, PB_SYM_NNZ, double, Nnz, (const MncSketch& a, const MncSketch& b), (a, b))
PB_WRAPPER(kAlg1, PB_SYM_NNZ_PAR, double, NnzPar,
           (const MncSketch& a, const MncSketch& b, const ParallelConfig& c, ThreadPool* p),
           (a, b, c, p))
PB_WRAPPER(kAlg1, PB_SYM_SPARSITY, double, Sparsity, (const MncSketch& a, const MncSketch& b),
           (a, b))
PB_WRAPPER(kAlg1, PB_SYM_SPARSITY_PAR, double, SparsityPar,
           (const MncSketch& a, const MncSketch& b, const ParallelConfig& c, ThreadPool* p),
           (a, b, c, p))
PB_WRAPPER(kSketchBuild, PB_SYM_FROM_MATRIX, MncSketch, FromMatrix, (const Matrix& m), (m))
PB_WRAPPER(kSketchBuild, PB_SYM_FROM_MATRIX_PAR, MncSketch, FromMatrixPar,
           (const Matrix& m, const ParallelConfig& c, ThreadPool* p), (m, c, p))
PB_WRAPPER(kRowEstimates, PB_SYM_ROWS, RowEsts, Rows, (const CsrMatrix& a, const MncSketch& b),
           (a, b))
PB_WRAPPER(kRowEstimates, PB_SYM_ROWS_PAR, RowEsts, RowsPar,
           (const CsrMatrix& a, const MncSketch& b, const ParallelConfig& c, ThreadPool* p),
           (a, b, c, p))
PB_WRAPPER(kRowEstimates, PB_SYM_ROW_TABLE, RowEstimateTable, RowTable, (const RowEsts& rows),
           (rows))
PB_WRAPPER(kMmRead, PB_SYM_MM_READ, StatusOr<CsrMatrix>, MmRead, (const Str& path), (path))
PB_WRAPPER(kStreamSketch, PB_SYM_STREAM_SKETCH, StatusOr<MncSketch>, StreamSketch,
           (ingest::TripletSource & src, const ingest::StreamSketchOptions& o), (src, o))

// The products also record their operation count.
CsrMatrix RealSpgemmGuided(const CsrMatrix& a, const CsrMatrix& b,
                           const std::vector<int64_t>& upper, const std::vector<double>& est,
                           const GuidedProductOptions& o, const ParallelConfig& c,
                           ThreadPool* p, GuidedExecStats* st) PB_REAL(PB_SYM_SPGEMM_GUIDED);
CsrMatrix WrapSpgemmGuided(const CsrMatrix& a, const CsrMatrix& b,
                           const std::vector<int64_t>& upper, const std::vector<double>& est,
                           const GuidedProductOptions& o, const ParallelConfig& c,
                           ThreadPool* p, GuidedExecStats* st) PB_WRAP(PB_SYM_SPGEMM_GUIDED);
CsrMatrix WrapSpgemmGuided(const CsrMatrix& a, const CsrMatrix& b,
                           const std::vector<int64_t>& upper, const std::vector<double>& est,
                           const GuidedProductOptions& o, const ParallelConfig& c,
                           ThreadPool* p, GuidedExecStats* st) {
  const double flops = perfbench::SpgemmFlops(a, b);
  ScopedSpan span(perfbench::kSpgemm);
  span.AddFlops(flops);
  return RealSpgemmGuided(a, b, upper, est, o, c, p, st);
}

DenseMatrix RealSpgemmDense(const CsrMatrix& a, const CsrMatrix& b, ThreadPool* p)
    PB_REAL(PB_SYM_SPGEMM_DENSE);
DenseMatrix WrapSpgemmDense(const CsrMatrix& a, const CsrMatrix& b, ThreadPool* p)
    PB_WRAP(PB_SYM_SPGEMM_DENSE);
DenseMatrix WrapSpgemmDense(const CsrMatrix& a, const CsrMatrix& b, ThreadPool* p) {
  const double flops = perfbench::SpgemmFlops(a, b);
  ScopedSpan span(perfbench::kSpgemm);
  span.AddFlops(flops);
  return RealSpgemmDense(a, b, p);
}

}  // namespace perfbench_wrap

// --- Traced replay -----------------------------------------------------------

namespace perfbench {
namespace {

// A request passes the decomposition check when its in-process time
// (frame + the traced command) fits in its measured round trip, give or
// take this share of the round trip plus slack: the replay is a second
// execution of the same work, and on a shared host one of the two can be
// preempted. The check catches a replay that does more work than the
// server did for the request (a twin whose caches or options drifted from
// the server's), or tracing that inflates the command it decomposes. It
// cannot see a span that is missing or misplaced inside the command: the
// span-tree checks below and RequiredLayers cover those.
constexpr double kSpanTolerance = 0.5;
constexpr double kSpanSlackUs = 200.0;
// Share of requests allowed to miss the check; more fails the run.
constexpr double kMaxMissShare = 0.1;

// The layers each workload is built to exercise (see README.md). A traced
// run that records no call into one of them fails: a wrapped call that
// stopped crossing an object-file boundary, or a workload that stopped
// reaching a layer, would otherwise report 0 and move its time into its
// parent's self time.
std::vector<Layer> RequiredLayers(const std::string& workload) {
  if (workload == "estimate-hot") {
    return {kCommand, kParse, kCanonicalize, kHash, kEstimate, kRegister, kMmRead, kSketchBuild};
  }
  if (workload == "estimate-cold") {
    return {kCommand,  kParse,        kCanonicalize, kHash, kEstimate,
            kRegister, kStreamSketch, kPropagate,    kAlg1};
  }
  return {kCommand,  kParse,  kCanonicalize, kHash,      kEstimate, kEvaluate,     kExecute,
          kRegister, kMmRead, kSketchBuild,  kPropagate, kAlg1,     kRowEstimates, kSpgemm};
}

struct Traced {
  Verb verb = Verb::kEstimate;
  bool steady = false;  // false for set-up registrations
  double rt_us = 0.0;
  double frame_us = 0.0;
  double cmd_us = 0.0;           // traced twin
  double cmd_untraced_us = 0.0;  // untraced twin
  std::vector<Span> spans;       // the command's subtree
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Encodes and decodes the request and reply frames as server and client do.
double FrameRoundUs(uint64_t id, const std::string& line,
                    const mnc::serve::ServeClient::Reply& reply) {
  const int64_t t0 = NowNs();
  for (const mnc::serve::Frame& f :
       {mnc::serve::MakeRequestFrame(id, line),
        mnc::serve::MakeReplyFrame(id, reply.served_by, reply.degraded, reply.body)}) {
    mnc::serve::FrameReader reader;
    const std::string bytes = mnc::serve::EncodeFrame(f);
    reader.Append(bytes.data(), bytes.size());
    auto decoded = reader.Next();
    if (!decoded.ok() || !decoded->has_value()) return -1.0;
  }
  return Us(NowNs() - t0);
}

class Replayer {
 public:
  Replayer(const RunContext& ctx, int port)
      : ctx_(ctx), traced_(ServiceOptions(ctx)), untraced_(ServiceOptions(ctx)) {
    if (const mnc::Status s = client_.Connect(port); !s.ok()) Fail("connect: " + s.ToString());
  }

  // Sends `req` to the server and both twins; records it when `record`.
  void Replay(const Request& req, bool record, bool steady) {
    const bool write = req.verb == Verb::kRegister;
    const int64_t t0 = NowNs();
    auto reply = client_.Call(req.line, 0, 120'000);
    const double rt_us = Us(NowNs() - t0);
    if (write && steady) ++epoch_;  // set-up lines install variant 0
    ++attempted_;
    if (!reply.ok()) return Fail("transport: " + reply.status().ToString());
    if (std::string why = CheckReply(ctx_.refs, req, *reply, epoch_, epoch_);
        !why.empty()) {
      return Fail(why);
    }
    Traced t;
    t.verb = req.verb;
    t.steady = steady;
    t.rt_us = rt_us;
    t.frame_us = FrameRoundUs(static_cast<uint64_t>(attempted_), req.line, *reply);
    if (t.frame_us < 0.0) return Fail("'" + req.line + "' does not survive a frame round trip");
    // Alternate which twin runs first so neither always finds warmer caches.
    const bool traced_first = (attempted_ % 2) == 0;
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == traced_first;
      tracer_.spans.clear();
      tracer_.stack.clear();
      Tracer::active = traced && record ? &tracer_ : nullptr;
      int64_t start = 0;
      mnc::serve::CommandOutcome out;
      {
        ScopedSpan span(kCommand);
        start = NowNs();
        out = mnc::serve::RunServeCommand(traced ? traced_ : untraced_, req.line);
      }
      const double us = Us(NowNs() - start);
      Tracer::active = nullptr;
      if (!out.ok() || ReplyKey(req.verb, out.body) != ReplyKey(req.verb, reply->body)) {
        return Fail("in-process '" + req.line + "' disagrees with the server");
      }
      if (traced) {
        t.cmd_us = record ? Us(tracer_.spans[0].end_ns - tracer_.spans[0].start_ns) : us;
        t.spans = tracer_.spans;
      } else {
        t.cmd_untraced_us = us;
      }
    }
    if (record) requests_.push_back(std::move(t));
  }

  std::string Stats() {
    auto reply = client_.Call("stats", 0, 30'000);
    if (!reply.ok() || !reply->ok()) {
      Fail("stats failed");
      return "";
    }
    return reply->body;
  }

  void Fail(const std::string& why) {
    ++failed_;
    if (first_error_.empty()) first_error_ = why;
  }

  const std::vector<Traced>& requests() const { return requests_; }
  int64_t writes() const { return epoch_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::string& first_error() const { return first_error_; }

 private:
  static mnc::EstimationServiceOptions ServiceOptions(const RunContext& ctx) {
    // The server's defaults: mnc_tool serve [--guided] --profile <pinned>.
    mnc::EstimationServiceOptions o;
    o.profile = ctx.profile;
    o.guided_exec = ctx.inputs.guided;
    return o;
  }

  const RunContext& ctx_;
  mnc::EstimationService traced_;
  mnc::EstimationService untraced_;
  mnc::serve::ServeClient client_;
  Tracer tracer_;
  std::vector<Traced> requests_;
  int64_t epoch_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::string first_error_;
};

struct LayerTotals {
  int64_t calls = 0;
  double self_us = 0.0;
  double flops = 0.0;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = ParseOptions(argc, argv);
  RunContext ctx = Prepare(opt);
  const Inputs& in = ctx.inputs;

  // A bare server: the replay sends the set-up lines itself.
  ServerProcess server;
  if (!server.Start(opt, in, ctx.profile_path)) {
    std::fprintf(stderr, "perfbench: the server did not start\n");
    Finish(ctx);
    return 1;
  }

  Replayer replay(ctx, server.port());
  for (const std::string& line : in.setup) {
    Request req;
    req.verb = Verb::kRegister;
    req.line = line;
    replay.Replay(req, /*record=*/true, /*steady=*/false);
  }
  // One sequential stream, interleaving the connections' streams.
  std::vector<RequestStream> streams;
  for (int c = 0; c < in.connections; ++c) streams.emplace_back(in, opt.seed, c);
  int64_t n = 0;
  auto next = [&] { return streams[static_cast<size_t>(n++ % in.connections)].Next(); };
  const int64_t warmup = opt.tiny ? 8 : in.exec ? 48 : 64;
  for (int64_t i = 0; i < warmup; ++i) replay.Replay(next(), false, true);
  const auto record_until = std::chrono::steady_clock::now() +
                            std::chrono::duration<double>(0.35 * opt.seconds);
  while (std::chrono::steady_clock::now() < record_until && replay.failed() == 0) {
    replay.Replay(next(), true, true);
  }

  // Concurrent phase for the server's own counters. Its writes carry on
  // from the replay's, so each is still a fingerprint the server has not
  // seen.
  const Counters before = ParseStats(replay.Stats());
  const LoadResult load = RunLoad(in, ctx.refs, server.port(), opt.seed + 1, 0.0,
                                  0.35 * opt.seconds, replay.writes());
  const Counters after = ParseStats(replay.Stats());
  const std::string drained = server.Stop();
  int64_t server_errors = 0, busy = 0;
  const bool drained_ok = ParseDrained(drained, &server_errors, &busy);
  auto delta = [&](const std::string& key) { return after.Get(key) - before.Get(key); };
  const double load_requests = static_cast<double>(load.attempted);

  // Per-layer self times, the decomposition check, and the span file.
  LayerTotals layers[kNumLayers];
  int64_t misses = 0, negative = 0, misnested = 0, steady = 0, estimates = 0,
          propagations = 0;
  double serve_self_us = 0.0, frame_us = 0.0, cmd_traced = 0.0, cmd_untraced = 0.0;
  std::ofstream span_file(opt.work_dir + "/trace-" + opt.workload + "-" +
                          std::to_string(opt.seed) + ".tsv");
  span_file << "request\tspan\tparent\tlayer\tstart_us\tend_us\tflops\n";
  const std::vector<Traced>& reqs = replay.requests();
  for (size_t r = 0; r < reqs.size(); ++r) {
    const Traced& t = reqs[r];
    std::vector<double> child_us(t.spans.size(), 0.0);
    for (const Span& s : t.spans) {
      if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += Us(s.end_ns - s.start_ns);
    }
    const int64_t base = t.spans.empty() ? 0 : t.spans[0].start_ns;
    for (size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      const double self = Us(s.end_ns - s.start_ns) - child_us[i];
      if (self < 0.0) ++negative;
      // One tree per request: the command span is the only root, and each
      // other span lies inside a parent that started before it.
      if (i == 0 ? s.parent != -1 || s.layer != kCommand
                 : s.parent < 0 || static_cast<size_t>(s.parent) >= i ||
                       s.start_ns < t.spans[static_cast<size_t>(s.parent)].start_ns ||
                       s.end_ns > t.spans[static_cast<size_t>(s.parent)].end_ns) {
        ++misnested;
      }
      layers[s.layer].calls += 1;
      layers[s.layer].self_us += self;
      layers[s.layer].flops += s.flops;
      if (s.layer == kPropagate && t.verb == Verb::kEstimate) ++propagations;
      // Frame and command share the request's timeline after the frame.
      span_file << r << '\t' << i + 2 << '\t' << (s.parent < 0 ? 0 : s.parent + 2) << '\t'
                << kLayerNames[s.layer] << '\t' << t.frame_us + Us(s.start_ns - base) << '\t'
                << t.frame_us + Us(s.end_ns - base) << '\t' << s.flops << '\n';
    }
    span_file << r << "\t0\t-1\tserve.request\t0\t" << t.rt_us << "\t0\n"
              << r << "\t1\t0\tserve.frame\t0\t" << t.frame_us << "\t0\n";
    const double serve_self = t.rt_us - t.frame_us - t.cmd_us;
    if (serve_self < -(kSpanTolerance * t.rt_us + kSpanSlackUs)) ++misses;
    if (!t.steady) continue;
    ++steady;
    cmd_traced += t.cmd_us;
    cmd_untraced += t.cmd_untraced_us;
    serve_self_us += serve_self;
    frame_us += t.frame_us;
    if (t.verb == Verb::kEstimate) ++estimates;
  }
  span_file.close();

  auto self_per_call = [&](Layer l, double scale) {
    return Ratio(layers[l].self_us, static_cast<double>(layers[l].calls)) * scale;
  };
  const double canon_calls = static_cast<double>(layers[kCanonicalize].calls);
  const double plan_lookups = delta("plan.hits") + delta("plan.misses");
  std::vector<Metric> metrics = {
      {"serve.self_us", Ratio(serve_self_us, static_cast<double>(steady)), "us"},
      {"serve.frame_us", Ratio(frame_us, static_cast<double>(steady)), "us"},
      {"serve.batch_size_mean", Ratio(delta("serve.batched"), delta("serve.batches")), "count"},
      {"serve.errors", static_cast<double>(server_errors), "count"},
      {"serve.busy_rejected", static_cast<double>(busy), "count"},
      {"lang.parse_us", self_per_call(kParse, 1.0), "us"},
      {"ir.canonicalize_us",
       Ratio(layers[kCanonicalize].self_us + layers[kHash].self_us, canon_calls), "us"},
      {"ir.evaluate_self_ms", self_per_call(kEvaluate, 1e-3), "ms"},
      {"service.estimate_self_us", self_per_call(kEstimate, 1.0), "us"},
      {"service.memo_hit_ratio",
       Ratio(delta("memo.hits"), delta("memo.hits") + delta("memo.misses")), "ratio"},
      {"service.memo_evictions", Ratio(delta("memo.evictions"), load_requests), "1/req"},
      {"service.plan_hit_ratio", Ratio(delta("plan.hits"), plan_lookups), "ratio"},
      {"service.plan_invalidations", Ratio(delta("plan.invalidations"), load_requests),
       "1/req"},
      {"service.register_ms", self_per_call(kRegister, 1e-3), "ms"},
      {"service.fallback_estimates", delta("queries.fallback"), "count"},
      {"core.sketch_build_ms", self_per_call(kSketchBuild, 1e-3), "ms"},
      {"core.propagate_ms", self_per_call(kPropagate, 1e-3), "ms"},
      {"core.alg1_us", self_per_call(kAlg1, 1.0), "us"},
      {"core.nodes_propagated",
       Ratio(static_cast<double>(propagations), static_cast<double>(estimates)), "count"},
      {"core.row_estimates_ms", self_per_call(kRowEstimates, 1e-3), "ms"},
      {"matrix.spgemm_ms", self_per_call(kSpgemm, 1e-3), "ms"},
      {"matrix.spgemm_flops",
       Ratio(layers[kSpgemm].flops, static_cast<double>(layers[kSpgemm].calls)), "flop"},
      {"matrix.spgemm_gflops", Ratio(layers[kSpgemm].flops, layers[kSpgemm].self_us * 1e3),
       "Gflop/s"},
      {"matrix.mm_read_ms", self_per_call(kMmRead, 1e-3), "ms"},
      {"ingest.stream_sketch_ms", self_per_call(kStreamSketch, 1e-3), "ms"},
      {"trace.overhead_ratio", Ratio(cmd_traced, cmd_untraced), "ratio"},
  };

  const double miss_share = Ratio(static_cast<double>(misses), static_cast<double>(reqs.size()));
  std::string unreached;
  for (const Layer l : RequiredLayers(opt.workload)) {
    if (layers[l].calls == 0) unreached += std::string(" ") + kLayerNames[l];
  }
  std::fprintf(stderr,
               "perfbench: traced %zu requests (%lld steady); %lld outside the span "
               "tolerance (%.0f%% + %.0f us), %lld negative self times, %lld misnested "
               "spans; %lld writes (%lld reused a sketch) in the concurrent phase\n",
               reqs.size(), static_cast<long long>(steady), static_cast<long long>(misses),
               kSpanTolerance * 100.0, kSpanSlackUs, static_cast<long long>(negative),
               static_cast<long long>(misnested), static_cast<long long>(load.writes),
               static_cast<long long>(load.writes_reused));
  if (!unreached.empty()) {
    std::fprintf(stderr, "perfbench: no call recorded into:%s\n", unreached.c_str());
  }
  const int64_t attempted = replay.attempted() + load.attempted;
  const int64_t failed = replay.failed() + load.failed;
  const bool correct = failed == 0 && drained_ok && server_errors == 0 && negative == 0 &&
                       misnested == 0 && unreached.empty() &&
                       miss_share <= kMaxMissShare && steady > 0;
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: first failure: %s\n",
                 !replay.first_error().empty() ? replay.first_error().c_str()
                                               : load.first_error.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  Finish(ctx);
  return correct ? 0 : 1;
}
