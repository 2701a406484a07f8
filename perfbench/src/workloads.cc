// Workload inputs, request streams and reference replies.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>

#include "bench.h"
#include "mnc/ir/evaluator.h"
#include "mnc/lang/parser.h"
#include "mnc/matrix/generate.h"
#include "mnc/matrix/io.h"
#include "mnc/serve/command.h"
#include "mnc/service/estimation_service.h"
#include "mnc/sparsest/datasets.h"
#include "mnc/util/crc32.h"
#include "mnc/util/random.h"
#include "mnc/util/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Operand {
  std::string name;
  mnc::CsrMatrix m;
};

std::string WriteOperand(const std::string& dir, const std::string& file,
                         const mnc::CsrMatrix& m) {
  const std::string path = dir + "/" + file;
  const mnc::Status st = mnc::WriteMatrixMarketFile(m, path);
  if (!st.ok()) Die("writing " + path + ": " + st.ToString());
  return path;
}

// Same pattern, values scaled by a positive factor: a new content
// fingerprint with the same true nnz for every product over it.
mnc::CsrMatrix ScaleValues(const mnc::CsrMatrix& m, double factor) {
  std::vector<double> values = m.values();
  for (double& v : values) v *= factor;
  return mnc::CsrMatrix(m.rows(), m.cols(), m.row_ptr(), m.col_idx(),
                        std::move(values));
}

// estimate-hot: four ~2k x 2k operands and eight fixed chains of 5-15 nodes.
void MakeHot(const Options& opt, const std::string& dir, Inputs* in) {
  const int64_t n = opt.tiny ? 200 : 2000;
  mnc::Rng rng(opt.seed * 1000003ULL + 11);
  std::vector<Operand> ops;
  ops.push_back({"A", mnc::GenerateUniformSparse(n, n, 0.002, rng)});
  ops.push_back({"B", mnc::GenerateGraphAdjacency(n, 6.0, 1.2, rng)});
  ops.push_back({"C", mnc::MakeRatingsMatrix(n, n, 5.0, rng)});
  ops.push_back({"D", mnc::GenerateUniformSparse(n, n, 0.001, rng)});
  for (const Operand& op : ops) {
    const std::string path = WriteOperand(dir, op.name + ".mtx", op.m);
    in->operands.emplace_back(op.name, path);
    in->setup.push_back("register " + op.name + " " + path);
  }
  in->exprs = {
      "A %*% B %*% C",
      "t(A) %*% B %*% C %*% D",
      "(A %*% B) * (C %*% D)",
      "(A %*% B %*% C != 0) + D",
      "A %*% (B + C) %*% t(D)",
      "t(A %*% B) %*% (C * D) %*% A",
      "(A %*% B != 0) * (C %*% D %*% A %*% B)",
      "A %*% B %*% C %*% D %*% t(A) + C %*% D",
  };
  in->connections = 4;
}

// estimate-cold: twelve SparsEst-style operands at 10k-50k dims, streamed
// in with register-path, and a seeded pool of random shape-valid
// expressions whose sub-expressions far exceed the default memo budget.
void MakeCold(const Options& opt, const std::string& dir, Inputs* in) {
  const int64_t s = opt.tiny ? 20 : 1;
  const int64_t d10 = 10000 / s, d20 = 20000 / s, d30 = 30000 / s,
                d50 = 50000 / s;
  mnc::Rng rng(opt.seed * 1000003ULL + 23);
  std::vector<Operand> ops;
  ops.push_back({"G1", mnc::MakeCitationGraph(d20, 8.0, rng)});
  ops.push_back({"G2", mnc::MakeEmailGraph(d30, rng)});
  ops.push_back({"G3", mnc::GenerateGraphAdjacency(d10, 6.0, 1.1, rng)});
  ops.push_back({"R1", mnc::MakeRatingsMatrix(d20, d10, 6.0, rng)});
  ops.push_back({"R2", mnc::MakeRatingsMatrix(d30, d20, 5.0, rng)});
  ops.push_back(
      {"T1", mnc::MakeTokenSequenceMatrix(d50, d20 - 1, 0.3, 1.1, rng)});
  ops.push_back({"P1", mnc::GeneratePermutation(d20, rng)});
  ops.push_back({"P2", mnc::GeneratePermutation(d30, rng)});
  ops.push_back({"S1", mnc::MakeScaleShiftMatrix(d10, rng)});
  ops.push_back({"S2", mnc::MakeScaleShiftMatrix(d20, rng)});
  ops.push_back({"U1", mnc::GenerateUniformSparse(d10, d30, 3e-4, rng)});
  ops.push_back({"U2", mnc::GenerateUniformSparse(d50, d10, 2e-4, rng)});

  // Terms by their row dimension: X maps rows -> cols, t(X) cols -> rows.
  struct Term {
    std::string text;
    int64_t rows, cols;
  };
  std::map<int64_t, std::vector<Term>> from;
  std::vector<Term> terms;
  for (const Operand& op : ops) {
    const std::string path = WriteOperand(dir, op.name + ".mtx", op.m);
    in->operands.emplace_back(op.name, path);
    in->setup.push_back("register-path " + op.name + " " + path);
    terms.push_back({op.name, op.m.rows(), op.m.cols()});
    terms.push_back({"t(" + op.name + ")", op.m.cols(), op.m.rows()});
  }
  for (const Term& t : terms) from[t.rows].push_back(t);
  const std::vector<int64_t> dims = {d10, d20, d30, d50};

  uint64_t state = opt.seed * 0x2545F4914F6CDD1DULL + 7;
  auto pick = [&](size_t n) { return static_cast<size_t>(SplitMix(&state) % n); };
  // A chain of `products` products starting at row dimension `start`.
  auto chain = [&](int64_t start, int products, int64_t* cols) {
    const std::vector<Term>& first = from[start];
    const Term* t = &first[pick(first.size())];
    std::string text = t->text;
    int64_t cur = t->cols;
    for (int i = 0; i < products; ++i) {
      const std::vector<Term>& next = from[cur];
      t = &next[pick(next.size())];
      text += " %*% " + t->text;
      cur = t->cols;
    }
    *cols = cur;
    return text;
  };

  // The pool is stratified so every seed draws the same mix of shapes:
  // each (form, product count, start dimension) cell gets equal share, and
  // the seed picks the operands along the chain.
  const int per_cell = opt.tiny ? 1 : 6;
  std::set<std::string> seen;
  for (int form = 0; form < 4; ++form) {
    for (int products = 3; products <= 8; ++products) {
      if (opt.tiny && products > 3) break;
      for (size_t d = 0; d < dims.size(); ++d) {
        for (int k = 0; k < per_cell;) {
          int64_t end = 0;
          std::string expr;
          if (form == 0) {
            expr = chain(dims[d], products, &end);
          } else if (form == 1) {
            expr = "(" + chain(dims[d], products, &end) + ") != 0";
          } else if (form == 2) {
            expr = "t(" + chain(dims[d], products, &end) + ")";
          } else {
            // Element-wise combination of two same-shape chains.
            const int left_products = products / 2;
            const std::string left = chain(dims[d], left_products, &end);
            int64_t right_end = 0;
            const std::string right = chain(dims[d], products - left_products, &right_end);
            if (right_end != end) continue;
            expr = "(" + left + ")" + (k % 2 == 0 ? " + " : " * ") + "(" + right + ")";
          }
          if (seen.insert(expr).second) {
            in->exprs.push_back(expr);
            ++k;
          }
        }
      }
    }
  }
  in->connections = 2;
}

// exec-mixed: SpGEMM-heavy chains executed guided, each followed by its
// estimate; connection 0 periodically re-registers a value variant of A.
void MakeExecMixed(const Options& opt, const std::string& dir, Inputs* in) {
  // Uniform patterns keep each product's size (and so the run's cost and
  // memory) nearly the same from seed to seed; every output stays sparse.
  const int64_t n = opt.tiny ? 200 : 2000, m = opt.tiny ? 150 : 1500;
  mnc::Rng rng(opt.seed * 1000003ULL + 37);
  const mnc::CsrMatrix a = mnc::GenerateUniformSparse(n, n, 4.0 / n, rng);
  std::vector<Operand> ops;
  ops.push_back({"B", mnc::GenerateUniformSparse(n, n, 3.0 / n, rng)});
  ops.push_back({"C", mnc::GenerateUniformSparse(n, m, 4.0 / m, rng)});
  ops.push_back({"D", mnc::GenerateUniformSparse(m, n, 3.0 / n, rng)});
  // One variant per write a run can make, so every write is a fingerprint
  // the server has not seen: it builds a sketch, and costs each chain over
  // A a re-propagation and a plan miss, as a write of new data would. A
  // run writes for at most --seconds plus warm-up on one server.
  in->write_period_s = 0.1;
  const int variants =
      static_cast<int>(std::ceil((opt.seconds + 2 * kWarmupSeconds) / in->write_period_s)) + 1;
  for (int v = 0; v < variants; ++v) {
    const std::string path = WriteOperand(
        dir, "A_v" + std::to_string(v) + ".mtx", ScaleValues(a, 1.0 + 0.25 * v));
    in->variant_lines.push_back("register A " + path);
    if (v == 0) {
      in->operands.emplace_back("A", path);
      in->setup.push_back(in->variant_lines.back());
    }
  }
  for (const Operand& op : ops) {
    const std::string path = WriteOperand(dir, op.name + ".mtx", op.m);
    in->operands.emplace_back(op.name, path);
    in->setup.push_back("register " + op.name + " " + path);
  }
  in->exprs = {
      "A %*% B %*% A",
      "t(A) %*% C %*% D",
      "(A %*% B) * (B %*% A)",
      "(A %*% A %*% B) != 0",
      "C %*% D %*% A + B",
      "A %*% C %*% D %*% B",
  };
  in->connections = 2;
  in->guided = true;
  in->exec = true;
}

}  // namespace

Options ParseOptions(int argc, char** argv) {
  Options opt;
  auto usage = [] {
    Die("usage: perfbench --workload <estimate-hot|estimate-cold|exec-mixed> "
        "--seed <n> --seconds <s> --trace <0|1> --mnc-tool <path> "
        "--work-dir <dir> [--source-id <id>] [--tiny] [--corrupt-reference]");
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has) {
      opt.trace = std::strcmp(argv[++i], "1") == 0;
    } else if (a == "--mnc-tool" && has) {
      opt.mnc_tool = argv[++i];
    } else if (a == "--work-dir" && has) {
      opt.work_dir = argv[++i];
    } else if (a == "--source-id" && has) {
      opt.source_id = argv[++i];
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--corrupt-reference") {
      opt.corrupt_reference = true;
    } else {
      usage();
    }
  }
  if (opt.workload != "estimate-hot" && opt.workload != "estimate-cold" &&
      opt.workload != "exec-mixed") {
    usage();
  }
  if (opt.mnc_tool.empty() || opt.work_dir.empty() || opt.seconds <= 0) usage();
  return opt;
}

Inputs GenerateInputs(const Options& opt, const std::string& dir) {
  Inputs in;
  in.workload = opt.workload;
  if (opt.workload == "estimate-hot") {
    MakeHot(opt, dir, &in);
  } else if (opt.workload == "estimate-cold") {
    MakeCold(opt, dir, &in);
  } else {
    MakeExecMixed(opt, dir, &in);
  }
  return in;
}

RequestStream::RequestStream(const Inputs& in, uint64_t seed, int conn, int64_t writes_before)
    : in_(in),
      state_(seed * 0x9E3779B97F4A7C15ULL + 1000 + conn),
      conn_(conn),
      next_write_(writes_before + 1),
      write_due_(std::chrono::steady_clock::now()) {}

Request RequestStream::Next() {
  using Clock = std::chrono::steady_clock;
  Request r;
  if (!in_.exec) {
    r.expr = static_cast<int>(SplitMix(&state_) % in_.exprs.size());
    r.line = "estimate " + in_.exprs[r.expr];
  } else if (pending_estimate_ >= 0) {
    r.expr = pending_estimate_;
    r.line = "estimate " + in_.exprs[r.expr];
    pending_estimate_ = -1;
  } else if (conn_ == 0 && in_.write_period_s > 0.0 && Clock::now() >= write_due_) {
    r.verb = Verb::kRegister;
    r.line = in_.variant_lines[static_cast<size_t>(next_write_) % in_.variant_lines.size()];
    ++next_write_;
    write_due_ += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(in_.write_period_s));
  } else {
    r.verb = Verb::kExec;
    r.expr = static_cast<int>(SplitMix(&state_) % in_.exprs.size());
    r.line = "exec " + in_.exprs[r.expr];
    pending_estimate_ = r.expr;
  }
  return r;
}

std::string ReplyKey(Verb verb, const std::string& body) {
  size_t end = std::string::npos;
  if (verb == Verb::kEstimate) {
    end = body.find(", served by");
  } else if (verb == Verb::kExec) {
    const size_t p = body.find(" non-zeros");
    if (p != std::string::npos) end = p + std::strlen(" non-zeros");
  } else {
    const size_t p = body.find("sparsity ");
    if (p != std::string::npos) end = body.find_first_of(", (", p + 9);
  }
  if (end == std::string::npos) return "<unparsed> " + body;
  return body.substr(0, end);
}

References ComputeReferences(
    const Inputs& in,
    const std::shared_ptr<const mnc::tuning::MachineProfile>& profile,
    bool corrupt) {
  References refs;
  mnc::EstimationServiceOptions o;
  o.memo_budget_bytes = 0;  // every answer propagated from scratch
  o.profile = profile;
  mnc::EstimationService service(o);
  auto run = [&](const std::string& line) {
    const mnc::serve::CommandOutcome out =
        mnc::serve::RunServeCommand(service, line);
    if (!out.ok()) Die("reference '" + line + "': " + out.status.ToString());
    if (out.degraded) Die("reference '" + line + "' degraded");
    return out.body;
  };
  for (const std::string& line : in.setup) {
    refs.register_keys[line] = ReplyKey(Verb::kRegister, run(line));
  }
  const size_t variants = std::max<size_t>(1, in.variant_lines.size());
  refs.estimate.assign(in.exprs.size(), std::vector<std::string>(variants));
  for (size_t v = 0; v < variants; ++v) {
    if (!in.variant_lines.empty()) {
      refs.register_keys[in.variant_lines[v]] =
          ReplyKey(Verb::kRegister, run(in.variant_lines[v]));
    }
    for (size_t e = 0; e < in.exprs.size(); ++e) {
      refs.estimate[e][v] =
          ReplyKey(Verb::kEstimate, run("estimate " + in.exprs[e]));
    }
  }
  if (in.exec) {
    std::map<std::string, mnc::Matrix> bindings;
    for (const auto& [name, path] : in.operands) {
      auto m = mnc::ReadMatrixMarketFile(path);
      if (!m.ok()) Die("reading " + path + ": " + m.status().ToString());
      bindings.emplace(name, mnc::Matrix::AutoFromCsr(std::move(m).value()));
    }
    for (const std::string& e : in.exprs) {
      const mnc::ParseResult parsed = mnc::ParseProgram(e, bindings);
      if (!parsed.ok()) Die("parsing '" + e + "': " + parsed.error);
      mnc::Evaluator blind;
      auto result = blind.TryEvaluate(parsed.expr);
      if (!result.ok()) Die("evaluating '" + e + "': " + result.status().ToString());
      char buf[160];
      std::snprintf(buf, sizeof(buf), "executed: %lld x %lld output, %lld non-zeros",
                    static_cast<long long>(result->rows()),
                    static_cast<long long>(result->cols()),
                    static_cast<long long>(result->NumNonZeros()));
      refs.exec.push_back(buf);
    }
  }
  if (corrupt) {
    for (std::string& ref : refs.estimate[0]) ref += " (corrupted)";
  }
  return refs;
}

std::string CheckReply(const References& refs, const Request& req,
                       const mnc::serve::ServeClient::Reply& reply, int64_t epoch_lo,
                       int64_t epoch_hi) {
  if (!reply.ok()) return req.line + " -> " + reply.status.ToString();
  if (reply.degraded) return req.line + " -> degraded (" + reply.served_by + ")";
  const std::string key = ReplyKey(req.verb, reply.body);
  if (req.verb == Verb::kRegister) {
    const auto it = refs.register_keys.find(req.line);
    if (it != refs.register_keys.end() && it->second == key) return "";
  } else if (req.verb == Verb::kExec) {
    if (refs.exec[req.expr] == key) return "";
  } else {
    if (reply.served_by != "mnc" && reply.served_by != "memo") {
      return req.line + " -> served by " + reply.served_by;
    }
    const std::vector<std::string>& by_variant = refs.estimate[req.expr];
    const int64_t n = static_cast<int64_t>(by_variant.size());
    const int64_t hi = std::min(epoch_hi, epoch_lo + n - 1);
    for (int64_t e = epoch_lo; e <= hi; ++e) {
      if (by_variant[static_cast<size_t>(e % n)] == key) return "";
    }
  }
  return req.line + " -> '" + reply.body + "' does not match the reference";
}

std::shared_ptr<const mnc::tuning::MachineProfile> PinnedProfile(
    const std::string& path, std::string* identity) {
  mnc::tuning::MachineProfile p = mnc::tuning::NeutralProfile();
  p.calibrated_threads = 1;
  p.simd_level = mnc::BestSupportedSimdLevel();
  const mnc::Status st = mnc::tuning::SaveProfile(p, path);
  if (!st.ok()) Die("writing profile: " + st.ToString());
  const std::string bytes = mnc::tuning::SerializeProfile(p);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "neutral/%s/crc32:%08x",
                mnc::SimdLevelName(p.simd_level),
                mnc::Crc32(bytes.data(), bytes.size()));
  *identity = buf;
  return std::make_shared<const mnc::tuning::MachineProfile>(p);
}

std::string HostDescriptor(const Options& opt, const std::string& profile_id) {
  const char* simd_env = std::getenv("MNC_SIMD");
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"host\": {\"source\": \"%s\", \"nproc\": %u, \"simd\": \"%s\", "
      "\"MNC_SIMD\": \"%s\", \"build_type\": \"%s\", \"profile\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}}",
      opt.source_id.c_str(), std::thread::hardware_concurrency(),
      mnc::SimdLevelName(mnc::BestSupportedSimdLevel()),
      simd_env != nullptr ? simd_env : "", PERFBENCH_BUILD_TYPE,
      profile_id.c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  return buf;
}

}  // namespace perfbench
