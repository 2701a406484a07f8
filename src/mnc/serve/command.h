// The serve command language, shared by the offline stdin REPL
// (`mnc_tool serve`) and the socket serving tier (`mnc_tool serve --listen`).
//
// One command per line:
//   register <name> <file.mtx>   build/reuse the sketch of a matrix
//   register-path <name> <file> [<file2> ...] [--union]
//                                streaming registration: sketch the files
//                                chunk-by-chunk without materializing the
//                                matrix (multiple files rbind as row
//                                shards; --union adds same-shaped pieces)
//   estimate <expression>        estimate a DML-like expression
//   exec <expression>            evaluate a DML-like expression
//   stats                        catalog/memo/query counters
//   clear                        drop all memoized sub-expressions
//   sleep <ms>                   hold the worker (deadline/backpressure
//                                testing and drain drills; capped, honors
//                                the request deadline)
//   quit                         end the session
//
// Both front ends funnel through RunServeCommand so behavior (verbs, error
// wording, degradation reporting) cannot drift between the offline and the
// network mode. The outcome separates transport-agnostic results (body,
// serving tier, degraded flag) from the session-control bit (quit).

#ifndef MNC_SERVE_COMMAND_H_
#define MNC_SERVE_COMMAND_H_

#include <string>

#include "mnc/service/estimation_service.h"
#include "mnc/util/deadline.h"
#include "mnc/util/status.h"

namespace mnc::serve {

struct CommandOutcome {
  // Command-level failure (unknown verb, parse error, load failure,
  // estimator failure, deadline). The session stays usable either way.
  Status status;
  // Human-readable result text (empty on error).
  std::string body;
  // Which tier answered an estimate/exec ("mnc", "memo", "DMap", ...).
  std::string served_by;
  // True when a fallback tier served because the MNC path failed.
  bool degraded = false;
  // True when the command asked to end the session (quit/exit).
  bool quit = false;

  bool ok() const { return status.ok(); }
};

// True for serving tiers other than the precise MNC/memo paths.
bool IsDegradedTier(const std::string& served_by);

// Serving-tier counters the socket server feeds into the `stats` verb; the
// offline REPL passes nullptr and gets no serve line.
struct ServeTierInfo {
  int64_t open_connections = 0;
  int64_t conn_rejected = 0;  // accepts refused by max_connections
};

// Executes one command line against `service`. Blank lines and '#' comments
// are no-ops. `ctx` (optional) bounds estimate/exec/sleep with the caller's
// deadline/cancellation. `serve` (optional) adds the socket tier's own
// counters to the `stats` output.
CommandOutcome RunServeCommand(EstimationService& service,
                               const std::string& line,
                               const RequestContext* ctx = nullptr,
                               const ServeTierInfo* serve = nullptr);

}  // namespace mnc::serve

#endif  // MNC_SERVE_COMMAND_H_
