// Fault-tolerant concurrent serving tier: a framed TCP socket server over a
// shared EstimationService.
//
// Architecture (see DESIGN.md, "Serving tier"):
//
//   accept/IO thread (poll)          worker pool (ThreadPool)
//   ------------------------         -------------------------
//   accept connections          -->  one task per admitted request:
//   read bytes -> FrameReader        RunServeCommand(service, cmd, ctx)
//   admission check                  deadline via RequestContext
//   submit each request         <--  enqueue reply into conn outbox,
//   write outboxes (POLLOUT)         wake the IO thread via pipe
//   idle/slow-client timeouts
//   graceful drain on Shutdown
//
// Every admitted request takes the same route: the IO thread submits it to
// the pool as its own task (DispatchRequest), and the worker that runs it
// encodes the reply. Requests pipelined on one connection run concurrently,
// so their replies may overtake each other; clients match them by
// request_id. The IO thread blocks in poll with a fixed 100 ms tick and is
// otherwise woken only by socket readiness or the wake pipe.
//
// Robustness contract: a client-visible fault — malformed frame, oversized
// payload, command error, estimator-tier failure, expired deadline, full
// queue, slow or dead peer — must never crash or wedge the server. Every
// request gets exactly one reply frame (kReply or a typed kError) unless its
// connection died first; framing errors close only the offending connection
// after a best-effort error frame.
//
//   - Admission control: at most `max_inflight` requests are executing or
//     queued on the worker pool; beyond that requests are rejected
//     immediately with RESOURCE_EXHAUSTED ("server busy") instead of
//     queueing without bound. `max_connections` bounds the connection count
//     the same way: accepts beyond it get a typed error frame and close.
//   - Backpressure: a connection with `max_pipeline` requests in flight OR
//     more than `max_outbox_bytes` of unflushed reply bytes stops being read
//     (its socket is dropped from the poll set) until replies drain, so one
//     pipelining client — or one streaming pings without ever reading
//     replies — cannot monopolize the admission budget or buffer memory.
//   - Deadlines: a request's deadline_ms (or the server default) becomes a
//     RequestContext checked cooperatively inside the estimation paths;
//     expiry yields a typed DEADLINE_EXCEEDED error, never a late answer.
//   - Degradation: when PR-1 fail points (or real faults) break the MNC
//     tier underneath a request, the reply is served by the fallback chain
//     and carries the serving tier + degraded flag (kFrameFlagDegraded).
//   - Graceful drain: Shutdown() (or RequestShutdown from a signal handler)
//     stops accepting, rejects new requests with UNAVAILABLE, finishes
//     in-flight work, flushes write buffers, then closes — bounded by
//     `drain_timeout_ms`.
//
// Network fail points (chaos testing): "serve.accept" drops incoming
// connections, "serve.read_frame" / "serve.write_frame" simulate socket
// I/O failures (closing the connection), "serve.deadline" forces the
// expired-deadline path for a request.

#ifndef MNC_SERVE_SERVER_H_
#define MNC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "mnc/serve/frame.h"
#include "mnc/service/estimation_service.h"
#include "mnc/util/status.h"
#include "mnc/util/thread_pool.h"

namespace mnc::serve {

struct ServerOptions {
  // TCP port on the loopback interface; 0 asks the kernel for a free port
  // (read it back via port() after Start).
  int port = 0;
  // Worker threads executing commands; <= 0 selects hardware concurrency.
  int num_workers = 4;
  // Admission bound: requests executing or queued across all connections.
  int max_inflight = 64;
  // Per-connection pipeline bound before reads are suspended.
  int max_pipeline = 8;
  // Per-connection bound on buffered reply bytes before reads are suspended.
  // Catches traffic the pipeline counter does not (pings, typed protocol
  // errors): a client streaming pings without reading replies stalls instead
  // of growing the outbox without bound.
  size_t max_outbox_bytes = 4u << 20;
  // Frame payload ceiling. Values above the protocol hard cap
  // (kDefaultMaxPayloadBytes) are clamped at construction — the reply path
  // can never encode a larger frame, so accepting one would be a trap.
  uint32_t max_frame_bytes = kDefaultMaxPayloadBytes;
  // Default per-request deadline when the request frame carries none;
  // 0 = unbounded.
  int64_t default_deadline_ms = 0;
  // Connection-count bound: accepts beyond it are rejected with a typed
  // RESOURCE_EXHAUSTED error frame and closed. <= 0 = unlimited.
  int max_connections = 0;
  // Close connections with no traffic and nothing in flight for this long;
  // <= 0 disables the idle reaper.
  int64_t idle_timeout_ms = 60'000;
  // Upper bound on waiting for in-flight requests + reply flushes during
  // graceful drain; afterwards connections are closed regardless.
  int64_t drain_timeout_ms = 10'000;
};

struct ServerStats {
  int64_t accepted = 0;          // connections accepted
  int64_t accept_faults = 0;     // serve.accept dropped the connection
  int64_t requests = 0;          // request frames admitted for execution
  int64_t replies = 0;           // successful kReply frames sent
  int64_t typed_errors = 0;      // kError frames sent (any cause)
  int64_t degraded = 0;          // replies served by a fallback tier
  int64_t busy_rejected = 0;     // admission control SERVER_BUSY rejections
  int64_t deadline_errors = 0;   // DEADLINE_EXCEEDED replies
  int64_t malformed_frames = 0;  // framing errors (connection closed)
  int64_t read_faults = 0;       // read failures incl. serve.read_frame
  int64_t write_faults = 0;      // write failures incl. serve.write_frame
  int64_t idle_closed = 0;       // connections reaped by the idle timeout
  int64_t outbox_suspended = 0;  // poll rounds a conn's reads were paused
                                 // by the outbox byte bound
  int64_t open_connections = 0;  // connections currently open
  int64_t conn_rejected = 0;     // accepts refused by max_connections
};

class Server {
 public:
  // `service` must outlive the server and is shared with any other front
  // end (the stdin REPL, other servers); it is already thread-safe.
  Server(EstimationService* service, ServerOptions options = {});
  ~Server();  // implies Shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the loopback listener, spawns the IO thread and worker pool.
  Status Start();

  // Port actually bound (valid after a successful Start).
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Graceful drain: stop accepting, finish in-flight requests, flush
  // replies, close. Blocks until the server is down (bounded by
  // drain_timeout_ms); idempotent and safe from any thread.
  void Shutdown();

  // Async-signal-safe shutdown trigger (a single write to the wake pipe):
  // call from a SIGTERM/SIGINT handler, then Shutdown() from a normal
  // thread to join.
  void RequestShutdown();

  ServerStats stats() const;

 private:
  struct Connection;

  void IoLoop();
  // Runs one admitted request on a worker: bounds it (header deadline,
  // server default, serve.deadline fail point, the connection's cancel
  // token), executes it, and enqueues its reply or typed error on `conn`.
  void DispatchRequest(const std::shared_ptr<Connection>& conn, Frame request);
  void SendFrame(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void Wake();
  // IO-thread helpers.
  void AcceptNew();
  bool ReadConnection(const std::shared_ptr<Connection>& conn);   // false: close
  bool FlushConnection(const std::shared_ptr<Connection>& conn);  // false: close
  void CloseConnection(const std::shared_ptr<Connection>& conn);

  EstimationService* service_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // [0] read end (polled), [1] write end
  int port_ = 0;

  std::thread io_thread_;
  std::unique_ptr<ThreadPool> workers_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> inflight_{0};
  std::mutex shutdown_mu_;  // serializes Shutdown callers

  // Connections are owned and mutated by the IO thread only; workers reach
  // them through shared_ptr and touch only the mutex-guarded outbox.
  std::map<int, std::shared_ptr<Connection>> conns_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace mnc::serve

#endif  // MNC_SERVE_SERVER_H_
