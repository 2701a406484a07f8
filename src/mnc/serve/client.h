// Blocking client for the serving tier's framed protocol.
//
// One ServeClient is one connection and is NOT thread-safe; concurrent load
// generators use one client per thread. Transport faults (connection reset,
// server-side serve.read_frame/write_frame drops, receive timeouts) surface
// as a typed Status from Call/Receive — never as a hang or a crash — and
// leave the client disconnected.
//
// Call() is the simple path: send one command, wait for its reply. The
// split Send()/Receive() pair allows pipelining many requests on one
// connection (used by the backpressure and admission-control tests).
// Pipelined replies may overtake each other: the server runs pipelined
// requests concurrently and answers each as it completes. Match replies to
// requests by request_id (Send reports the id it assigned), never by
// position.

#ifndef MNC_SERVE_CLIENT_H_
#define MNC_SERVE_CLIENT_H_

#include <cstdint>
#include <string>

#include "mnc/serve/frame.h"
#include "mnc/util/status.h"

namespace mnc::serve {

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  // A resolved reply for one request.
  struct Reply {
    // Server-side command outcome: Ok for a kReply frame, the typed error
    // for a kError frame (DEADLINE_EXCEEDED, RESOURCE_EXHAUSTED, ...).
    Status status;
    std::string served_by;  // tier that answered ("mnc", "memo", "DMap", ...)
    bool degraded = false;  // reply carried kFrameFlagDegraded
    std::string body;       // human-readable result text
    uint64_t request_id = 0;

    bool ok() const { return status.ok(); }
  };

  // Connects to 127.0.0.1:<port> ("localhost" is the only supported host).
  Status Connect(int port, int64_t timeout_ms = 5'000);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // Send one command and block for its reply. `deadline_ms` (0 = none) is
  // the server-side execution deadline; `timeout_ms` bounds the client-side
  // wait for the reply bytes. Transport failures return a non-OK StatusOr
  // (kUnavailable / kDeadlineExceeded); server-side command failures return
  // an OK StatusOr whose Reply.status is the typed error.
  StatusOr<Reply> Call(const std::string& command, uint32_t deadline_ms = 0,
                       int64_t timeout_ms = 30'000);

  // Pipelining half-calls: Send enqueues without waiting and reports the
  // request's id; Receive blocks for the next reply frame in arrival
  // (completion) order — check Reply::request_id to see which request it
  // answers.
  Status Send(const std::string& command, uint32_t deadline_ms = 0,
              uint64_t* request_id = nullptr);
  StatusOr<Reply> Receive(int64_t timeout_ms = 30'000);

  // Liveness probe: round-trips a payload through kPing/kPong.
  Status Ping(int64_t timeout_ms = 5'000);

 private:
  Status WriteAll(const std::string& bytes);
  // Reads until one full frame is available; closes on transport faults.
  StatusOr<Frame> ReadFrame(int64_t timeout_ms);

  int fd_ = -1;
  uint64_t next_id_ = 1;
  FrameReader reader_;
};

}  // namespace mnc::serve

#endif  // MNC_SERVE_CLIENT_H_
