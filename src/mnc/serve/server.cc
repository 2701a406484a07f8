#include "mnc/serve/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mnc/serve/command.h"
#include "mnc/util/check.h"
#include "mnc/util/deadline.h"
#include "mnc/util/fail_point.h"

namespace mnc::serve {

namespace {

// Network-layer fail points (chaos testing).
constexpr char kAcceptFailPoint[] = "serve.accept";
constexpr char kReadFailPoint[] = "serve.read_frame";
constexpr char kWriteFailPoint[] = "serve.write_frame";
constexpr char kDeadlineFailPoint[] = "serve.deadline";

using Clock = std::chrono::steady_clock;

Status ErrnoStatus(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

ServerOptions SanitizeOptions(ServerOptions o) {
  // The read-side frame limit must never exceed the encode-side ceiling:
  // a request the reply path cannot legally echo into an error frame would
  // widen the abort surface of EncodeFrame's size CHECK.
  if (o.max_frame_bytes > kDefaultMaxPayloadBytes) {
    o.max_frame_bytes = kDefaultMaxPayloadBytes;
  }
  // 0 would suspend reads forever (an empty outbox already "exceeds" it).
  if (o.max_outbox_bytes == 0) o.max_outbox_bytes = 1;
  return o;
}

}  // namespace

// One accepted connection. The IO thread owns fd/reader/last_activity;
// workers reach only the mutex-guarded outbox, the atomic pipeline counter,
// and the cancel token.
struct Server::Connection {
  explicit Connection(uint32_t max_payload) : reader(max_payload) {}

  int fd = -1;
  FrameReader reader;
  Clock::time_point last_activity = Clock::now();
  // Requests admitted for this connection whose reply is not yet enqueued;
  // reads are suspended at max_pipeline (backpressure).
  std::atomic<int> pipeline{0};
  // Flipped when the connection dies so in-flight work for it can stop.
  CancelToken cancel;

  std::mutex mu;
  std::string outbox;       // encoded frames awaiting write
  size_t outbox_offset = 0; // bytes of outbox already written
  bool close_after_flush = false;
  bool closed = false;      // fd closed; drop any further sends
};

Server::Server(EstimationService* service, ServerOptions options)
    : service_(service), options_(SanitizeOptions(std::move(options))) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  MNC_CHECK_MSG(!running_.load(), "Server::Start called twice");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status s = ErrnoStatus("bind port " + std::to_string(options_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) != 0 || !SetNonBlocking(listen_fd_)) {
    const Status s = ErrnoStatus("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  if (::pipe(wake_fds_) != 0) {
    const Status s = ErrnoStatus("pipe");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);

  workers_ = std::make_unique<ThreadPool>(options_.num_workers);
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  return Status::Ok();
}

void Server::Wake() {
  if (wake_fds_[1] >= 0) {
    const char byte = 'w';
    // A full pipe already guarantees a pending wake-up; EAGAIN is fine.
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
}

void Server::RequestShutdown() {
  // Async-signal-safe: one atomic store and one pipe write.
  draining_.store(true, std::memory_order_release);
  Wake();
}

void Server::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  draining_.store(true, std::memory_order_release);
  Wake();
  io_thread_.join();
  // Destroying the pool runs every task still queued (each finds its
  // connection closed and drops the reply), then joins the workers.
  workers_.reset();
  for (int i = 0; i < 2; ++i) {
    if (wake_fds_[i] >= 0) ::close(wake_fds_[i]);
    wake_fds_[i] = -1;
  }
  running_.store(false, std::memory_order_release);
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void Server::SendFrame(const std::shared_ptr<Connection>& conn,
                       const Frame& frame) {
  std::string bytes;
  if (frame.payload.size() > kDefaultMaxPayloadBytes) {
    // Last-resort clamp: an oversized reply must degrade to a truncated
    // one, never trip EncodeFrame's aborting size CHECK — no client input
    // may crash the server.
    Frame clamped = frame;
    clamped.payload.resize(kDefaultMaxPayloadBytes);
    bytes = EncodeFrame(clamped);
  } else {
    bytes = EncodeFrame(frame);
  }
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->closed) return;  // connection died before the reply was ready
  conn->outbox += bytes;
}

void Server::DispatchRequest(const std::shared_ptr<Connection>& conn,
                             Frame request) {
  // Deadline: request header wins, else the server default; the
  // serve.deadline fail point forces the expiry path deterministically.
  RequestContext ctx;
  if (MncFailPointArmed(kDeadlineFailPoint)) {
    ctx = RequestContext::Expired();
  } else {
    const int64_t bound_ms = request.deadline_ms > 0
                                 ? static_cast<int64_t>(request.deadline_ms)
                                 : options_.default_deadline_ms;
    if (bound_ms > 0) {
      ctx = RequestContext::WithDeadlineAfterMillis(bound_ms);
    }
  }
  ctx.set_cancel_token(&conn->cancel);

  ServeTierInfo tier;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    tier.open_connections = stats_.open_connections;
    tier.conn_rejected = stats_.conn_rejected;
  }
  const CommandOutcome out =
      RunServeCommand(*service_, request.payload, &ctx, &tier);

  Frame reply;
  if (!out.ok()) {
    reply = MakeErrorFrame(request.request_id, out.status);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.typed_errors;
    if (out.status.code() == StatusCode::kDeadlineExceeded) {
      ++stats_.deadline_errors;
    }
  } else {
    reply = MakeReplyFrame(request.request_id,
                           out.served_by.empty() ? "ok" : out.served_by,
                           out.degraded, out.body);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.replies;
    if (out.degraded) ++stats_.degraded;
  }
  SendFrame(conn, reply);
  if (out.quit) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->close_after_flush = true;
  }
  // Release the admission/pipeline slots before waking the IO thread, so a
  // draining IO loop that wakes and sees inflight_ == 0 can trust it.
  conn->pipeline.fetch_sub(1, std::memory_order_acq_rel);
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  Wake();
}

void Server::AcceptNew() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient error: poll will retry
    }
    if (MncFailPointArmed(kAcceptFailPoint) ||
        draining_.load(std::memory_order_acquire)) {
      {
        // Count before the close so a client that observed the drop also
        // sees it reflected in stats().
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.accept_faults;
      }
      ::close(fd);
      continue;
    }
    if (options_.max_connections > 0 &&
        static_cast<int>(conns_.size()) >= options_.max_connections) {
      // Typed reject at the connection level: the client gets a parseable
      // error frame, not a silent RST. The fresh socket's buffer is empty,
      // so the best-effort blocking-free send almost always lands whole.
      const std::string bytes = EncodeFrame(MakeErrorFrame(
          0, Status::ResourceExhausted(
                 "too many connections: " +
                 std::to_string(options_.max_connections) +
                 " already open, try again later")));
      {
        // Count before the close: a client that has seen EOF must also see
        // the reject reflected in stats().
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.conn_rejected;
      }
      [[maybe_unused]] const ssize_t n =
          ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(options_.max_frame_bytes);
    conn->fd = fd;
    conns_[fd] = std::move(conn);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
    stats_.open_connections = static_cast<int64_t>(conns_.size());
  }
}

bool Server::ReadConnection(const std::shared_ptr<Connection>& conn) {
  if (MncFailPointArmed(kReadFailPoint)) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.read_faults;
    return false;
  }
  char buf[16384];
  const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
  if (n == 0) return false;  // clean peer close
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return true;
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.read_faults;
    return false;
  }
  conn->last_activity = Clock::now();
  conn->reader.Append(buf, static_cast<size_t>(n));

  for (;;) {
    auto next = conn->reader.Next();
    if (!next.ok()) {
      // Protocol desync: best-effort typed error, then close once the
      // outbox (including this error) has flushed. Stop parsing — the
      // remaining bytes cannot be trusted to be frame-aligned.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.malformed_frames;
        ++stats_.typed_errors;
      }
      SendFrame(conn, MakeErrorFrame(0, next.status()));
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->close_after_flush = true;
      return true;
    }
    if (!next->has_value()) return true;
    Frame frame = std::move(**next);

    switch (frame.type) {
      case FrameType::kPing: {
        Frame pong;
        pong.type = FrameType::kPong;
        pong.request_id = frame.request_id;
        pong.payload = std::move(frame.payload);
        SendFrame(conn, pong);
        break;
      }
      case FrameType::kRequest: {
        if (draining_.load(std::memory_order_acquire)) {
          SendFrame(conn,
                    MakeErrorFrame(frame.request_id,
                                   Status::Unavailable(
                                       "server is draining for shutdown")));
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.typed_errors;
          break;
        }
        // Admission control: reject instead of queueing without bound.
        const int cur = inflight_.fetch_add(1, std::memory_order_acq_rel);
        if (cur >= options_.max_inflight) {
          inflight_.fetch_sub(1, std::memory_order_acq_rel);
          SendFrame(
              conn,
              MakeErrorFrame(frame.request_id,
                             Status::ResourceExhausted(
                                 "server busy: " +
                                 std::to_string(options_.max_inflight) +
                                 " requests already in flight, try again")));
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.busy_rejected;
          ++stats_.typed_errors;
          break;
        }
        conn->pipeline.fetch_add(1, std::memory_order_acq_rel);
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.requests;
        }
        workers_->Submit([this, conn, frame = std::move(frame)]() mutable {
          DispatchRequest(conn, std::move(frame));
        });
        break;
      }
      default: {
        // A syntactically valid frame the server never expects (kReply,
        // kError, kPong from a client): answer with a typed error, keep
        // the session — the stream is still frame-aligned.
        SendFrame(conn,
                  MakeErrorFrame(frame.request_id,
                                 Status::InvalidArgument(
                                     "unexpected frame type from client")));
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.typed_errors;
        break;
      }
    }
  }
}

bool Server::FlushConnection(const std::shared_ptr<Connection>& conn) {
  if (MncFailPointArmed(kWriteFailPoint)) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.write_faults;
    return false;
  }
  std::lock_guard<std::mutex> lock(conn->mu);
  while (conn->outbox_offset < conn->outbox.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->outbox.data() + conn->outbox_offset,
               conn->outbox.size() - conn->outbox_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.write_faults;
      return false;
    }
    conn->outbox_offset += static_cast<size_t>(n);
    conn->last_activity = Clock::now();
  }
  conn->outbox.clear();
  conn->outbox_offset = 0;
  return !conn->close_after_flush;
}

void Server::CloseConnection(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  if (conn->closed) return;
  conn->closed = true;
  // In-flight work for this connection can stop at its next check; its
  // reply would be dropped anyway.
  conn->cancel.Cancel();
  ::close(conn->fd);
}

void Server::IoLoop() {
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Connection>> polled;
  std::optional<Clock::time_point> drain_deadline;

  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining) {
      // Stop accepting the moment drain starts.
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      if (!drain_deadline.has_value()) {
        drain_deadline = Clock::now() +
                         std::chrono::milliseconds(options_.drain_timeout_ms);
      }
      // Drain complete when nothing is executing and every reply reached
      // the socket; bounded by the drain deadline.
      bool outstanding = inflight_.load(std::memory_order_acquire) > 0;
      if (!outstanding) {
        for (const auto& [fd, conn] : conns_) {
          std::lock_guard<std::mutex> lock(conn->mu);
          if (conn->outbox_offset < conn->outbox.size()) {
            outstanding = true;
            break;
          }
        }
      }
      if (!outstanding || Clock::now() >= *drain_deadline) break;
    }

    pfds.clear();
    polled.clear();
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    if (listen_fd_ >= 0) pfds.push_back({listen_fd_, POLLIN, 0});
    const size_t conn_base = pfds.size();

    for (const auto& [fd, conn] : conns_) {
      short events = 0;
      bool close_pending;
      size_t pending_out;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        close_pending = conn->close_after_flush;
        pending_out = conn->outbox.size() - conn->outbox_offset;
      }
      const bool has_output = pending_out > 0;
      // Backpressure: a connection at its pipeline limit (or marked for
      // close, or during drain) is not read; its socket buffer absorbs the
      // client until replies free slots. The outbox byte bound covers what
      // the pipeline counter does not — pings and typed protocol errors
      // from a client that never reads its replies.
      const bool want_read =
          !draining && !close_pending &&
          conn->pipeline.load(std::memory_order_acquire) <
              options_.max_pipeline;
      if (want_read && pending_out < options_.max_outbox_bytes) {
        events |= POLLIN;
      } else if (want_read) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.outbox_suspended;
      }
      if (has_output) events |= POLLOUT;
      if (events == 0 && !close_pending) continue;  // parked; workers wake us
      if (events == 0) events = POLLOUT;  // close_pending with empty outbox
      pfds.push_back({fd, events, 0});
      polled.push_back(conn);
    }

    // Short fixed tick: wake-ups come through the pipe, the tick only
    // bounds idle-reaper and drain-deadline latency.
    ::poll(pfds.data(), pfds.size(), /*timeout=*/100);

    size_t idx = 0;
    if (pfds[idx].revents & POLLIN) {
      char buf[256];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    ++idx;
    if (listen_fd_ >= 0) {
      if (pfds[idx].revents & POLLIN) AcceptNew();
      ++idx;
    }

    for (size_t i = 0; i + conn_base < pfds.size(); ++i) {
      const pollfd& p = pfds[i + conn_base];
      const std::shared_ptr<Connection>& conn = polled[i];
      bool alive = true;
      if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) alive = false;
      if (alive && (p.revents & POLLIN)) alive = ReadConnection(conn);
      if (alive && (p.revents & POLLOUT)) alive = FlushConnection(conn);
      if (alive) {
        // A connection whose only pending state is "close after flush" and
        // whose outbox is empty closes now (e.g. `quit` with fast writes).
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->close_after_flush &&
            conn->outbox_offset >= conn->outbox.size()) {
          alive = false;
        }
      }
      if (!alive) {
        CloseConnection(conn);
        conns_.erase(p.fd);
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.open_connections = static_cast<int64_t>(conns_.size());
      }
    }

    // Idle reaper: connections with no traffic and nothing in flight.
    if (options_.idle_timeout_ms > 0) {
      const auto cutoff =
          Clock::now() - std::chrono::milliseconds(options_.idle_timeout_ms);
      for (auto it = conns_.begin(); it != conns_.end();) {
        const std::shared_ptr<Connection>& conn = it->second;
        bool idle = conn->pipeline.load(std::memory_order_acquire) == 0 &&
                    conn->last_activity < cutoff;
        if (idle) {
          std::lock_guard<std::mutex> lock(conn->mu);
          idle = conn->outbox_offset >= conn->outbox.size();
        }
        if (idle) {
          CloseConnection(conn);
          it = conns_.erase(it);
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.idle_closed;
          stats_.open_connections = static_cast<int64_t>(conns_.size());
        } else {
          ++it;
        }
      }
    }
  }

  // Drain finished (or timed out): close everything that remains.
  for (const auto& [fd, conn] : conns_) CloseConnection(conn);
  conns_.clear();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.open_connections = 0;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace mnc::serve
