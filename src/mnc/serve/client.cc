#include "mnc/serve/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <utility>

namespace mnc::serve {

namespace {

using Clock = std::chrono::steady_clock;

Status Transport(const std::string& what) {
  return Status::Unavailable("serve client: " + what);
}

}  // namespace

ServeClient::~ServeClient() { Close(); }

void ServeClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader();
}

Status ServeClient::Connect(int port, int64_t timeout_ms) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Transport(std::string("socket: ") + std::strerror(errno));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    Close();
    return Transport("connect to 127.0.0.1:" + std::to_string(port) + ": " +
                     err);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return Status::Ok();
}

Status ServeClient::WriteAll(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      Close();
      return Transport("send: " + err);
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

StatusOr<Frame> ServeClient::ReadFrame(int64_t timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    auto next = reader_.Next();
    if (!next.ok()) {
      // Server sent bytes that do not frame-decode: the stream is unusable.
      Close();
      return next.status();
    }
    if (next->has_value()) return std::move(**next);

    const auto now = Clock::now();
    if (now >= deadline) {
      Close();
      return Status::DeadlineExceeded("serve client: reply timed out after " +
                                      std::to_string(timeout_ms) + " ms");
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int remaining = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    const int r = ::poll(&pfd, 1, remaining > 0 ? remaining : 1);
    if (r < 0 && errno != EINTR) {
      const std::string err = std::strerror(errno);
      Close();
      return Transport("poll: " + err);
    }
    if (r <= 0) continue;

    char buf[16384];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      Close();
      return Transport("connection closed by server");
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      const std::string err = std::strerror(errno);
      Close();
      return Transport("recv: " + err);
    }
    reader_.Append(buf, static_cast<size_t>(n));
  }
}

Status ServeClient::Send(const std::string& command, uint32_t deadline_ms,
                         uint64_t* request_id) {
  if (fd_ < 0) return Transport("not connected");
  const uint64_t id = next_id_++;
  if (request_id != nullptr) *request_id = id;
  return WriteAll(EncodeFrame(MakeRequestFrame(id, command, deadline_ms)));
}

StatusOr<ServeClient::Reply> ServeClient::Receive(int64_t timeout_ms) {
  if (fd_ < 0) return Transport("not connected");
  for (;;) {
    auto frame = ReadFrame(timeout_ms);
    if (!frame.ok()) return frame.status();
    Reply reply;
    reply.request_id = frame->request_id;
    switch (frame->type) {
      case FrameType::kReply:
        SplitReplyPayload(frame->payload, &reply.served_by, &reply.body);
        reply.degraded = (frame->flags & kFrameFlagDegraded) != 0;
        return reply;
      case FrameType::kError:
        reply.status = ErrorFrameStatus(*frame);
        return reply;
      case FrameType::kPong:
        continue;  // stale liveness probe; keep waiting for the reply
      default:
        Close();
        return Transport("unexpected frame type from server");
    }
  }
}

StatusOr<ServeClient::Reply> ServeClient::Call(const std::string& command,
                                               uint32_t deadline_ms,
                                               int64_t timeout_ms) {
  uint64_t id = 0;
  Status sent = Send(command, deadline_ms, &id);
  if (!sent.ok()) return sent;
  for (;;) {
    auto reply = Receive(timeout_ms);
    if (!reply.ok()) return reply.status();
    // Replies on one connection arrive in completion order, not request
    // order, so a reply still owed to an earlier pipelined Send may come
    // first; it is skipped. Connection-level error frames carry id 0.
    if (reply->request_id == id || reply->request_id == 0) return reply;
  }
}

Status ServeClient::Ping(int64_t timeout_ms) {
  if (fd_ < 0) return Transport("not connected");
  const uint64_t id = next_id_++;
  Status sent = WriteAll(EncodeFrame(MakePingFrame(id, "ping")));
  if (!sent.ok()) return sent;
  for (;;) {
    auto frame = ReadFrame(timeout_ms);
    if (!frame.ok()) return frame.status();
    if (frame->type == FrameType::kPong && frame->request_id == id) {
      return Status::Ok();
    }
  }
}

}  // namespace mnc::serve
