// Behavioral tests for the serving tier: request/reply over a real loopback
// socket, typed errors, deadlines, admission control, backpressure,
// degradation flags, malformed-frame handling, fail-point faults, idle
// reaping, and graceful drain. Every test runs against an in-process Server
// over a shared EstimationService (no files, no subprocesses).

#include "mnc/serve/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mnc/matrix/generate.h"
#include "mnc/matrix/matrix.h"
#include "mnc/serve/client.h"
#include "mnc/serve/frame.h"
#include "mnc/service/estimation_service.h"
#include "mnc/util/fail_point.h"
#include "mnc/util/random.h"

namespace mnc::serve {
namespace {

Matrix TestMatrix(int64_t rows, int64_t cols, double sparsity, uint64_t seed) {
  Rng rng(seed);
  return Matrix::Sparse(GenerateUniformSparse(rows, cols, sparsity, rng));
}

// Raw loopback socket for tests that must send bytes a ServeClient cannot
// be coaxed into producing; recv is bounded by a 5 s timeout so a wedged
// server fails the test instead of hanging it.
int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

// Service with two registered matrices plus a server on an ephemeral port.
class ServeServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions opts = {}) {
    service_ = std::make_unique<EstimationService>();
    ASSERT_TRUE(service_->RegisterMatrix("A", TestMatrix(48, 48, 0.1, 1)).ok());
    ASSERT_TRUE(service_->RegisterMatrix("B", TestMatrix(48, 48, 0.1, 2)).ok());
    opts.port = 0;
    server_ = std::make_unique<Server>(service_.get(), opts);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  std::unique_ptr<EstimationService> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeServerTest, EstimateReplyAndMemoHit) {
  StartServer();
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  auto first = client.Call("estimate A %*% B");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok()) << first->status.ToString();
  EXPECT_EQ(first->served_by, "mnc");
  EXPECT_FALSE(first->degraded);
  EXPECT_NE(first->body.find("sparsity"), std::string::npos);

  auto second = client.Call("estimate A %*% B");
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->ok());
  EXPECT_EQ(second->served_by, "memo");
  EXPECT_NE(second->body.find("memo hit"), std::string::npos);

  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.accepted, 1);
  EXPECT_EQ(stats.replies, 2);
  EXPECT_EQ(stats.typed_errors, 0);
}

TEST_F(ServeServerTest, PingPong) {
  StartServer();
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServeServerTest, TypedErrorKeepsSessionAlive) {
  StartServer();
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  auto bad = client.Call("frobnicate the sketches");
  ASSERT_TRUE(bad.ok()) << "typed error must not kill the transport";
  EXPECT_EQ(bad->status.code(), StatusCode::kInvalidArgument);

  auto parse_error = client.Call("estimate A %*%");
  ASSERT_TRUE(parse_error.ok());
  EXPECT_FALSE(parse_error->ok());

  auto unknown_name = client.Call("estimate NOPE %*% A");
  ASSERT_TRUE(unknown_name.ok());
  EXPECT_FALSE(unknown_name->ok());

  // Same connection still serves real work.
  auto good = client.Call("estimate A %*% B");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->ok());
  EXPECT_EQ(server_->stats().typed_errors, 3);
}

TEST_F(ServeServerTest, QuitEndsSession) {
  StartServer();
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto bye = client.Call("quit");
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(bye->body, "bye");
  // The server closes after flushing "bye"; the next call fails transport.
  auto after = client.Call("stats");
  EXPECT_FALSE(after.ok());
}

TEST_F(ServeServerTest, RequestDeadlineBoundsSlowCommand) {
  StartServer();
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  auto late = client.Call("sleep 5000", /*deadline_ms=*/50);
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_EQ(late->status.code(), StatusCode::kDeadlineExceeded);

  // The worker was released promptly, not after the full 5 s.
  auto quick = client.Call("estimate A %*% B", /*deadline_ms=*/0,
                           /*timeout_ms=*/2000);
  ASSERT_TRUE(quick.ok());
  EXPECT_TRUE(quick->ok());
  EXPECT_GE(server_->stats().deadline_errors, 1);
}

TEST_F(ServeServerTest, DeadlineFailPointForcesExpiry) {
  StartServer();
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  {
    ScopedFailPoint fp("serve.deadline");
    auto r = client.Call("estimate A %*% B");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->status.code(), StatusCode::kDeadlineExceeded);
    // Deadline errors must NOT be rescued by the fallback chain.
    EXPECT_FALSE(r->degraded);
  }
  auto r = client.Call("estimate A %*% B");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok());
}

TEST_F(ServeServerTest, DegradedServingWhenMncTierFails) {
  StartServer();
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  {
    // Break catalog sketch reads: the MNC tier fails underneath the
    // request, the fallback chain answers, and the reply says so.
    ScopedFailPoint fp("service.catalog_read");
    auto r = client.Call("estimate A %*% B");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->ok()) << r->status.ToString();
    EXPECT_TRUE(r->degraded);
    EXPECT_NE(r->served_by, "mnc");
    EXPECT_NE(r->served_by, "memo");
  }
  EXPECT_GE(server_->stats().degraded, 1);

  // Healthy again: precise tier resumes (fresh expression avoids the memo).
  auto r = client.Call("estimate B %*% A");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ok());
  EXPECT_EQ(r->served_by, "mnc");
  EXPECT_FALSE(r->degraded);
}

TEST_F(ServeServerTest, AdmissionControlRejectsBeyondMaxInflight) {
  ServerOptions opts;
  opts.max_inflight = 2;
  opts.max_pipeline = 16;  // pipeline bound must not mask admission control
  opts.num_workers = 4;
  StartServer(opts);
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  // One burst of pipelined sleeps arrives faster than workers drain it:
  // the first two are admitted, the surplus is rejected typed, immediately.
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.Send("sleep 300").ok());
  }
  int ok = 0, busy = 0;
  for (int i = 0; i < kRequests; ++i) {
    auto r = client.Receive(/*timeout_ms=*/10'000);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r->status.code(), StatusCode::kResourceExhausted);
      ++busy;
    }
  }
  EXPECT_EQ(ok + busy, kRequests);
  EXPECT_GE(busy, 1);
  EXPECT_GE(ok, 2);
  EXPECT_EQ(server_->stats().busy_rejected, busy);

  // Rejection is load shedding, not a session fault: once in-flight work
  // drains, the same connection is served again.
  auto again = client.Call("estimate A %*% B", 0, /*timeout_ms=*/10'000);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->ok());
}

TEST_F(ServeServerTest, BackpressurePipelinedLoadAllServed) {
  ServerOptions opts;
  opts.max_inflight = 64;
  opts.max_pipeline = 2;  // reads suspend after 2 un-replied requests
  opts.num_workers = 2;
  StartServer(opts);
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  // Feed requests with small gaps so they cross the socket one at a time;
  // the pipeline bound paces admission instead of rejecting.
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.Send("sleep 20").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (int i = 0; i < kRequests; ++i) {
    auto r = client.Receive(/*timeout_ms=*/10'000);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->ok()) << r->status.ToString();
  }
  EXPECT_EQ(server_->stats().busy_rejected, 0);
  EXPECT_EQ(server_->stats().replies, kRequests);
}

TEST_F(ServeServerTest, MalformedBytesGetTypedErrorThenClose) {
  StartServer();
  // Raw socket: a ServeClient cannot be coaxed into sending garbage.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string garbage(64, 'X');
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));

  // Expect one well-formed kError frame, then EOF.
  FrameReader reader;
  char buf[4096];
  bool got_error = false, got_eof = false;
  for (int i = 0; i < 100 && !got_eof; ++i) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      got_eof = true;
      break;
    }
    ASSERT_GT(n, 0);
    reader.Append(buf, static_cast<size_t>(n));
    auto next = reader.Next();
    ASSERT_TRUE(next.ok()) << "server sent malformed bytes back";
    if (next->has_value()) {
      EXPECT_EQ((*next)->type, FrameType::kError);
      EXPECT_EQ(ErrorFrameStatus(**next).code(), StatusCode::kDataLoss);
      got_error = true;
    }
  }
  ::close(fd);
  EXPECT_TRUE(got_error);
  EXPECT_TRUE(got_eof);
  EXPECT_GE(server_->stats().malformed_frames, 1);

  // The rest of the server shrugged it off.
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto r = client.Call("estimate A %*% B");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok());
}

TEST_F(ServeServerTest, OversizedDeclaredPayloadRejected) {
  ServerOptions opts;
  opts.max_frame_bytes = 1024;
  StartServer(opts);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Header declaring a 256 MB payload; no payload bytes follow.
  std::string header = EncodeFrame(MakeRequestFrame(1, "x", 0));
  header.resize(kFrameHeaderBytes);
  const uint32_t huge = 256u << 20;
  std::memcpy(&header[24], &huge, sizeof(huge));
  ASSERT_EQ(::send(fd, header.data(), header.size(), 0),
            static_cast<ssize_t>(header.size()));

  FrameReader reader;
  char buf[4096];
  bool got_error = false;
  for (int i = 0; i < 100; ++i) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reader.Append(buf, static_cast<size_t>(n));
    auto next = reader.Next();
    ASSERT_TRUE(next.ok());
    if (next->has_value()) {
      EXPECT_EQ(ErrorFrameStatus(**next).code(), StatusCode::kOutOfRange);
      got_error = true;
      break;
    }
  }
  ::close(fd);
  EXPECT_TRUE(got_error);
}

TEST_F(ServeServerTest, HugeUnknownCommandTruncatedErrorNotCrash) {
  StartServer();
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  // A single ~900 KB token is the whole "verb" of the command line. Echoing
  // it verbatim into the error frame used to blow the encode-side payload
  // CHECK and abort the server — a remotely triggerable crash.
  const std::string verb(900'000, 'q');
  auto bad = client.Call(verb, 0, /*timeout_ms=*/10'000);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->status.code(), StatusCode::kInvalidArgument);
  EXPECT_LE(bad->status.message().size(), kMaxErrorPayloadBytes);

  // Same exposure through a register file-name echo.
  auto bad_file = client.Call("register M " + std::string(900'000, 'f'), 0,
                              /*timeout_ms=*/10'000);
  ASSERT_TRUE(bad_file.ok()) << bad_file.status().ToString();
  EXPECT_FALSE(bad_file->ok());
  EXPECT_LE(bad_file->status.message().size(), kMaxErrorPayloadBytes);

  // The server shrugged both off; the same connection still serves.
  auto good = client.Call("estimate A %*% B");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->ok());
}

TEST_F(ServeServerTest, MaxFrameBytesClampedToProtocolCeiling) {
  // A read-side limit above the encode-side ceiling would accept requests
  // whose error echo can never be legally encoded; Start() must clamp it.
  ServerOptions opts;
  opts.max_frame_bytes = 64u << 20;
  StartServer(opts);

  const int fd = ConnectRaw(server_->port());
  ASSERT_GE(fd, 0);
  // Header declaring a payload one byte over the protocol hard cap.
  std::string header = EncodeFrame(MakeRequestFrame(1, "x", 0));
  header.resize(kFrameHeaderBytes);
  const uint32_t over = kDefaultMaxPayloadBytes + 1;
  std::memcpy(&header[24], &over, sizeof(over));
  ASSERT_EQ(::send(fd, header.data(), header.size(), 0),
            static_cast<ssize_t>(header.size()));

  FrameReader reader;
  char buf[4096];
  bool got_error = false;
  for (int i = 0; i < 100 && !got_error; ++i) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reader.Append(buf, static_cast<size_t>(n));
    auto next = reader.Next();
    ASSERT_TRUE(next.ok());
    if (next->has_value()) {
      EXPECT_EQ(ErrorFrameStatus(**next).code(), StatusCode::kOutOfRange);
      got_error = true;
    }
  }
  ::close(fd);
  EXPECT_TRUE(got_error);
}

TEST_F(ServeServerTest, PingFloodBoundedByOutboxBackpressure) {
  ServerOptions opts;
  // Below one pong frame (1 KiB payload + header): the first enqueued pong
  // already crosses the bound, making the read-suspension deterministic.
  opts.max_outbox_bytes = 1024;
  StartServer(opts);

  const int fd = ConnectRaw(server_->port());
  ASSERT_GE(fd, 0);
  // 48 KiB of pings written up front without reading a single pong: the
  // pong bytes pile into the connection's outbox, which must suspend reads
  // (bounded buffer) instead of growing without bound.
  constexpr int kPings = 48;
  std::string burst;
  for (uint64_t id = 1; id <= kPings; ++id) {
    burst += EncodeFrame(MakePingFrame(id, std::string(1024, 'p')));
  }
  for (size_t off = 0; off < burst.size();) {
    const ssize_t n =
        ::send(fd, burst.data() + off, burst.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }

  // Every pong still arrives, in order — backpressure stalls, never drops.
  FrameReader reader;
  char buf[8192];
  uint64_t next_id = 1;
  while (next_id <= kPings) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "pong stream ended at id " << next_id;
    reader.Append(buf, static_cast<size_t>(n));
    for (;;) {
      auto next = reader.Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      if (!next->has_value()) break;
      EXPECT_EQ((*next)->type, FrameType::kPong);
      EXPECT_EQ((*next)->request_id, next_id);
      EXPECT_EQ((*next)->payload.size(), 1024u);
      ++next_id;
    }
  }
  ::close(fd);
  EXPECT_GE(server_->stats().outbox_suspended, 1);

  // The flood was load-shaped, not a fault: new sessions serve normally.
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto r = client.Call("estimate A %*% B");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok());
}

TEST_F(ServeServerTest, ReadFaultClosesOnlyThatConnection) {
  StartServer();
  ServeClient victim;
  ASSERT_TRUE(victim.Connect(server_->port()).ok());
  {
    ScopedFailPoint fp("serve.read_frame");
    auto r = victim.Call("estimate A %*% B", 0, /*timeout_ms=*/3000);
    EXPECT_FALSE(r.ok());  // transport-level failure, not a typed reply
  }
  EXPECT_GE(server_->stats().read_faults, 1);

  ServeClient healthy;
  ASSERT_TRUE(healthy.Connect(server_->port()).ok());
  auto r = healthy.Call("estimate A %*% B");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok());
}

TEST_F(ServeServerTest, WriteFaultClosesOnlyThatConnection) {
  StartServer();
  ServeClient victim;
  ASSERT_TRUE(victim.Connect(server_->port()).ok());
  {
    ScopedFailPoint fp("serve.write_frame");
    auto r = victim.Call("estimate A %*% B", 0, /*timeout_ms=*/3000);
    EXPECT_FALSE(r.ok());
  }
  EXPECT_GE(server_->stats().write_faults, 1);

  ServeClient healthy;
  ASSERT_TRUE(healthy.Connect(server_->port()).ok());
  auto r = healthy.Call("estimate A %*% B");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok());
}

TEST_F(ServeServerTest, AcceptFaultDropsConnectionButServerSurvives) {
  StartServer();
  {
    ScopedFailPoint fp("serve.accept");
    ServeClient dropped;
    // The kernel completes the handshake, then the server closes it.
    const Status s = dropped.Connect(server_->port());
    if (s.ok()) {
      auto r = dropped.Call("stats", 0, /*timeout_ms=*/3000);
      EXPECT_FALSE(r.ok());
    }
  }
  EXPECT_GE(server_->stats().accept_faults, 1);
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto r = client.Call("stats");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok());
}

TEST_F(ServeServerTest, IdleConnectionsAreReaped) {
  ServerOptions opts;
  opts.idle_timeout_ms = 150;
  StartServer(opts);
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  // Wait past the idle window (poll tick is 100 ms, so allow a few).
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  auto r = client.Call("stats", 0, /*timeout_ms=*/2000);
  EXPECT_FALSE(r.ok());
  EXPECT_GE(server_->stats().idle_closed, 1);
}

TEST_F(ServeServerTest, GracefulDrainFinishesInFlightWork) {
  StartServer();
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  ASSERT_TRUE(client.Send("sleep 300").ok());
  // Give the server a moment to admit the request, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::thread drainer([&] { server_->Shutdown(); });
  // The in-flight sleep completes and its reply is flushed before close.
  auto r = client.Receive(/*timeout_ms=*/10'000);
  drainer.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->ok()) << r->status.ToString();
  EXPECT_NE(r->body.find("slept"), std::string::npos);

  // New connections are refused after drain.
  ServeClient late;
  EXPECT_FALSE(late.Connect(server_->port()).ok());
}

TEST_F(ServeServerTest, DrainTimeoutBoundsShutdown) {
  ServerOptions opts;
  opts.drain_timeout_ms = 300;
  StartServer(opts);
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  ASSERT_TRUE(client.Send("sleep 5000").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto start = std::chrono::steady_clock::now();
  server_->Shutdown();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  // Bounded by drain_timeout + the sleep command's cancellation latency
  // (its slices notice the cancelled connection token quickly), with a
  // wide margin for slow CI machines — the point is "not 5 s".
  EXPECT_LT(elapsed, 4000);
}

TEST_F(ServeServerTest, PipelinedEstimatesAllResolve) {
  // A pipelined burst on one connection: every request resolves, and each
  // reply matches the single-request reply for its own expression.
  // Workers finish pipelined requests in any order, so replies are paired
  // with requests by request_id, never by position.
  ServerOptions opts;
  opts.max_pipeline = 16;
  StartServer(opts);
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  // Reference replies via sequential calls (memo-warm both expressions).
  auto warm_ab = client.Call("estimate A %*% B");
  auto warm_ba = client.Call("estimate B %*% A");
  ASSERT_TRUE(warm_ab.ok() && warm_ab->ok());
  ASSERT_TRUE(warm_ba.ok() && warm_ba->ok());
  const auto memo_ab = client.Call("estimate A %*% B");
  const auto memo_ba = client.Call("estimate B %*% A");
  ASSERT_TRUE(memo_ab.ok() && memo_ab->ok());
  ASSERT_TRUE(memo_ba.ok() && memo_ba->ok());

  constexpr int kRequests = 8;
  std::map<uint64_t, int> index_of;  // request_id -> send position
  for (int i = 0; i < kRequests; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(
        client.Send(i % 2 == 0 ? "estimate A %*% B" : "estimate B %*% A",
                    /*deadline_ms=*/0, &id)
            .ok());
    index_of[id] = i;
  }
  for (int n = 0; n < kRequests; ++n) {
    auto r = client.Receive(/*timeout_ms=*/10'000);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->ok()) << r->status.ToString();
    const auto it = index_of.find(r->request_id);
    ASSERT_NE(it, index_of.end()) << "unknown or repeated request_id "
                                  << r->request_id;
    const int i = it->second;
    index_of.erase(it);
    EXPECT_EQ(r->served_by, "memo");
    // Identical to the sequential reply, wall-clock timing suffix aside.
    const auto& want = i % 2 == 0 ? memo_ab : memo_ba;
    const std::string got_body = r->body.substr(0, r->body.find_last_of(','));
    const std::string want_body =
        want->body.substr(0, want->body.find_last_of(','));
    EXPECT_EQ(got_body, want_body);
  }
  EXPECT_TRUE(index_of.empty());

  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.replies, kRequests + 4);
  EXPECT_EQ(stats.typed_errors, 0);
}

TEST_F(ServeServerTest, PipelinedRepliesMayOvertake) {
  // Replies on one connection come back in completion order: a fast
  // estimate pipelined behind a slow sleep is answered first.
  ServerOptions opts;
  opts.num_workers = 2;
  StartServer(opts);
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  uint64_t sleep_id = 0, estimate_id = 0;
  ASSERT_TRUE(client.Send("sleep 200", /*deadline_ms=*/0, &sleep_id).ok());
  ASSERT_TRUE(
      client.Send("estimate A %*% B", /*deadline_ms=*/0, &estimate_id).ok());

  auto first = client.Receive(/*timeout_ms=*/10'000);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->ok()) << first->status.ToString();
  EXPECT_EQ(first->request_id, estimate_id);
  EXPECT_NE(first->body.find("sparsity"), std::string::npos);

  auto second = client.Receive(/*timeout_ms=*/10'000);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_TRUE(second->ok()) << second->status.ToString();
  EXPECT_EQ(second->request_id, sleep_id);
  EXPECT_NE(second->body.find("slept"), std::string::npos);
}

TEST_F(ServeServerTest, PipelinedBadNeighborsGetOwnErrors) {
  // One malformed expression and one unknown name pipelined among good
  // requests produce their own typed errors without poisoning the good
  // requests around them.
  ServerOptions opts;
  opts.max_pipeline = 16;
  StartServer(opts);
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  struct Pipelined {
    const char* cmd;
    bool want_ok;
  };
  const Pipelined burst[] = {
      {"estimate A %*% B", true},
      {"estimate A %*%", false},  // parse error
      {"estimate A %*% B", true},
      {"estimate NOPE %*% A", false},  // unknown leaf
      {"estimate B %*% A", true},
  };
  std::map<uint64_t, bool> want_ok;  // request_id -> expected outcome
  for (const Pipelined& p : burst) {
    uint64_t id = 0;
    ASSERT_TRUE(client.Send(p.cmd, /*deadline_ms=*/0, &id).ok());
    want_ok[id] = p.want_ok;
  }

  for (size_t n = 0; n < std::size(burst); ++n) {
    auto r = client.Receive(/*timeout_ms=*/10'000);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const auto it = want_ok.find(r->request_id);
    ASSERT_NE(it, want_ok.end()) << "unknown or repeated request_id "
                                 << r->request_id;
    if (it->second) {
      EXPECT_TRUE(r->ok()) << r->status.ToString();
      EXPECT_NE(r->body.find("sparsity"), std::string::npos);
    } else {
      EXPECT_EQ(r->status.code(), StatusCode::kInvalidArgument);
    }
    want_ok.erase(it);
  }
  EXPECT_TRUE(want_ok.empty());

  // The faults touched only their own requests: the session still serves.
  auto again = client.Call("estimate A %*% B");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->ok());
}

TEST_F(ServeServerTest, DeadlineFailPointAppliesPerPipelinedRequest) {
  ServerOptions opts;
  opts.max_pipeline = 16;
  StartServer(opts);
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  {
    ScopedFailPoint fp("serve.deadline");
    constexpr int kRequests = 4;
    for (int i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(client.Send("estimate A %*% B").ok());
    }
    for (int i = 0; i < kRequests; ++i) {
      auto r = client.Receive(/*timeout_ms=*/10'000);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // Each pipelined request carries its own expired context and answers
      // with its own typed error — never a late answer, never degraded.
      EXPECT_EQ(r->status.code(), StatusCode::kDeadlineExceeded);
      EXPECT_FALSE(r->degraded);
    }
    EXPECT_GE(server_->stats().deadline_errors, kRequests);
  }
  auto r = client.Call("estimate A %*% B");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok());
}

TEST_F(ServeServerTest, MaxConnectionsRejectsTypedAtAcceptTime) {
  ServerOptions opts;
  opts.max_connections = 2;
  StartServer(opts);

  ServeClient first, second;
  ASSERT_TRUE(first.Connect(server_->port()).ok());
  ASSERT_TRUE(second.Connect(server_->port()).ok());
  ASSERT_TRUE(first.Ping().ok());
  ASSERT_TRUE(second.Ping().ok());

  // The third connection gets a typed RESOURCE_EXHAUSTED frame, then EOF.
  const int fd = ConnectRaw(server_->port());
  ASSERT_GE(fd, 0);
  FrameReader reader;
  char buf[4096];
  bool got_reject = false, got_eof = false;
  for (int i = 0; i < 100 && !got_eof; ++i) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      got_eof = true;
      break;
    }
    ASSERT_GT(n, 0);
    reader.Append(buf, static_cast<size_t>(n));
    auto next = reader.Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (next->has_value()) {
      EXPECT_EQ((*next)->type, FrameType::kError);
      const Status st = ErrorFrameStatus(**next);
      EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
      EXPECT_NE(st.message().find("too many connections"), std::string::npos);
      got_reject = true;
    }
  }
  ::close(fd);
  EXPECT_TRUE(got_reject);
  EXPECT_TRUE(got_eof);
  {
    const ServerStats stats = server_->stats();
    EXPECT_EQ(stats.conn_rejected, 1);
    EXPECT_EQ(stats.open_connections, 2);
    EXPECT_EQ(stats.accepted, 2);  // rejected accepts are not "accepted"
  }

  // The bound tracks closes: once a slot frees, new connections are served.
  first.Close();
  bool served = false;
  for (int attempt = 0; attempt < 50 && !served; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ServeClient retry;
    if (!retry.Connect(server_->port()).ok()) continue;
    auto r = retry.Call("estimate A %*% B", 0, /*timeout_ms=*/3000);
    served = r.ok() && r->ok();
  }
  EXPECT_TRUE(served);
}

TEST_F(ServeServerTest, StatsVerbReportsServeAndPlanLines) {
  StartServer();
  ServeClient client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto r = client.Call("stats");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ok()) << r->status.ToString();
  // The plan line carries the canonical second-chance counter; the serve
  // line exists only on the socket path, reports this connection, and is
  // the last line.
  EXPECT_NE(r->body.find("canonical"), std::string::npos);
  const size_t serve = r->body.find("serve: ");
  ASSERT_NE(serve, std::string::npos);
  EXPECT_EQ(r->body.substr(serve), "serve: 1 open connections, 0 rejected");
}

TEST_F(ServeServerTest, ManyConnectionsConcurrently) {
  ServerOptions opts;
  opts.num_workers = 4;
  StartServer(opts);
  constexpr int kClients = 8;
  constexpr int kCallsEach = 12;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ServeClient client;
      if (!client.Connect(server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kCallsEach; ++i) {
        const std::string expr =
            (t + i) % 2 == 0 ? "estimate A %*% B" : "estimate B %*% A";
        auto r = client.Call(expr, 0, /*timeout_ms=*/10'000);
        if (!r.ok() || !r->ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.accepted, kClients);
  EXPECT_EQ(stats.replies, kClients * kCallsEach);
}

}  // namespace
}  // namespace mnc::serve
