// Chaos test for the serving tier (the PR's robustness acceptance bar):
// N client threads hammer the server while network fail points
// (serve.accept / serve.read_frame / serve.write_frame / serve.deadline)
// and MNC-tier fail points (service.sketch_build via register,
// service.catalog_read via estimate) fire in pulses underneath them.
//
// Invariants checked:
//   - every request resolves: a well-formed reply, a typed error frame, or
//     a typed client-side transport Status — never a hang, never a crash,
//     never malformed bytes;
//   - the server process/threads stay up through all fault pulses;
//   - after the chaos window closes (all fail points disarmed), a final
//     non-faulted round succeeds end to end on fresh connections;
//   - graceful drain completes with in-flight work resolved.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mnc/matrix/generate.h"
#include "mnc/matrix/matrix.h"
#include "mnc/serve/client.h"
#include "mnc/serve/server.h"
#include "mnc/service/estimation_service.h"
#include "mnc/util/fail_point.h"
#include "mnc/util/random.h"

namespace mnc::serve {
namespace {

Matrix TestMatrix(int64_t rows, int64_t cols, double sparsity, uint64_t seed) {
  Rng rng(seed);
  return Matrix::Sparse(GenerateUniformSparse(rows, cols, sparsity, rng));
}

TEST(ServeChaosTest, ServerSurvivesFaultStorm) {
  EstimationService service;
  constexpr int kMatrices = 4;
  for (int i = 0; i < kMatrices; ++i) {
    ASSERT_TRUE(service
                    .RegisterMatrix("M" + std::to_string(i),
                                    TestMatrix(40, 40, 0.1, 100 + i))
                    .ok());
  }

  ServerOptions opts;
  opts.num_workers = 4;
  opts.max_inflight = 16;
  opts.max_pipeline = 4;
  Server server(&service, opts);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  constexpr int kClientThreads = 8;
  constexpr int kItersPerThread = 60;
  std::atomic<int64_t> resolved{0};    // reply or typed error frame
  std::atomic<int64_t> transport{0};   // typed client-side transport error
  std::atomic<int64_t> unresolved{0};  // anything else (must stay 0)
  std::atomic<bool> stop_chaos{false};

  // Fault injector: pulses each fail point in turn with quiet gaps, so
  // every client thread sees healthy and broken phases of each fault.
  std::thread chaos([&] {
    const char* points[] = {
        "serve.read_frame",    "serve.write_frame", "serve.accept",
        "serve.deadline",      "service.sketch_build",
        "service.catalog_read",
    };
    int round = 0;
    while (!stop_chaos.load(std::memory_order_acquire)) {
      {
        ScopedFailPoint fp(points[round % (sizeof(points) /
                                           sizeof(points[0]))]);
        std::this_thread::sleep_for(std::chrono::milliseconds(7));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++round;
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      ServeClient client;
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        if (!client.connected()) {
          // (Re)connect; serve.accept may drop us — that surfaces as a
          // transport error on the next call, which is a resolution too.
          if (!client.Connect(port, /*timeout_ms=*/2000).ok()) {
            transport.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
          }
        }
        const std::string a = "M" + std::to_string(rng.Next() % kMatrices);
        const std::string b = "M" + std::to_string(rng.Next() % kMatrices);
        std::string cmd;
        switch (rng.Next() % 5) {
          case 0:
            cmd = "estimate " + a + " %*% " + b;
            break;
          case 1:
            cmd = "estimate " + a + " + " + b;
            break;
          case 2:
            cmd = "stats";
            break;
          case 3:
            cmd = "sleep " + std::to_string(rng.Next() % 20);
            break;
          default:
            cmd = "register R" + std::to_string(rng.Next() % 8) +
                  " /nonexistent/" + std::to_string(rng.Next() % 4) + ".mtx";
            break;
        }
        const uint32_t deadline_ms = (rng.Next() % 3 == 0) ? 40 : 0;
        auto r = client.Call(cmd, deadline_ms, /*timeout_ms=*/15'000);
        if (r.ok()) {
          // Reply frame or typed error frame: fully resolved either way.
          resolved.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().code() == StatusCode::kUnavailable ||
                   r.status().code() == StatusCode::kDeadlineExceeded ||
                   r.status().code() == StatusCode::kDataLoss) {
          // Connection dropped by a fault (or client-side timeout): typed,
          // and the client reconnects on the next iteration.
          transport.fetch_add(1, std::memory_order_relaxed);
        } else {
          ADD_FAILURE() << "unexpected resolution: "
                        << r.status().ToString();
          unresolved.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (auto& th : clients) th.join();
  stop_chaos.store(true, std::memory_order_release);
  chaos.join();

  EXPECT_EQ(unresolved.load(), 0);
  EXPECT_EQ(resolved.load() + transport.load(),
            static_cast<int64_t>(kClientThreads) * kItersPerThread);
  // The storm must not have been vacuous: most traffic resolves, and at
  // least some faults actually bit.
  EXPECT_GT(resolved.load(), 0);
  const ServerStats mid = server.stats();
  EXPECT_GT(mid.requests, 0);
  EXPECT_GT(mid.read_faults + mid.write_faults + mid.accept_faults +
                mid.deadline_errors,
            0);

  // Server is still alive and healthy: a clean round on fresh connections.
  ASSERT_TRUE(server.running());
  for (int t = 0; t < 4; ++t) {
    ServeClient client;
    ASSERT_TRUE(client.Connect(port).ok());
    auto r = client.Call("estimate M0 %*% M1", 0, /*timeout_ms=*/10'000);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->ok()) << r->status.ToString();
    EXPECT_FALSE(r->degraded);
  }

  // Clean drain with a request in flight.
  ServeClient last;
  ASSERT_TRUE(last.Connect(port).ok());
  ASSERT_TRUE(last.Send("sleep 200").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Shutdown();
  EXPECT_FALSE(server.running());
}

// Pipelined variant: clients send bursts of estimates on fresh connections
// while fail points pulse AND slam their connections shut mid-burst.
// Invariants: every request on a surviving connection resolves (reply or
// typed error, never a hang), one aborted connection never poisons another
// connection's requests, the server stays up, and drain completes with a
// burst in flight. Runs under TSan in CI.
TEST(ServeChaosTest, PipelinedStormSurvivesMidBurstConnectionCloses) {
  EstimationService service;
  constexpr int kMatrices = 4;
  for (int i = 0; i < kMatrices; ++i) {
    ASSERT_TRUE(service
                    .RegisterMatrix("M" + std::to_string(i),
                                    TestMatrix(40, 40, 0.1, 100 + i))
                    .ok());
  }

  ServerOptions opts;
  opts.num_workers = 4;
  opts.max_inflight = 32;
  opts.max_pipeline = 8;
  Server server(&service, opts);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  constexpr int kClientThreads = 6;
  constexpr int kItersPerThread = 40;
  std::atomic<int64_t> resolved{0};
  std::atomic<int64_t> transport{0};
  std::atomic<int64_t> aborted{0};  // bursts deliberately closed mid-burst
  std::atomic<int64_t> unresolved{0};
  std::atomic<bool> stop_chaos{false};
  // Full passes the chaos thread has made over every fail point. Clients
  // keep bursting until there is one, so each point is armed mid-storm.
  std::atomic<int> chaos_cycles{0};

  std::thread chaos([&] {
    const char* points[] = {
        "serve.deadline",       "serve.read_frame",  "serve.write_frame",
        "service.catalog_read", "service.plan_poison",
    };
    constexpr int kPoints = sizeof(points) / sizeof(points[0]);
    int round = 0;
    while (!stop_chaos.load(std::memory_order_acquire)) {
      {
        ScopedFailPoint fp(points[round % kPoints]);
        std::this_thread::sleep_for(std::chrono::milliseconds(7));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++round;
      if (round % kPoints == 0) {
        chaos_cycles.fetch_add(1, std::memory_order_release);
      }
    }
  });

  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 77);
      for (int iter = 0;
           iter < kItersPerThread ||
           chaos_cycles.load(std::memory_order_acquire) == 0;
           ++iter) {
        ServeClient client;
        if (!client.Connect(port, /*timeout_ms=*/2000).ok()) {
          transport.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
        // One pipelined burst of estimates (plus the occasional parse
        // error among them).
        const int burst = 2 + static_cast<int>(rng.Next() % 4);
        int sent = 0;
        for (int i = 0; i < burst; ++i) {
          const std::string a = "M" + std::to_string(rng.Next() % kMatrices);
          const std::string b = "M" + std::to_string(rng.Next() % kMatrices);
          std::string cmd = rng.Next() % 7 == 0
                                ? "estimate " + a + " %*%"  // bad neighbor
                                : "estimate " + a + " %*% " + b;
          const uint32_t deadline_ms = (rng.Next() % 3 == 0) ? 40 : 0;
          if (!client.Send(cmd, deadline_ms).ok()) break;
          ++sent;
        }
        if (sent == 0) {
          transport.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (rng.Next() % 3 == 0) {
          // Mid-burst abort: close while the burst is (likely) queued or
          // computing. The server must drop our replies and nothing else.
          client.Close();
          aborted.fetch_add(sent, std::memory_order_relaxed);
          continue;
        }
        for (int i = 0; i < sent; ++i) {
          auto r = client.Receive(/*timeout_ms=*/15'000);
          if (r.ok()) {
            resolved.fetch_add(1, std::memory_order_relaxed);
          } else if (r.status().code() == StatusCode::kUnavailable ||
                     r.status().code() == StatusCode::kDeadlineExceeded ||
                     r.status().code() == StatusCode::kDataLoss) {
            // The connection died under a fault: the rest of the burst is
            // gone with it.
            transport.fetch_add(sent - i, std::memory_order_relaxed);
            break;
          } else {
            ADD_FAILURE() << "unexpected resolution: "
                          << r.status().ToString();
            unresolved.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  for (auto& th : clients) th.join();
  stop_chaos.store(true, std::memory_order_release);
  chaos.join();

  EXPECT_EQ(unresolved.load(), 0);
  EXPECT_GT(resolved.load(), 0);
  EXPECT_GT(aborted.load(), 0) << "mid-burst closes never happened";
  EXPECT_GE(chaos_cycles.load(), 1)
      << "the storm ended before every fail point was armed";
  const ServerStats mid = server.stats();
  // The faults actually bit.
  EXPECT_GT(mid.read_faults + mid.write_faults + mid.deadline_errors, 0);

  // Healthy after the storm: every request of a fresh pipelined burst
  // answers correctly.
  ASSERT_TRUE(server.running());
  ServeClient clean;
  ASSERT_TRUE(clean.Connect(port).ok());
  constexpr int kCleanBurst = 4;
  for (int i = 0; i < kCleanBurst; ++i) {
    ASSERT_TRUE(clean.Send("estimate M0 %*% M1").ok());
  }
  for (int i = 0; i < kCleanBurst; ++i) {
    auto r = clean.Receive(/*timeout_ms=*/10'000);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->ok()) << r->status.ToString();
    EXPECT_FALSE(r->degraded);
  }

  // Clean drain with a burst still in flight.
  ServeClient last;
  ASSERT_TRUE(last.Connect(port).ok());
  ASSERT_TRUE(last.Send("estimate M2 %*% M3").ok());
  ASSERT_TRUE(last.Send("estimate M3 %*% M2").ok());
  server.Shutdown();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace mnc::serve
