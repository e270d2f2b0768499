// The serving layer (src/serve/): framed socket transport, the message
// protocol, persistent worker daemons, concurrent sessions multiplexed
// over a fixed fleet, and the approximate-view cache.
//
// The load-bearing claim throughout: a served answer is bit-identical to
// the one-shot in-process kSharded gather — at every (sessions × daemons
// × threads) matrix point, under injected shard faults, across a daemon
// kill-and-restart, and when replayed from cached merged estimator
// state. Degradation (allow_partial with a daemon that stays dead) is
// the only sanctioned deviation, and it must announce itself.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/tpch_gen.h"
#include "data/workload.h"
#include "dist/coordinator.h"
#include "dist/shard.h"
#include "est/wire.h"
#include "plan/columnar_executor.h"
#include "plan/exec_stats.h"
#include "plan/soa_transform.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "serve/socket.h"
#include "serve/view_cache.h"
#include "sqlish/planner.h"
#include "stream/admission.h"
#include "test_util.h"
#include "util/fault_inject.h"

namespace gus {
namespace {

void ExpectReportsIdentical(const SboxReport& x, const SboxReport& y) {
  EXPECT_EQ(x.estimate, y.estimate);
  EXPECT_EQ(x.variance, y.variance);
  EXPECT_EQ(x.stddev, y.stddev);
  EXPECT_EQ(x.interval.lo, y.interval.lo);
  EXPECT_EQ(x.interval.hi, y.interval.hi);
  EXPECT_EQ(x.sample_rows, y.sample_rows);
  EXPECT_EQ(x.variance_rows, y.variance_rows);
  EXPECT_EQ(x.y_hat, y.y_hat);
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// A per-test unix-socket endpoint under the test temp dir (pid-scoped so
/// parallel ctest processes never collide).
Endpoint UnixEndpoint(const std::string& tag) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) /
       ("gus_" + std::to_string(::getpid()) + "_" + tag + ".sock"))
          .string();
  return Endpoint::Parse("unix:" + path).ValueOrDie();
}

/// Query 1 at dist_test scale, plus everything the serving layer needs.
struct ServeFixture {
  TpchData data;
  Catalog catalog;
  Workload q1;
  SoaResult soa;
  SboxOptions options;
  ExecOptions exec;

  ServeFixture() {
    TpchConfig config;
    config.num_orders = 300;
    config.num_customers = 40;
    config.num_parts = 30;
    data = GenerateTpch(config);
    catalog = data.MakeCatalog();
    Query1Params params;
    params.lineitem_p = 0.4;
    params.orders_n = 120;
    params.orders_population = 300;
    q1 = MakeQuery1(params);
    soa = SoaTransform(q1.plan).ValueOrDie();
    options.subsample = SubsampleConfig{};
    options.subsample->target_rows = 200;
    exec.morsel_rows = 64;  // many units at this scale
  }

  ServedQuery Served() const {
    ServedQuery query;
    query.plan = q1.plan;
    query.f_expr = q1.aggregate;
    query.gus = soa.top;
    query.sbox = options;
    return query;
  }

  /// The one-shot in-process reference every served answer must match.
  SboxReport Local(uint64_t seed, int num_shards) const {
    return ShardedSboxEstimate(q1.plan, catalog, seed, ExecMode::kSampled,
                               exec, num_shards, q1.aggregate, soa.top,
                               options)
        .ValueOrDie();
  }
};

/// A fleet of in-process daemons, each serving the fixture's "q1" on its
/// own unix socket.
struct Fleet {
  std::vector<std::unique_ptr<WorkerDaemon>> daemons;
  std::vector<Endpoint> endpoints;
};

Fleet StartFleet(const ServeFixture& fx, int n, const std::string& tag) {
  Fleet fleet;
  for (int i = 0; i < n; ++i) {
    auto daemon = std::make_unique<WorkerDaemon>(fx.catalog);
    Status registered = daemon->RegisterQuery("q1", fx.Served());
    EXPECT_TRUE(registered.ok()) << registered.ToString();
    const Endpoint ep = UnixEndpoint(tag + "_d" + std::to_string(i));
    fleet.endpoints.push_back(daemon->Start(ep).ValueOrDie());
    fleet.daemons.push_back(std::move(daemon));
  }
  return fleet;
}

ServedRequest BaseRequest(uint64_t seed, ViewCache* cache = nullptr) {
  ServedRequest req;
  req.seed = seed;
  req.num_shards = 4;
  req.morsel_rows = 64;  // must match ServeFixture::exec for bit-identity
  req.use_cache = cache != nullptr;
  req.cache = cache;
  return req;
}

// ---------------------------------------------------------------------
// Socket transport
// ---------------------------------------------------------------------

TEST(ServeTest, EndpointParsesAndRejects) {
  ASSERT_OK_AND_ASSIGN(Endpoint u, Endpoint::Parse("unix:/tmp/x.sock"));
  EXPECT_EQ(Endpoint::Kind::kUnix, u.kind);
  EXPECT_EQ("/tmp/x.sock", u.target);
  ASSERT_OK_AND_ASSIGN(Endpoint t, Endpoint::Parse("tcp:9000"));
  EXPECT_EQ(Endpoint::Kind::kTcp, t.kind);
  EXPECT_EQ(9000, t.port);
  ASSERT_OK_AND_ASSIGN(Endpoint h, Endpoint::Parse("tcp:example.test:80"));
  EXPECT_EQ("example.test", h.target);
  EXPECT_EQ(80, h.port);
  EXPECT_FALSE(Endpoint::Parse("").ok());
  EXPECT_FALSE(Endpoint::Parse("carrier-pigeon:coop").ok());
  EXPECT_FALSE(Endpoint::Parse("unix:").ok());
}

TEST(ServeTest, SocketFramesRoundTripAndCloseIsCleanEof) {
  const Endpoint ep = UnixEndpoint("frames");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SocketListener> listener,
                       SocketListener::Listen(ep));

  std::thread server([&] {
    auto accepted = listener->Accept();
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    std::unique_ptr<SocketConnection> conn =
        std::move(accepted).ValueOrDie();
    // Echo frames until the peer hangs up cleanly.
    for (;;) {
      bool clean_eof = false;
      auto frame = conn->RecvFrame(&clean_eof);
      if (!frame.ok()) {
        EXPECT_TRUE(clean_eof) << frame.status().ToString();
        return;
      }
      ASSERT_TRUE(conn->SendFrame(frame.ValueOrDie()).ok());
    }
  });

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SocketConnection> client,
                       SocketConnection::Connect(ep));
  // Small, empty, and large (multi-recv) payloads all round-trip whole.
  std::string big(1 << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>(i * 2654435761u);
  }
  for (const std::string& payload : {std::string("ping"), std::string(), big}) {
    ASSERT_TRUE(client->SendFrame(payload).ok());
    ASSERT_OK_AND_ASSIGN(std::string echoed, client->RecvFrame());
    EXPECT_EQ(payload, echoed);
  }
  client->Close();
  server.join();
}

TEST(ServeTest, TcpListenerResolvesKernelPort) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SocketListener> listener,
                       SocketListener::Listen(Endpoint::Parse("tcp:0")
                                                  .ValueOrDie()));
  EXPECT_GT(listener->endpoint().port, 0);
  std::thread server([&] {
    auto accepted = listener->Accept();
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    auto frame = accepted.ValueOrDie()->RecvFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ("over tcp", frame.ValueOrDie());
  });
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SocketConnection> client,
                       SocketConnection::Connect(listener->endpoint()));
  ASSERT_TRUE(client->SendFrame("over tcp").ok());
  server.join();
}

// ---------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------

TEST(ServeTest, ServeMessageRoundTripsHeaderAndBody) {
  ServeHeader header;
  header.type = ServeMsg::kExecRequest;
  header.session_id = 0xA1B2C3D4E5F60718ull;
  header.request_id = 42;
  const std::string payload = EncodeServeMessage(header, "shard body");
  ASSERT_OK_AND_ASSIGN(auto decoded, DecodeServeMessage(payload));
  EXPECT_EQ(ServeMsg::kExecRequest, decoded.first.type);
  EXPECT_EQ(header.session_id, decoded.first.session_id);
  EXPECT_EQ(header.request_id, decoded.first.request_id);
  EXPECT_EQ("shard body", decoded.second);

  // Unknown message types and truncated headers are rejected loudly.
  std::string bogus = payload;
  bogus[0] = 99;
  EXPECT_FALSE(DecodeServeMessage(bogus).ok());
  EXPECT_FALSE(DecodeServeMessage(payload.substr(0, 10)).ok());
}

TEST(ServeTest, ExecShardRequestRoundTrips) {
  ExecShardRequest req;
  req.query = "q1";
  req.seed = 77;
  req.shard_index = 2;
  req.num_shards = 8;
  req.morsel_rows = 4096;
  req.num_threads = 3;
  req.admission_scale = 0.5;
  req.expected_catalog_fingerprint = 0xFEEDFACE;
  ASSERT_OK_AND_ASSIGN(ExecShardRequest back,
                       ExecShardRequestFromBytes(ExecShardRequestToBytes(req)));
  EXPECT_EQ(req.query, back.query);
  EXPECT_EQ(req.seed, back.seed);
  EXPECT_EQ(req.shard_index, back.shard_index);
  EXPECT_EQ(req.num_shards, back.num_shards);
  EXPECT_EQ(req.morsel_rows, back.morsel_rows);
  EXPECT_EQ(req.num_threads, back.num_threads);
  EXPECT_EQ(req.admission_scale, back.admission_scale);
  EXPECT_EQ(req.expected_catalog_fingerprint,
            back.expected_catalog_fingerprint);
}

TEST(ServeTest, StatusSurvivesTheWireWithItsCode) {
  const Status lost = Status::Unavailable("worker 3 went away");
  const Status decoded = StatusFromBytes(StatusToBytes(lost));
  EXPECT_EQ(StatusCode::kUnavailable, decoded.code());
  EXPECT_NE(std::string::npos, decoded.ToString().find("worker 3 went away"));
  EXPECT_TRUE(IsRetryableShardFailure(decoded));

  const Status fatal =
      StatusFromBytes(StatusToBytes(Status::InvalidArgument("diverged")));
  EXPECT_EQ(StatusCode::kInvalidArgument, fatal.code());
  EXPECT_FALSE(IsRetryableShardFailure(fatal));

  // Protocol violations decode to their own (non-retryable) failures.
  EXPECT_EQ(StatusCode::kInternal, StatusFromBytes(StatusToBytes(Status::OK()))
                                       .code());
  EXPECT_FALSE(StatusFromBytes("").ok());
}

// ---------------------------------------------------------------------
// Daemon contract
// ---------------------------------------------------------------------

TEST(ServeTest, DaemonRefusesUnknownQueriesAndDivergentCatalogs) {
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 1, "refuse");
  DaemonChannel channel(fleet.endpoints[0]);

  ExecShardRequest req;
  req.query = "no-such-query";
  req.num_shards = 2;
  auto unknown = channel.Call(ServeMsg::kExecRequest, 1,
                              ExecShardRequestToBytes(req),
                              ServeMsg::kExecResponse);
  EXPECT_FALSE(unknown.ok());
  EXPECT_FALSE(IsRetryableShardFailure(unknown.status()));

  req.query = "q1";
  req.morsel_rows = 64;
  req.expected_catalog_fingerprint = 0xDEADBEEF;  // not the loaded data
  auto diverged = channel.Call(ServeMsg::kExecRequest, 1,
                               ExecShardRequestToBytes(req),
                               ServeMsg::kExecResponse);
  EXPECT_FALSE(diverged.ok());
  // Divergence is fatal, never retried (re-executing cannot fix it).
  EXPECT_EQ(StatusCode::kInvalidArgument, diverged.status().code());
  EXPECT_EQ(0, fleet.daemons[0]->requests_served());
  channel.Shutdown();
}

// ---------------------------------------------------------------------
// The serving matrix: sessions × daemons × threads, bit-identical
// ---------------------------------------------------------------------

TEST(ServeTest, ServedBitIdenticalAcrossSessionDaemonThreadMatrix) {
  ServeFixture fx;
  // Sessions cycle these seeds; the reference is computed once per seed.
  const std::vector<uint64_t> seeds = {5, 6, 7, 8};
  std::map<uint64_t, SboxReport> local;
  for (const uint64_t seed : seeds) local[seed] = fx.Local(seed, 4);

  for (const int num_daemons : {1, 2, 4}) {
    SCOPED_TRACE("daemons=" + std::to_string(num_daemons));
    Fleet fleet =
        StartFleet(fx, num_daemons, "matrix" + std::to_string(num_daemons));
    SessionCoordinator coordinator(fleet.endpoints);
    for (const int num_sessions : {1, 4, 16}) {
      for (const int num_threads : {1, 4}) {
        SCOPED_TRACE("sessions=" + std::to_string(num_sessions) +
                     " threads=" + std::to_string(num_threads));
        std::vector<std::thread> sessions;
        std::atomic<int> failures{0};
        for (int s = 0; s < num_sessions; ++s) {
          sessions.emplace_back([&, s] {
            const uint64_t seed = seeds[static_cast<size_t>(s) % seeds.size()];
            ServedRequest req = BaseRequest(seed);
            req.num_threads = num_threads;
            auto result = coordinator.Execute("q1", req);
            if (!result.ok()) {
              ADD_FAILURE() << "session " << s << ": "
                            << result.status().ToString();
              ++failures;
              return;
            }
            const ServedResult& served = result.ValueOrDie();
            EXPECT_FALSE(served.degraded);
            EXPECT_FALSE(served.cache_hit);
            ExpectReportsIdentical(local[seed], served.report);
          });
        }
        for (std::thread& t : sessions) t.join();
        ASSERT_EQ(0, failures.load());
      }
    }
    coordinator.Shutdown();
  }
}

TEST(ServeTest, InjectedShardFaultsRetryToTheIdenticalAnswer) {
  ServeFixture fx;
  const SboxReport want = fx.Local(/*seed=*/11, 4);
  Fleet fleet = StartFleet(fx, 2, "fault");
  SessionCoordinator coordinator(fleet.endpoints);

  // Shard 1 fails its first two attempts at the daemon's fault site; the
  // retry layer must absorb both and the answer must not move a bit.
  ScopedFaultPlan plan("serve.execute@1=fail*2");
  ExecStats stats;
  ServedRequest req = BaseRequest(11);
  req.retry.max_attempts = 3;
  req.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult served, coordinator.Execute("q1", req));
  EXPECT_FALSE(served.degraded);
  ExpectReportsIdentical(want, served.report);
  EXPECT_GE(stats.shard_retries, 2);
  EXPECT_GE(stats.shard_attempts, 6);  // 4 shards + 2 re-attempts
  coordinator.Shutdown();
}

TEST(ServeTest, KilledDaemonHealsOnRestartBitIdentically) {
  ServeFixture fx;
  const SboxReport want = fx.Local(/*seed=*/23, 4);
  Fleet fleet = StartFleet(fx, 2, "heal");
  SessionCoordinator coordinator(fleet.endpoints);

  // Warm the channels (and the plan-info cache) while both daemons live.
  ASSERT_OK_AND_ASSIGN(ServedResult first,
                       coordinator.Execute("q1", BaseRequest(23)));
  ExpectReportsIdentical(want, first.report);

  // Kill daemon 1 (owner of shards 1 and 3), restart it shortly after on
  // the same address; a query issued into the outage must ride retries
  // across the gap and land on the same bits.
  fleet.daemons[1]->Stop();
  std::thread restarter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto restarted = fleet.daemons[1]->Start(fleet.endpoints[1]);
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  });
  ExecStats stats;
  ServedRequest req = BaseRequest(23);
  req.retry.max_attempts = 60;
  req.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult healed, coordinator.Execute("q1", req));
  restarter.join();
  EXPECT_FALSE(healed.degraded);
  ExpectReportsIdentical(want, healed.report);
  EXPECT_GE(stats.shard_retries, 1);  // the outage was really crossed
  coordinator.Shutdown();
}

TEST(ServeTest, ConcurrentSessionsSurviveMidRunDaemonKill) {
  ServeFixture fx;
  const std::vector<uint64_t> seeds = {31, 32, 33};
  std::map<uint64_t, SboxReport> local;
  for (const uint64_t seed : seeds) local[seed] = fx.Local(seed, 4);

  Fleet fleet = StartFleet(fx, 2, "stress");
  SessionCoordinator coordinator(fleet.endpoints);
  // Slow daemon 1's shards down so the kill below lands mid-request for
  // some sessions (a true mid-stream cut, not just a refused connect).
  ScopedFaultPlan plan("serve.execute@1=delay*4+80;serve.execute@3=delay*4+80");

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 3; ++round) {
        const uint64_t seed =
            seeds[static_cast<size_t>(c + round) % seeds.size()];
        ServedRequest req = BaseRequest(seed);
        req.retry.max_attempts = 60;
        auto result = coordinator.Execute("q1", req);
        if (!result.ok()) {
          ADD_FAILURE() << "client " << c << " round " << round << ": "
                        << result.status().ToString();
          ++failures;
          return;
        }
        EXPECT_FALSE(result.ValueOrDie().degraded);
        ExpectReportsIdentical(local[seed], result.ValueOrDie().report);
      }
    });
  }
  std::thread chaos([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    fleet.daemons[1]->Stop();
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    auto restarted = fleet.daemons[1]->Start(fleet.endpoints[1]);
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  });
  for (std::thread& t : clients) t.join();
  chaos.join();
  EXPECT_EQ(0, failures.load());
  coordinator.Shutdown();
}

// ---------------------------------------------------------------------
// Daemon resources: bounded request workers, reaped connections and
// channel generations, back-pressure when every worker is busy
// ---------------------------------------------------------------------

/// A plan-info request body for `name`.
std::string PlanInfoBody(const std::string& name) {
  WireWriter w;
  w.PutString(name);
  return w.buffer();
}

TEST(ServeTest, SerialRequestsReuseOneRequestWorker) {
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 1, "serial");
  const WorkerDaemon& daemon = *fleet.daemons[0];
  DaemonChannel channel(fleet.endpoints[0]);
  ExecShardRequest req;
  req.query = "q1";
  req.seed = 3;
  req.num_shards = 4;
  req.morsel_rows = 64;
  const int kRequests = 240;
  for (int i = 0; i < kRequests; ++i) {
    req.shard_index = i % req.num_shards;
    ASSERT_OK(channel
                  .Call(ServeMsg::kExecRequest, 1,
                        ExecShardRequestToBytes(req), ServeMsg::kExecResponse)
                  .status());
    // The worker goes idle before its reply leaves, so the next request
    // finds it: one request at a time never needs a second worker.
    ASSERT_EQ(1, daemon.request_workers()) << "after request " << i;
  }
  EXPECT_EQ(kRequests, daemon.requests_served());
  channel.Shutdown();
}

TEST(ServeTest, FullRequestQueueAnswersUnavailableAndSessionsRetryThrough) {
  ServeFixture fx;
  const SboxReport want = fx.Local(/*seed=*/41, 4);
  Fleet fleet = StartFleet(fx, 1, "overload");
  const WorkerDaemon& daemon = *fleet.daemons[0];
  const int workers = WorkerDaemon::MaxRequestWorkers();
  const int capacity =
      static_cast<int>(WorkerDaemon::kQueuedPerWorker) * workers;
  const int sent = workers + capacity + 8;

  // One connection, no client threads: the first `workers` requests hold
  // every worker for 600 ms, the next `capacity` fill the queue, the last
  // 8 find no room. An unregistered query keeps every reply short.
  ScopedFaultPlan plan("serve.execute=delay*" + std::to_string(workers) +
                       "+600");
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SocketConnection> raw,
                       SocketConnection::Connect(fleet.endpoints[0]));
  ExecShardRequest req;
  req.query = "no-such-query";
  req.num_shards = 1;
  const std::string body = ExecShardRequestToBytes(req);
  for (int i = 0; i < sent; ++i) {
    ServeHeader header;
    header.type = ServeMsg::kExecRequest;
    header.session_id = 1;
    header.request_id = static_cast<uint64_t>(i) + 1;
    ASSERT_OK(raw->SendFrame(EncodeServeMessage(header, body)));
  }
  // Reads one reply; returns its code (every reply here is a kError).
  const auto read_reply = [&raw]() -> StatusCode {
    Result<std::string> frame = raw->RecvFrame();
    if (!frame.ok()) return frame.status().code();
    auto decoded = DecodeServeMessage(frame.ValueOrDie());
    if (!decoded.ok() || decoded.ValueOrDie().first.type != ServeMsg::kError) {
      return StatusCode::kInternal;
    }
    return StatusFromBytes(decoded.ValueOrDie().second).code();
  };
  // Rejections are answered at once, ahead of every held request.
  ASSERT_EQ(StatusCode::kUnavailable, read_reply());
  EXPECT_EQ(workers, daemon.request_workers());

  // The other replies drain on their own thread: the held workers cannot
  // take the queued requests, nor this test's session, until the socket
  // takes their replies.
  std::map<StatusCode, int> codes;
  std::thread drain([&] {
    for (int i = 1; i < sent; ++i) ++codes[read_reply()];
  });

  // A session arriving into the overload is refused, backs off and lands
  // on the unloaded answer once the held workers drain the queue.
  SessionCoordinator coordinator(fleet.endpoints);
  ExecStats stats;
  ServedRequest served_req = BaseRequest(41);
  served_req.retry.max_attempts = 60;
  served_req.stats = &stats;
  Result<ServedResult> served = coordinator.Execute("q1", served_req);
  drain.join();
  ASSERT_OK(served.status());
  EXPECT_FALSE(served.ValueOrDie().degraded);
  ExpectReportsIdentical(want, served.ValueOrDie().report);
  EXPECT_GE(stats.shard_retries, 1);
  coordinator.Shutdown();

  // 8 refused in all; the held and queued requests ran (and failed on
  // their unregistered query).
  EXPECT_EQ(7, codes[StatusCode::kUnavailable]);
  EXPECT_EQ(workers + capacity, codes[StatusCode::kInvalidArgument]);
  EXPECT_EQ(workers, daemon.request_workers());
}

TEST(ServeTest, PeerThatNeverReadsCannotParkTheDaemon) {
  ServeFixture fx;
  const SboxReport want = fx.Local(/*seed=*/43, 4);
  Fleet fleet = StartFleet(fx, 1, "noread");
  const WorkerDaemon& daemon = *fleet.daemons[0];
  const int workers = WorkerDaemon::MaxRequestWorkers();
  const int sent =
      workers + static_cast<int>(WorkerDaemon::kQueuedPerWorker) * workers +
      4000;

  // A peer floods exec requests and reads none of the replies. Once its
  // socket buffer is full, every worker answering it blocks in a send,
  // the queue fills, and the daemon's reader blocks on its own
  // Unavailable replies, so the flood's sends block too.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SocketConnection> raw,
                       SocketConnection::Connect(fleet.endpoints[0]));
  std::atomic<int> written{0};
  std::atomic<bool> flood_ended{false};
  std::thread flood([&] {
    ExecShardRequest req;
    req.query = "q1";
    req.seed = 5;
    req.num_shards = 4;
    req.morsel_rows = 64;
    for (int i = 0; i < sent; ++i) {
      req.shard_index = i % req.num_shards;
      ServeHeader header;
      header.type = ServeMsg::kExecRequest;
      header.session_id = 1;
      header.request_id = static_cast<uint64_t>(i) + 1;
      if (!raw->SendFrame(EncodeServeMessage(header,
                                             ExecShardRequestToBytes(req)))
               .ok()) {
        break;  // the daemon closed the connection
      }
      written.fetch_add(1);
    }
    flood_ended.store(true);
  });
  // Wait until the flood stalls: nothing more written for 200 ms.
  for (int last = -1; written.load() != last;) {
    last = written.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  // A session on another connection is refused while the workers wait on
  // the stuck peer, then lands on the unloaded answer once the send
  // timeout has closed that peer's connection.
  const auto start = std::chrono::steady_clock::now();
  SessionCoordinator coordinator(fleet.endpoints);
  ServedRequest served_req = BaseRequest(43);
  served_req.retry.max_attempts = 100;  // ~9 s of backoff in all
  served_req.retry.deadline_ms = 1000;  // re-sends a request left queued
  Result<ServedResult> served = coordinator.Execute("q1", served_req);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  coordinator.Shutdown();
  // The daemon closed the stuck peer's connection, which failed the
  // flood's blocked send.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flood_ended.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(flood_ended.load());
  EXPECT_LT(written.load(), sent);
  raw->Close();  // unblocks the flood had the daemon not closed it
  flood.join();
  ASSERT_OK(served.status());
  EXPECT_FALSE(served.ValueOrDie().degraded);
  ExpectReportsIdentical(want, served.ValueOrDie().report);
  EXPECT_LT(elapsed, std::chrono::milliseconds(
                         5 * WorkerDaemon::kReplySendTimeoutMs));

  // Every worker goes back to waiting for work.
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.idle_request_workers() < daemon.request_workers() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(daemon.request_workers(), daemon.idle_request_workers());
  EXPECT_LE(daemon.request_workers(), workers);
}

TEST(ServeTest, DaemonReapsEndedConnections) {
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 1, "reap");
  const WorkerDaemon& daemon = *fleet.daemons[0];
  const std::string body = PlanInfoBody("q1");
  for (int i = 0; i < 50; ++i) {
    DaemonChannel channel(fleet.endpoints[0]);
    ASSERT_OK(channel
                  .Call(ServeMsg::kPlanInfoRequest, 1, body,
                        ServeMsg::kPlanInfoResponse)
                  .status());
    channel.Shutdown();
    // The daemon's reader sees the close, then joins any connection that
    // ended before it; only this channel's may still be held.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (daemon.connections() > 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_LE(daemon.connections(), 1) << "after channel " << i;
  }
}

TEST(ServeTest, ChannelJoinsDeadGenerationsAcrossDaemonRestarts) {
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 1, "regen");
  WorkerDaemon& daemon = *fleet.daemons[0];
  DaemonChannel channel(fleet.endpoints[0]);
  const std::string body = PlanInfoBody("q1");
  for (int restart = 0; restart <= 10; ++restart) {
    if (restart > 0) {
      daemon.Stop();
      ASSERT_OK(daemon.Start(fleet.endpoints[0]).status());
    }
    // The old generation's death may surface on the first call; the
    // retry reconnects.
    Result<std::string> info = Status::Unavailable("not called");
    for (int attempt = 0; attempt < 200 && !info.ok(); ++attempt) {
      info = channel.Call(ServeMsg::kPlanInfoRequest, 1, body,
                          ServeMsg::kPlanInfoResponse);
      if (!info.ok()) {
        ASSERT_TRUE(IsRetryableShardFailure(info.status()))
            << info.status().ToString();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    ASSERT_OK(info.status());
    EXPECT_EQ(1, channel.reader_threads()) << "after restart " << restart;
  }
  channel.Shutdown();
  EXPECT_EQ(0, channel.reader_threads());
}

TEST(ServeTest, AllowPartialDegradesHonestlyWhenADaemonStaysDead) {
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 2, "degrade");
  SessionCoordinator coordinator(fleet.endpoints);
  // Resolve plan info while both daemons live, then lose daemon 1 for good.
  ASSERT_OK_AND_ASSIGN(ServedResult full,
                       coordinator.Execute("q1", BaseRequest(47)));
  EXPECT_FALSE(full.degraded);
  fleet.daemons[1]->Stop();

  // Strict mode: the query fails and says which shard stayed lost.
  {
    ServedRequest req = BaseRequest(47);
    req.retry.max_attempts = 2;
    auto strict = coordinator.Execute("q1", req);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(StatusCode::kUnavailable, strict.status().code());
    EXPECT_NE(std::string::npos,
              strict.status().ToString().find("allow_partial"));
  }

  // allow_partial: the surviving half answers, labeled as degraded, and
  // the degraded result must never enter the view cache.
  ViewCache cache(8);
  ExecStats stats;
  ServedRequest req = BaseRequest(47, &cache);
  req.retry.max_attempts = 2;
  req.allow_partial = true;
  req.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult degraded, coordinator.Execute("q1", req));
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(2, degraded.degradation.surviving_shards);
  EXPECT_EQ(4, degraded.degradation.total_shards);
  EXPECT_LT(degraded.degradation.effective_coverage, 1.0);
  EXPECT_GT(degraded.degradation.effective_coverage, 0.0);
  EXPECT_EQ(2u, degraded.live.surviving.size());
  EXPECT_GT(degraded.report.sample_rows, 0);
  EXPECT_EQ(2, stats.shards_lost);
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(0u, cache.size());  // outages are not immortalized
  coordinator.Shutdown();
}

// ---------------------------------------------------------------------
// The approximate-view cache
// ---------------------------------------------------------------------

TEST(ServeTest, ViewCacheHitServesIdenticalBitsWithoutExecuting) {
  ServeFixture fx;
  const SboxReport want = fx.Local(/*seed=*/61, 4);
  Fleet fleet = StartFleet(fx, 1, "cache");
  SessionCoordinator coordinator(fleet.endpoints);
  ViewCache cache(8);

  ExecStats stats;
  ServedRequest req = BaseRequest(61, &cache);
  req.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult miss, coordinator.Execute("q1", req));
  EXPECT_FALSE(miss.cache_hit);
  ExpectReportsIdentical(want, miss.report);
  EXPECT_EQ(1, stats.cache_misses);
  EXPECT_EQ(0, stats.cache_hits);
  EXPECT_EQ(1u, cache.size());
  const int64_t executed_before_hit = fleet.daemons[0]->requests_served();
  EXPECT_GT(executed_before_hit, 0);

  // The hit: same bits, and the daemon is never consulted.
  ASSERT_OK_AND_ASSIGN(ServedResult hit, coordinator.Execute("q1", req));
  EXPECT_TRUE(hit.cache_hit);
  ExpectReportsIdentical(want, hit.report);
  EXPECT_EQ(1, stats.cache_hits);
  EXPECT_EQ(executed_before_hit, fleet.daemons[0]->requests_served());

  // Shard-count invariance makes the fleet geometry a non-axis of the
  // key: the same entry answers a 2-shard request bit-identically.
  ServedRequest two = BaseRequest(61, &cache);
  two.num_shards = 2;
  two.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult across, coordinator.Execute("q1", two));
  EXPECT_TRUE(across.cache_hit);
  ExpectReportsIdentical(want, across.report);
  EXPECT_EQ(executed_before_hit, fleet.daemons[0]->requests_served());

  // A different seed is a different estimate: miss, then its own entry.
  ServedRequest other = BaseRequest(62, &cache);
  other.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult fresh, coordinator.Execute("q1", other));
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(2u, cache.size());
  EXPECT_GT(fleet.daemons[0]->requests_served(), executed_before_hit);
  coordinator.Shutdown();
}

TEST(ServeTest, ViewCacheInvalidatesByCatalogAndFailsLoudlyWhenPoisoned) {
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 1, "poison");
  SessionCoordinator coordinator(fleet.endpoints);
  ViewCache cache(8);

  ExecStats stats;
  ServedRequest req = BaseRequest(71, &cache);
  req.stats = &stats;
  ASSERT_OK_AND_ASSIGN(ServedResult first, coordinator.Execute("q1", req));
  EXPECT_FALSE(first.cache_hit);

  // The entry's key is exactly the documented composition — reconstruct
  // it independently and hit the same slot.
  ColumnarCatalog columnar(&fx.catalog);
  ViewCacheKey key;
  key.query_fingerprint = ServedQueryFingerprint(fx.Served());
  key.catalog_fingerprint =
      PlanCatalogFingerprint(fx.q1.plan, &columnar).ValueOrDie();
  key.seed = 71;
  ExecOptions geometry;
  geometry.morsel_rows = 64;
  key.morsel_rows = ShardedExecOptions(geometry).morsel_rows;
  key.scale_bits = DoubleBits(1.0);
  ASSERT_TRUE(cache.Lookup(key).has_value());

  // Data changed: bulk invalidation empties the catalog's entries and the
  // next query re-executes.
  EXPECT_EQ(1, cache.InvalidateCatalog(key.catalog_fingerprint));
  EXPECT_EQ(0u, cache.size());
  const int64_t before = fleet.daemons[0]->requests_served();
  ASSERT_OK_AND_ASSIGN(ServedResult again, coordinator.Execute("q1", req));
  EXPECT_FALSE(again.cache_hit);
  EXPECT_GT(fleet.daemons[0]->requests_served(), before);
  ExpectReportsIdentical(first.report, again.report);

  // Poison the re-inserted entry: the hit path must fail loudly (bundle
  // checksum), never serve numbers, and never fall through to execution.
  ASSERT_TRUE(cache.CorruptEntryForTesting(key));
  const int64_t before_poison = fleet.daemons[0]->requests_served();
  auto poisoned = coordinator.Execute("q1", req);
  ASSERT_FALSE(poisoned.ok());
  EXPECT_NE(std::string::npos,
            poisoned.status().ToString().find("checksum"));
  EXPECT_EQ(before_poison, fleet.daemons[0]->requests_served());
  coordinator.Shutdown();
}

// ---------------------------------------------------------------------
// Admission control at the front door
// ---------------------------------------------------------------------

TEST(ServeTest, AttachedAdmissionControllerScalesAndObserves) {
  ServeFixture fx;
  Fleet fleet = StartFleet(fx, 1, "admit");
  AdmissionConfig config;
  config.capacity_rows = 1'000'000;  // wildly over-provisioned: scale 1.0
  ASSERT_OK_AND_ASSIGN(AdmissionController admission,
                       AdmissionController::Make(config));
  SessionCoordinator coordinator(fleet.endpoints, &admission);

  // At scale 1.0 the design is untouched, so the served answer is still
  // bit-identical to the unscaled one-shot reference.
  ASSERT_OK_AND_ASSIGN(ServedResult served,
                       coordinator.Execute("q1", BaseRequest(83)));
  EXPECT_EQ(1.0, served.admission_scale);
  ExpectReportsIdentical(fx.Local(83, 4), served.report);
  coordinator.Shutdown();

  // A tiny capacity shrinks the scale for subsequent queries.
  AdmissionConfig tight;
  tight.capacity_rows = 4;
  ASSERT_OK_AND_ASSIGN(AdmissionController squeezed,
                       AdmissionController::Make(tight));
  SessionCoordinator throttled(fleet.endpoints, &squeezed);
  ASSERT_OK_AND_ASSIGN(ServedResult loaded,
                       throttled.Execute("q1", BaseRequest(83)));
  EXPECT_GT(loaded.report.sample_rows, 0);
  EXPECT_LT(squeezed.scale(), 1.0);  // the observed load registered
  throttled.Shutdown();
}

// ---------------------------------------------------------------------
// The sqlish kServed engine
// ---------------------------------------------------------------------

TEST(ServeTest, SqlishServedEngineCachesBitIdenticalResults) {
  ServeFixture fx;
  // Ungrouped (SampleViewBuilder state) and grouped (GroupedSumBuilder
  // state) both round-trip through the cache.
  for (const char* sql :
       {"SELECT SUM(l_discount * o_totalprice), COUNT(*) "
        "FROM l TABLESAMPLE (40 PERCENT), o "
        "WHERE l_orderkey = o_orderkey",
        "SELECT SUM(l_quantity) "
        "FROM l TABLESAMPLE (50 PERCENT), o "
        "WHERE l_orderkey = o_orderkey GROUP BY o_custkey"}) {
    SCOPED_TRACE(sql);
    // A unique seed keeps this test's process-wide cache entries its own.
    const uint64_t seed = 987654321 + std::string(sql).size();

    ExecOptions sharded;
    sharded.engine = ExecEngine::kSharded;
    sharded.num_shards = 4;
    sharded.morsel_rows = 64;
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult want,
        sqlish::RunApproxQuery(sql, fx.catalog, seed, {}, sharded));

    ExecStats stats;
    ExecOptions served = sharded;
    served.engine = ExecEngine::kServed;
    served.stats = &stats;
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult first,
        sqlish::RunApproxQuery(sql, fx.catalog, seed, {}, served));
    EXPECT_EQ(1, stats.cache_misses);
    EXPECT_EQ(0, stats.cache_hits);
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult second,
        sqlish::RunApproxQuery(sql, fx.catalog, seed, {}, served));
    EXPECT_EQ(1, stats.cache_hits);
    EXPECT_EQ(1, stats.cache_misses);  // counters accumulate across calls

    ASSERT_EQ(want.values.size(), first.values.size());
    ASSERT_EQ(want.values.size(), second.values.size());
    for (size_t i = 0; i < want.values.size(); ++i) {
      SCOPED_TRACE(i);
      for (const sqlish::ApproxResult* got : {&first, &second}) {
        EXPECT_EQ(want.values[i].label, got->values[i].label);
        EXPECT_EQ(want.values[i].group, got->values[i].group);
        EXPECT_EQ(want.values[i].value, got->values[i].value);
        EXPECT_EQ(want.values[i].stddev, got->values[i].stddev);
        EXPECT_EQ(want.values[i].lo, got->values[i].lo);
        EXPECT_EQ(want.values[i].hi, got->values[i].hi);
      }
    }
    EXPECT_EQ(want.sample_rows, first.sample_rows);
    EXPECT_EQ(want.sample_rows, second.sample_rows);
  }

  // The served engine estimates; it never materializes relations.
  ExecOptions served;
  served.engine = ExecEngine::kServed;
  Rng rng(1);
  auto rejected =
      ExecutePlan(fx.q1.plan, fx.catalog, &rng, ExecMode::kSampled, served);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, rejected.status().code());
}

}  // namespace
}  // namespace gus
