// fixd service tests over real loopback sockets: wire parity with the
// in-process Database (every QUERY/QUERY_BATCH answer byte-identical),
// INSERT visibility, typed load-shedding under a saturated worker pool,
// graceful drain (in-flight requests finish, fresh ones get
// kShuttingDown), and the HTTP sidecar endpoints. Exercises both poller
// backends (epoll where available, poll via force_poll).

#include "server/fixd_server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/net.h"
#include "common/wire.h"
#include "core/database.h"
#include "core/sharded_database.h"
#include "server/client.h"

namespace fix {
namespace server {
namespace {

const char* const kXPaths[] = {
    "//inproceedings/title/i",
    "//dblp/inproceedings/author",
    "//inproceedings[url]/title",
};

std::string TestDoc(int i) {
  return "<dblp><inproceedings><author>Author " + std::to_string(i) +
         "</author><title>Title <i>emph " + std::to_string(i) +
         "</i></title><url>db/" + std::to_string(i) +
         "</url><year>1999</year></inproceedings></dblp>";
}

/// Blocks the worker executing the first QUERY until Release(); lets the
/// tests hold a request in flight deterministically.
class WorkerLatch {
 public:
  void Block(uint8_t op) {
    if (static_cast<wire::Op>(op) != wire::Op::kQuery) return;
    if (armed_.exchange(false)) {
      MutexLock lock(mu_);
      entered_ = true;
      cv_.NotifyAll();
      while (!released_) cv_.Wait(mu_);
    }
  }
  void AwaitEntered() {
    MutexLock lock(mu_);
    while (!entered_) cv_.Wait(mu_);
  }
  void Release() {
    MutexLock lock(mu_);
    released_ = true;
    cv_.NotifyAll();
  }

 private:
  std::atomic<bool> armed_{true};
  Mutex mu_;
  CondVar cv_;
  bool entered_ FIX_GUARDED_BY(mu_) = false;
  bool released_ FIX_GUARDED_BY(mu_) = false;
};

class FixdServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/fixd_svc_" + info->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    Database seed(dir_);
    for (int i = 0; i < 8; ++i) {
      auto id = seed.AddXml(TestDoc(i));
      ASSERT_TRUE(id.ok()) << id.status();
    }
    ASSERT_TRUE(seed.Save().ok());
    IndexOptions options;
    options.depth_limit = 3;
    auto built = seed.BuildIndex("main", options);
    ASSERT_TRUE(built.ok()) << built.status();

    auto opened = Database::Open(dir_);
    ASSERT_TRUE(opened.ok()) << opened.status();
    db_ = std::move(opened).value();
  }

  void TearDown() override {
    server_.reset();
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Starts a server on an ephemeral loopback port.
  void StartServer(ServerOptions options) {
    options.host = "127.0.0.1";
    options.port = 0;
    options.index = "main";
    options.index_options.depth_limit = 3;
    server_ = std::make_unique<Server>(db_.get(), options);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started;
  }

  Result<std::unique_ptr<FixdClient>> Connect() {
    return FixdClient::Connect("127.0.0.1", server_->port());
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
};

/// Reads one response frame from a raw socket (for tests that pipeline
/// past FixdClient's one-in-flight discipline).
void ReadFrame(int fd, uint8_t* type, std::string* payload) {
  char header[wire::kHeaderSize];
  ASSERT_TRUE(net::RecvExact(fd, header, sizeof(header), 5000).ok());
  ASSERT_EQ(header[0], wire::kMagic0);
  ASSERT_EQ(header[1], wire::kMagic1);
  *type = static_cast<uint8_t>(header[3]);
  const uint32_t len = DecodeFixed32(header + 4);
  ASSERT_LE(len, wire::kMaxPayload);
  payload->resize(len);
  if (len > 0) {
    ASSERT_TRUE(net::RecvExact(fd, payload->data(), len, 5000).ok());
  }
}

TEST_F(FixdServiceTest, LoopbackParityWithInProcessExecution) {
  StartServer(ServerOptions{});
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE((*client)->Ping().ok());

  // Every QUERY answer must match the in-process Database byte for byte:
  // same rows, same order, same stats the wire carries.
  for (const char* xpath : kXPaths) {
    std::vector<NodeRef> want;
    auto stats = db_->Query("main", xpath, &want);
    ASSERT_TRUE(stats.ok()) << xpath;

    auto outcome = (*client)->Query("main", xpath);
    ASSERT_TRUE(outcome.ok()) << xpath << ": " << outcome.status();
    EXPECT_EQ(outcome->result_count, stats->result_count) << xpath;
    EXPECT_EQ(outcome->used_index, stats->used_index) << xpath;
    EXPECT_EQ(outcome->candidates, stats->candidates) << xpath;
    ASSERT_EQ(outcome->results.size(), want.size()) << xpath;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(outcome->results[i].doc_id, want[i].doc_id);
      EXPECT_EQ(outcome->results[i].node_id, want[i].node_id);
    }
  }

  // QUERY_BATCH parity against ExecuteMany, including a per-query error
  // sandwiched between two good queries.
  std::vector<std::string> xpaths = {kXPaths[0], "//broken[", kXPaths[1]};
  auto local = db_->ExecuteMany("main", xpaths, 2);
  ASSERT_TRUE(local.ok());
  auto remote = (*client)->QueryBatch("main", xpaths, 2);
  ASSERT_TRUE(remote.ok()) << remote.status();
  ASSERT_EQ(remote->size(), xpaths.size());
  EXPECT_EQ((*remote)[1].code, wire::Code::kParseError);
  for (size_t q = 0; q < xpaths.size(); ++q) {
    const auto& l = (*local)[q];
    const auto& r = (*remote)[q];
    ASSERT_EQ(l.status.ok(), r.code == wire::Code::kOk) << xpaths[q];
    if (!l.status.ok()) continue;
    ASSERT_EQ(r.results.size(), l.results.size()) << xpaths[q];
    for (size_t i = 0; i < l.results.size(); ++i) {
      EXPECT_EQ(r.results[i].doc_id, l.results[i].doc_id);
      EXPECT_EQ(r.results[i].node_id, l.results[i].node_id);
    }
  }

  // Typed errors, not dropped connections.
  auto missing = (*client)->Query("no_such_index", kXPaths[0]);
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status();
  auto bad = (*client)->Query("main", "//broken[");
  EXPECT_TRUE(bad.status().IsParseError()) << bad.status();
  // The connection survived both errors.
  EXPECT_TRUE((*client)->Ping().ok());

  auto prom = (*client)->Stats();
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->find("fixd_requests_total"), std::string::npos);
  EXPECT_NE(prom->find("fixd_connections_open"), std::string::npos);

  ASSERT_TRUE(server_->Stop().ok());
}

TEST_F(FixdServiceTest, PollBackendServesTheSameProtocol) {
  ServerOptions options;
  options.force_poll = true;
  StartServer(options);
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  std::vector<NodeRef> want;
  ASSERT_TRUE(db_->Query("main", kXPaths[0], &want).ok());
  auto outcome = (*client)->Query("main", kXPaths[0]);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_EQ(outcome->results.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(outcome->results[i].node_id, want[i].node_id);
  }
  ASSERT_TRUE(server_->Stop().ok());
}

TEST_F(FixdServiceTest, InsertIsVisibleToSubsequentQueries) {
  StartServer(ServerOptions{});
  auto client = Connect();
  ASSERT_TRUE(client.ok());

  auto before = (*client)->Query("main", kXPaths[0]);
  ASSERT_TRUE(before.ok());

  auto inserted = (*client)->Insert("main", TestDoc(100));
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_EQ(inserted->doc_id, 8u);  // 8 seed docs
  EXPECT_GT(inserted->generation, 0u);

  auto after = (*client)->Query("main", kXPaths[0]);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->result_count, before->result_count + 1);

  // Malformed XML is a typed ParseError and changes nothing.
  auto rejected = (*client)->Insert("main", "<unclosed>");
  EXPECT_TRUE(rejected.status().IsParseError()) << rejected.status();
  auto unchanged = (*client)->Query("main", kXPaths[0]);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(unchanged->result_count, after->result_count);

  ASSERT_TRUE(server_->Stop().ok());
}

// On a sharded backend INSERT answers the target shard's index generation
// after the commit, like the unsharded path: consecutive inserts into one
// shard rise by exactly one, whatever the other shard does in between.
TEST_F(FixdServiceTest, ShardedInsertReturnsTargetShardGeneration) {
  ShardedOptions sopts;
  sopts.shard_count = 2;
  sopts.index.depth_limit = 3;
  const std::string sdir = dir_ + "/sharded";
  std::filesystem::create_directories(sdir);
  auto sdb = ShardedDatabase::Partition(*db_->corpus(), sdir, sopts);
  ASSERT_TRUE(sdb.ok()) << sdb.status();
  ASSERT_TRUE((*sdb)->BuildIndexes("main").ok());
  uint64_t last[2];
  for (uint32_t s = 0; s < 2; ++s) {
    FixIndex* index = (*sdb)->shard_db(s)->index("main");
    ASSERT_NE(index, nullptr);
    last[s] = index->generation();
  }

  ServerOptions options;
  options.host = "127.0.0.1";
  options.index = "main";
  options.index_options.depth_limit = 3;
  server_ = std::make_unique<Server>(sdb->get(), options);
  ASSERT_TRUE(server_->Start().ok());
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();

  uint32_t per_shard[2] = {0, 0};
  for (int i = 0; i < 32 && (per_shard[0] < 2 || per_shard[1] < 2); ++i) {
    auto inserted = (*client)->Insert("main", TestDoc(200 + i));
    ASSERT_TRUE(inserted.ok()) << inserted.status();
    const uint32_t s = ShardedDatabase::RouteDoc(inserted->doc_id, 2);
    EXPECT_EQ(inserted->generation, last[s] + 1)
        << "insert " << i << " into shard " << s;
    last[s] = inserted->generation;
    ++per_shard[s];
  }
  // Each shard took consecutive inserts.
  EXPECT_GE(per_shard[0], 2u);
  EXPECT_GE(per_shard[1], 2u);
  ASSERT_TRUE(server_->Stop().ok());
  server_.reset();
}

TEST_F(FixdServiceTest, OverloadShedsWithTypedErrorAndLosesNothing) {
  WorkerLatch latch;
  ServerOptions options;
  options.workers = 1;
  options.max_inflight = 1;
  options.dispatch_hook_for_test = [&latch](uint8_t op) { latch.Block(op); };
  StartServer(options);

  std::vector<NodeRef> want;
  ASSERT_TRUE(db_->Query("main", kXPaths[0], &want).ok());

  // Client A's query occupies the only in-flight slot (the worker parks
  // in the latch after admission).
  auto a = Connect();
  ASSERT_TRUE(a.ok());
  Result<wire::QueryOutcome> a_outcome = Status::Internal("unset");
  std::thread a_thread([&] { a_outcome = (*a)->Query("main", kXPaths[0]); });
  latch.AwaitEntered();
  ASSERT_EQ(server_->inflight(), 1);

  // Client B must be shed immediately with the typed retryable error —
  // not queued, not disconnected.
  auto b = Connect();
  ASSERT_TRUE(b.ok());
  auto b_outcome = (*b)->Query("main", kXPaths[0]);
  EXPECT_TRUE(b_outcome.status().IsUnavailable()) << b_outcome.status();
  EXPECT_NE(b_outcome.status().message().find("Overloaded"),
            std::string::npos)
      << b_outcome.status();

  // Releasing the worker completes A's request with a correct answer:
  // shedding shed B's request only, nothing was silently dropped.
  latch.Release();
  a_thread.join();
  ASSERT_TRUE(a_outcome.ok()) << a_outcome.status();
  ASSERT_EQ(a_outcome->results.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(a_outcome->results[i].node_id, want[i].node_id);
  }
  // B's connection survived the shed and serves again now.
  auto b_retry = (*b)->Query("main", kXPaths[0]);
  EXPECT_TRUE(b_retry.ok()) << b_retry.status();

  ASSERT_TRUE(server_->Stop().ok());
}

TEST_F(FixdServiceTest, GracefulDrainFinishesInflightAndRejectsFresh) {
  WorkerLatch latch;
  ServerOptions options;
  options.workers = 1;
  options.drain_timeout_ms = 10'000;
  options.dispatch_hook_for_test = [&latch](uint8_t op) { latch.Block(op); };
  StartServer(options);

  std::vector<NodeRef> want;
  ASSERT_TRUE(db_->Query("main", kXPaths[0], &want).ok());

  // Pipeline QUERY then PING on a raw socket: the query is admitted (and
  // parked in the latch); the ping stays buffered behind the server's
  // one-request-per-connection discipline until the query completes —
  // by which point the server is draining.
  auto sock = net::ConnectTcp("127.0.0.1", server_->port(), 5000);
  ASSERT_TRUE(sock.ok());
  std::string frames;
  std::string payload;
  wire::EncodeQueryRequest({"main", kXPaths[0]}, &payload);
  wire::AppendFrame(static_cast<uint8_t>(wire::Op::kQuery), payload,
                    &frames);
  wire::AppendFrame(static_cast<uint8_t>(wire::Op::kPing), "", &frames);
  ASSERT_TRUE(net::SendAll(sock->get(), frames, 5000).ok());
  latch.AwaitEntered();
  ASSERT_EQ(server_->inflight(), 1);

  server_->BeginDrain();
  latch.Release();

  // The in-flight query finished and its (correct) response flushed
  // before the connection went away.
  uint8_t type = 0;
  std::string response;
  ReadFrame(sock->get(), &type, &response);
  EXPECT_EQ(type, static_cast<uint8_t>(wire::Op::kQuery) |
                      wire::kResponseBit);
  wire::QueryOutcome outcome;
  ASSERT_TRUE(wire::DecodeQueryResponse(response, &outcome).ok());
  ASSERT_EQ(outcome.results.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(outcome.results[i].node_id, want[i].node_id);
  }

  // The pipelined ping was fresh work under drain: typed kShuttingDown.
  ReadFrame(sock->get(), &type, &response);
  EXPECT_EQ(type, static_cast<uint8_t>(wire::Op::kPing) |
                      wire::kResponseBit);
  wire::Code code = wire::Code::kOk;
  std::string error;
  size_t body_offset = 0;
  ASSERT_TRUE(
      wire::DecodeResponseHead(response, &code, &error, &body_offset).ok());
  EXPECT_EQ(code, wire::Code::kShuttingDown) << error;

  // Nothing was force-closed: the drain completes cleanly.
  Status drained = server_->WaitDrained();
  EXPECT_TRUE(drained.ok()) << drained;
}

TEST_F(FixdServiceTest, HttpSidecarServesStatsAndHealth) {
  StartServer(ServerOptions{});

  auto get = [&](const std::string& request) {
    auto sock = net::ConnectTcp("127.0.0.1", server_->port(), 5000);
    EXPECT_TRUE(sock.ok());
    EXPECT_TRUE(net::SendAll(sock->get(), request, 5000).ok());
    // The server closes after one response (Connection: close), so read
    // to EOF.
    std::string response;
    char buf[4096];
    for (;;) {
      ssize_t n = ::recv(sock->get(), buf, sizeof(buf), 0);
      if (n <= 0) break;
      response.append(buf, static_cast<size_t>(n));
    }
    return response;
  };

  // Prime a counter so the exposition provably carries fixd metrics.
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Ping().ok());

  std::string health = get("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos);

  std::string stats = get("GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(stats.find("200 OK"), std::string::npos);
  EXPECT_NE(stats.find("fixd_requests_total"), std::string::npos);
  EXPECT_NE(stats.find("fixd_request_latency_us"), std::string::npos);

  std::string missing = get("GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(missing.find("404"), std::string::npos);

  std::string post = get("POST /stats HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos);

  ASSERT_TRUE(server_->Stop().ok());
}

TEST_F(FixdServiceTest, GarbageBytesGetTypedBadFrameThenClose) {
  StartServer(ServerOptions{});
  auto sock = net::ConnectTcp("127.0.0.1", server_->port(), 5000);
  ASSERT_TRUE(sock.ok());
  // Not HTTP, not a valid frame: 12+ garbage bytes sniff as wire mode and
  // poison the frame reader.
  ASSERT_TRUE(
      net::SendAll(sock->get(), "ZZZZZZZZZZZZZZZZ", 5000).ok());
  uint8_t type = 0;
  std::string response;
  ReadFrame(sock->get(), &type, &response);
  EXPECT_EQ(type, wire::kResponseBit);  // frame-level error channel
  wire::Code code = wire::Code::kOk;
  std::string error;
  size_t body_offset = 0;
  ASSERT_TRUE(
      wire::DecodeResponseHead(response, &code, &error, &body_offset).ok());
  EXPECT_EQ(code, wire::Code::kBadFrame);
  // The server closes the unsynchronized stream after the error flushes.
  char byte;
  EXPECT_EQ(::recv(sock->get(), &byte, 1, 0), 0);
  ASSERT_TRUE(server_->Stop().ok());
}

}  // namespace
}  // namespace server
}  // namespace fix
