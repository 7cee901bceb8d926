#include "server/fixd_server.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "common/wire.h"
#include "server/http.h"

namespace fix {
namespace server {

namespace {

constexpr int kLoopTickMs = 100;   // timeout/drain bookkeeping cadence
constexpr size_t kReadChunk = 64 * 1024;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Gauge& ConnectionsOpen() {
  static Gauge* g = MetricsRegistry::Instance().FindOrCreateGauge(
      "fixd.connections.open", "connections",
      "client connections currently open (wire + HTTP)");
  return *g;
}
Counter& ConnectionsTotal() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fixd.connections.total", "connections",
      "client connections accepted since start");
  return *c;
}
Counter& RequestsTotal() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fixd.requests.total", "requests",
      "wire requests admitted (all opcodes; HTTP not included)");
  return *c;
}
Counter& RequestsByOp(uint8_t op) {
  // One counter per opcode (the registry has no labels); unknown ops are
  // rejected before admission and never reach here.
  static Counter* ping = MetricsRegistry::Instance().FindOrCreateCounter(
      "fixd.requests.ping", "requests", "PING requests admitted");
  static Counter* query = MetricsRegistry::Instance().FindOrCreateCounter(
      "fixd.requests.query", "requests", "QUERY requests admitted");
  static Counter* batch = MetricsRegistry::Instance().FindOrCreateCounter(
      "fixd.requests.query_batch", "requests",
      "QUERY_BATCH requests admitted");
  static Counter* insert = MetricsRegistry::Instance().FindOrCreateCounter(
      "fixd.requests.insert", "requests", "INSERT requests admitted");
  static Counter* stats = MetricsRegistry::Instance().FindOrCreateCounter(
      "fixd.requests.stats", "requests", "STATS requests admitted");
  switch (static_cast<wire::Op>(op)) {
    case wire::Op::kPing: return *ping;
    case wire::Op::kQuery: return *query;
    case wire::Op::kQueryBatch: return *batch;
    case wire::Op::kInsert: return *insert;
    case wire::Op::kStats: return *stats;
  }
  return *ping;  // unreachable: callers admit known ops only
}
Counter& RequestsShed() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fixd.requests.shed", "requests",
      "requests answered kOverloaded by admission control");
  return *c;
}
Counter& HttpRequests() {
  static Counter* c = MetricsRegistry::Instance().FindOrCreateCounter(
      "fixd.http.requests", "requests",
      "HTTP requests served (/stats, /healthz)");
  return *c;
}
Gauge& QueueDepth() {
  static Gauge* g = MetricsRegistry::Instance().FindOrCreateGauge(
      "fixd.queue.depth", "requests",
      "requests in flight (admitted, response not yet queued)");
  return *g;
}
Histogram& RequestLatency() {
  static Histogram* h = MetricsRegistry::Instance().FindOrCreateHistogram(
      "fixd.request.latency_us", "us",
      "admitted wire request latency, admission to response queued");
  return *h;
}

}  // namespace

/// Per-connection state. Owned by the loop thread through conns_;
/// workers hold a shared_ptr while executing that connection's request
/// and touch only the mu_-guarded output fields.
struct Conn {
  explicit Conn(net::Fd sock) : fd(sock.get()), owner(std::move(sock)) {}

  const int fd;
  net::Fd owner;

  // --- loop-thread-only state ---
  wire::FrameReader reader;
  std::string http_in;
  bool sniffed = false;
  bool http_mode = false;
  bool busy = false;              // a request is executing on a worker
  bool close_after_flush = false;
  int64_t last_active_ms = 0;     // last read progress (idle reaping)
  int64_t last_flush_ms = 0;      // last write progress (stall reaping)
  int64_t request_start_us = 0;   // admission time of the in-flight request

  // --- shared with workers ---
  // LOCK-ORDER: 11 Conn::mu_
  Mutex mu_;
  std::string out FIX_GUARDED_BY(mu_);
  bool response_ready FIX_GUARDED_BY(mu_) = false;
};

Server::Server(Database* db, ServerOptions options)
    : db_(db), sdb_(nullptr), options_(std::move(options)) {}

Server::Server(ShardedDatabase* sdb, ServerOptions options)
    : db_(nullptr), sdb_(sdb), options_(std::move(options)) {}

Server::~Server() {
  if (started_.load()) {
    // Failure here is already recorded in loop_status_ and reported by
    // any explicit WaitDrained caller; the destructor just has to join.
    (void)Stop();
  }
}

Status Server::Start() {
  FIX_CHECK(!started_.load());

  FIX_ASSIGN_OR_RETURN(listener_,
                       net::ListenTcp(options_.host, options_.port, 128));
  FIX_RETURN_IF_ERROR(net::SetNonBlocking(listener_.get(), true));
  FIX_ASSIGN_OR_RETURN(port_, net::LocalPort(listener_));

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return Status::IOError("fixd: pipe failed");
  wake_read_ = net::Fd(pipe_fds[0]);
  wake_write_ = net::Fd(pipe_fds[1]);
  FIX_RETURN_IF_ERROR(net::SetNonBlocking(wake_read_.get(), true));
  FIX_RETURN_IF_ERROR(net::SetNonBlocking(wake_write_.get(), true));

  poller_ = Poller::Create(options_.force_poll);
  FIX_RETURN_IF_ERROR(poller_->Add(listener_.get(), true, false));
  FIX_RETURN_IF_ERROR(poller_->Add(wake_read_.get(), true, false));

  pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(std::max(1, options_.workers)));
  started_.store(true);
  loop_ = std::thread([this] { LoopThread(); });
  FIX_LOG(Info) << "fixd: listening on " << options_.host << ":" << port_
                << " (" << poller_->name() << ", "
                << pool_->num_threads() << " workers, max_inflight="
                << options_.max_inflight << ")";
  return Status::OK();
}

void Server::BeginDrain() {
  draining_.store(true);
  Wake();
}

Status Server::WaitDrained() {
  FIX_CHECK(started_.load());
  {
    MutexLock lock(state_mu_);
    while (!loop_exited_) state_cv_.Wait(state_mu_);
  }
  if (loop_.joinable()) loop_.join();
  // The loop queues no further work after exiting; drain the pool before
  // reporting so in-flight Execute bodies cannot touch a dead server.
  pool_.reset();
  started_.store(false);
  MutexLock lock(state_mu_);
  return loop_status_;
}

Status Server::ReloadIndex() {
  if (options_.index.empty()) {
    return Status::NotSupported("fixd: no serving index configured");
  }
  MutexLock writer(writer_mu_);
  if (sdb_ != nullptr) {
    FIX_RETURN_IF_ERROR(sdb_->RebuildIndexes(options_.index));
  } else {
    auto rebuilt = db_->RebuildIndex(options_.index, options_.index_options);
    if (!rebuilt.ok()) return rebuilt.status();
  }
  FIX_LOG(Info) << "fixd: index '" << options_.index << "' reloaded";
  return Status::OK();
}

void Server::Wake() {
  char byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  ssize_t n = ::write(wake_write_.get(), &byte, 1);
  (void)n;
}

void Server::LoopThread() {
  Status status = LoopBody();
  if (!status.ok()) {
    FIX_LOG(Error) << "fixd: event loop failed: " << status;
  }
  MutexLock lock(state_mu_);
  loop_status_ = std::move(status);
  loop_exited_ = true;
  state_cv_.NotifyAll();
}

Status Server::LoopBody() {
  std::vector<PollEvent> events;
  bool listener_open = true;
  int64_t drain_started_ms = 0;
  bool drain_forced = false;

  for (;;) {
    const bool draining = draining_.load();
    const int64_t now_ms = NowMs();

    if (draining && listener_open) {
      FIX_RETURN_IF_ERROR(poller_->Remove(listener_.get()));
      listener_.Close();
      listener_open = false;
      drain_started_ms = now_ms;
      FIX_LOG(Info) << "fixd: draining (" << conns_.size()
                    << " connections, " << inflight() << " in flight)";
    }

    // Refresh every connection's interest set, reap timeouts, and apply
    // deferred closes. Interest: read only while no request is in flight
    // (single outstanding request per connection — TCP backpressure does
    // the queueing); write while output is pending.
    std::vector<int> to_close;
    for (auto& [fd, conn] : conns_) {
      bool response_ready;
      {
        MutexLock lock(conn->mu_);
        response_ready = conn->response_ready;
        conn->response_ready = false;
      }
      if (response_ready && conn->busy) {
        conn->busy = false;
        conn->last_active_ms = now_ms;
        // A pipelining client's next frame may already be buffered; no
        // socket event will re-announce it, so dispatch it here.
        if (!conn->http_mode) ProcessFrames(conn);
      }
      bool has_out;
      {
        MutexLock lock(conn->mu_);
        has_out = !conn->out.empty();
      }
      if (!has_out) {
        if (conn->close_after_flush || (draining && !conn->busy)) {
          to_close.push_back(fd);
          continue;
        }
      } else if (conn->last_flush_ms == 0) {
        conn->last_flush_ms = now_ms;
      }
      if (options_.read_timeout_ms > 0 && !conn->busy && !has_out &&
          now_ms - conn->last_active_ms > options_.read_timeout_ms) {
        FIX_LOG(Warning) << "fixd: closing idle connection (fd " << fd
                         << ")";
        to_close.push_back(fd);
        continue;
      }
      if (options_.write_timeout_ms > 0 && has_out &&
          now_ms - conn->last_flush_ms > options_.write_timeout_ms) {
        FIX_LOG(Warning) << "fixd: closing stalled connection (fd " << fd
                         << ")";
        to_close.push_back(fd);
        continue;
      }
      const bool want_read = !conn->busy && !conn->close_after_flush &&
                             !draining;
      FIX_RETURN_IF_ERROR(poller_->Update(fd, want_read, has_out));
    }
    for (int fd : to_close) CloseConn(fd);

    if (draining) {
      if (conns_.empty() && inflight() == 0) break;
      if (options_.drain_timeout_ms > 0 &&
          now_ms - drain_started_ms > options_.drain_timeout_ms) {
        FIX_LOG(Warning) << "fixd: drain deadline exceeded; force-closing "
                         << conns_.size() << " connections";
        std::vector<int> all;
        for (auto& [fd, conn] : conns_) all.push_back(fd);
        for (int fd : all) CloseConn(fd);
        drain_forced = true;
        // In-flight work may still hold connection references; the pool
        // join in WaitDrained reaps it.
        break;
      }
    }

    FIX_RETURN_IF_ERROR(poller_->Wait(kLoopTickMs, &events));

    for (const PollEvent& ev : events) {
      if (ev.fd == wake_read_.get()) {
        char buf[256];
        while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (listener_open && ev.fd == listener_.get()) {
        AcceptAll();
        continue;
      }
      auto it = conns_.find(ev.fd);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      std::shared_ptr<Conn> conn = it->second;
      if (ev.error) {
        CloseConn(ev.fd);
        continue;
      }
      if (ev.writable) OnWritable(conn);
      if (ev.readable) OnReadable(conn);
    }
  }

  if (drain_forced) {
    return Status::Internal("fixd: drain deadline forced connections closed");
  }
  return Status::OK();
}

void Server::AcceptAll() {
  for (;;) {
    int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / EINTR / transient — next readiness
    net::Fd sock(fd);
    if (!net::SetNonBlocking(fd, true).ok()) continue;  // closes sock
    auto conn = std::make_shared<Conn>(std::move(sock));
    conn->last_active_ms = NowMs();
    if (!poller_->Add(fd, true, false).ok()) continue;
    conns_.emplace(fd, std::move(conn));
    ConnectionsOpen().Add(1);
    ConnectionsTotal().Increment();
  }
}

void Server::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // Remove may fail benignly if the kernel already dropped the fd on
  // hangup; the erase below closes it either way.
  (void)poller_->Remove(fd);
  conns_.erase(it);
  ConnectionsOpen().Add(-1);
}

void Server::OnReadable(const std::shared_ptr<Conn>& conn) {
  char buf[kReadChunk];
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      CloseConn(conn->fd);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConn(conn->fd);
      return;
    }
    conn->last_active_ms = NowMs();
    std::string_view bytes(buf, static_cast<size_t>(n));

    if (!conn->sniffed) {
      conn->http_in.append(bytes);
      if (conn->http_in.size() < 4) continue;
      conn->sniffed = true;
      conn->http_mode = http::LooksLikeHttp(conn->http_in);
      if (!conn->http_mode) {
        conn->reader.Feed(conn->http_in);
        conn->http_in.clear();
      }
      bytes = {};
    }

    if (conn->http_mode) {
      conn->http_in.append(bytes);
      if (conn->http_in.size() > http::kMaxRequestBytes) {
        {
          MutexLock lock(conn->mu_);
          conn->out += http::MakeResponse(
              431, "Request Header Fields Too Large", "text/plain",
              "request too large\n");
        }
        conn->close_after_flush = true;
        return;
      }
      if (http::HasFullRequest(conn->http_in)) {
        ServeHttp(conn, conn->http_in);
        conn->http_in.clear();
        return;
      }
      continue;
    }

    conn->reader.Feed(bytes);
    ProcessFrames(conn);
  }
}

void Server::ProcessFrames(const std::shared_ptr<Conn>& conn) {
  while (!conn->busy && !conn->close_after_flush) {
    wire::Frame frame;
    std::string error;
    auto outcome = conn->reader.Next(&frame, &error);
    if (outcome == wire::FrameReader::Outcome::kNeedMore) break;
    if (outcome == wire::FrameReader::Outcome::kBad) {
      // The stream has lost sync: answer with a typed BadFrame (best
      // effort) and close once it flushes.
      std::string payload;
      wire::EncodeErrorResponse(wire::Code::kBadFrame, error, &payload);
      std::string framed;
      wire::AppendFrame(wire::kResponseBit, payload, &framed);
      MutexLock lock(conn->mu_);
      conn->out += framed;
      conn->close_after_flush = true;
      break;
    }
    Dispatch(conn, frame.type, std::move(frame.payload));
  }
}

void Server::OnWritable(const std::shared_ptr<Conn>& conn) {
  std::string pending;
  {
    MutexLock lock(conn->mu_);
    pending.swap(conn->out);
  }
  size_t off = 0;
  while (off < pending.size()) {
    ssize_t n = ::send(conn->fd, pending.data() + off, pending.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      conn->last_flush_ms = NowMs();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn->fd);
    return;
  }
  bool empty;
  {
    MutexLock lock(conn->mu_);
    // Workers may have appended while we were sending; keep order.
    conn->out.insert(0, pending, off, pending.size() - off);
    empty = conn->out.empty();
  }
  if (empty) {
    conn->last_flush_ms = 0;
    if (conn->close_after_flush) CloseConn(conn->fd);
  }
}

void Server::ServeHttp(const std::shared_ptr<Conn>& conn,
                       const std::string& head) {
  HttpRequests().Increment();
  http::Request request;
  std::string response;
  Status parsed = http::ParseRequest(head, &request);
  if (!parsed.ok()) {
    response = http::MakeResponse(400, "Bad Request", "text/plain",
                                  parsed.message() + "\n");
  } else if (request.method != "GET" && request.method != "HEAD") {
    response = http::MakeResponse(405, "Method Not Allowed", "text/plain",
                                  "only GET is served here\n");
  } else if (request.target == "/stats" || request.target == "/metrics") {
    response = http::MakeResponse(
        200, "OK", "text/plain; version=0.0.4",
        MetricsRegistry::Instance().PrometheusText());
  } else if (request.target == "/healthz") {
    if (draining_.load()) {
      response =
          http::MakeResponse(503, "Service Unavailable", "text/plain",
                             "draining\n");
    } else {
      response = http::MakeResponse(200, "OK", "text/plain", "ok\n");
    }
  } else {
    response = http::MakeResponse(404, "Not Found", "text/plain",
                                  "try /stats or /healthz\n");
  }
  {
    MutexLock lock(conn->mu_);
    conn->out += response;
  }
  conn->close_after_flush = true;
}

void Server::Dispatch(const std::shared_ptr<Conn>& conn, uint8_t type,
                      std::string payload) {
  const uint8_t response_type = type | wire::kResponseBit;
  auto reject = [&](wire::Code code, const std::string& message) {
    std::string body;
    wire::EncodeErrorResponse(code, message, &body);
    QueueResponse(conn, response_type, body, false);
  };

  if ((type & wire::kResponseBit) != 0 || !wire::IsKnownOp(type)) {
    reject(wire::Code::kBadRequest,
           "unknown opcode " + std::to_string(type));
    return;
  }
  if (draining_.load()) {
    reject(wire::Code::kShuttingDown, "server is draining");
    return;
  }
  // Admission control: a bounded in-flight population. Shedding answers
  // immediately — the client gets a typed retryable error instead of an
  // unbounded queue or a dropped connection.
  int inflight = inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (inflight >= options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    RequestsShed().Increment();
    reject(wire::Code::kOverloaded,
           "in flight limit (" + std::to_string(options_.max_inflight) +
               ") reached; retry with backoff");
    return;
  }
  QueueDepth().Set(inflight + 1);
  RequestsTotal().Increment();
  RequestsByOp(type).Increment();
  conn->busy = true;
  conn->request_start_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  pool_->Submit([this, conn, type, payload = std::move(payload)] {
    Execute(conn, type, payload);
  });
}

void Server::Execute(const std::shared_ptr<Conn>& conn, uint8_t type,
                     const std::string& payload) {
  if (options_.dispatch_hook_for_test) options_.dispatch_hook_for_test(type);

  TraceSpan span("server.request");
  span.AddAttr("op", static_cast<uint64_t>(type));

  std::string body;
  const auto op = static_cast<wire::Op>(type);
  switch (op) {
    case wire::Op::kPing: {
      body.push_back(static_cast<char>(wire::Code::kOk));
      break;
    }
    case wire::Op::kQuery: {
      wire::QueryRequest req;
      Status parsed = DecodeQueryRequest(payload, &req);
      if (!parsed.ok()) {
        wire::EncodeErrorResponse(wire::Code::kBadRequest, parsed.message(),
                                  &body);
        break;
      }
      std::vector<NodeRef> results;
      ExecStats stats;
      Status run;
      {
        ReaderMutexLock gate(gate_);
        auto r = sdb_ != nullptr
                     ? sdb_->Query(req.index, req.xpath, &results)
                     : db_->Query(req.index, req.xpath, &results);
        run = r.ok() ? Status::OK() : r.status();
        if (r.ok()) stats = r.value();
      }
      if (!run.ok()) {
        wire::EncodeErrorResponse(wire::CodeFromStatus(run), run.message(),
                                  &body);
        break;
      }
      wire::QueryOutcome out;
      out.used_index = stats.used_index;
      out.degraded = stats.degraded;
      out.candidates = stats.candidates;
      out.result_count = stats.result_count;
      out.results.reserve(results.size());
      for (const NodeRef& r : results) {
        out.results.push_back(wire::WireNodeRef{r.doc_id, r.node_id});
      }
      span.AddAttr("results", static_cast<uint64_t>(out.results.size()));
      wire::EncodeQueryResponse(out, &body);
      break;
    }
    case wire::Op::kQueryBatch: {
      wire::QueryBatchRequest req;
      Status parsed = DecodeQueryBatchRequest(payload, &req);
      if (!parsed.ok()) {
        wire::EncodeErrorResponse(wire::Code::kBadRequest, parsed.message(),
                                  &body);
        break;
      }
      // The client's thread request is advisory; clamp so one request
      // cannot commandeer the host. ExecuteMany(threads=1) runs inline on
      // this worker with no internal pool.
      const int threads =
          std::clamp(static_cast<int>(req.threads), 1, 8);
      Result<std::vector<Database::BatchQueryOutcome>> batch =
          Status::Internal("unreached");
      {
        ReaderMutexLock gate(gate_);
        // The sharded path parallelizes per scatter leg through its own
        // pool; the advisory thread count only shapes the unsharded path.
        batch = sdb_ != nullptr
                    ? sdb_->ExecuteMany(req.index, req.xpaths)
                    : db_->ExecuteMany(req.index, req.xpaths, threads);
      }
      if (!batch.ok()) {
        wire::EncodeErrorResponse(wire::CodeFromStatus(batch.status()),
                                  batch.status().message(), &body);
        break;
      }
      std::vector<wire::QueryOutcome> outs;
      outs.reserve(batch.value().size());
      for (const Database::BatchQueryOutcome& b : batch.value()) {
        wire::QueryOutcome out;
        if (!b.status.ok()) {
          out.code = wire::CodeFromStatus(b.status);
          out.error = b.status.message();
        } else {
          out.used_index = b.stats.used_index;
          out.degraded = b.stats.degraded;
          out.candidates = b.stats.candidates;
          out.result_count = b.stats.result_count;
          out.results.reserve(b.results.size());
          for (const NodeRef& r : b.results) {
            out.results.push_back(wire::WireNodeRef{r.doc_id, r.node_id});
          }
        }
        outs.push_back(std::move(out));
      }
      span.AddAttr("queries", static_cast<uint64_t>(outs.size()));
      wire::EncodeQueryBatchResponse(outs, &body);
      break;
    }
    case wire::Op::kInsert: {
      wire::InsertRequest req;
      Status parsed = DecodeInsertRequest(payload, &req);
      if (!parsed.ok()) {
        wire::EncodeErrorResponse(wire::Code::kBadRequest, parsed.message(),
                                  &body);
        break;
      }
      wire::InsertResponse resp;
      Status run = Status::OK();
      if (sdb_ != nullptr) {
        // Sharded path: route + commit inside ShardedDatabase, which
        // gates only the target shard's readers — the server-wide gate_
        // stays untouched so queries on other shards never pause.
        MutexLock writer(writer_mu_);
        auto id = sdb_->InsertXml(req.index, req.xml);
        if (!id.ok()) {
          run = id.status();
        } else {
          resp.doc_id = id.value();
          // The wire generation is the target shard's index generation
          // after the commit, as on the unsharded path. writer_mu_ keeps
          // the layout (and so the routing) fixed since the insert.
          const uint32_t shard =
              ShardedDatabase::RouteDoc(resp.doc_id, sdb_->shard_count());
          FixIndex* index = req.index.empty()
                                ? nullptr
                                : sdb_->shard_db(shard)->index(req.index);
          if (index != nullptr) resp.generation = index->generation();
        }
      } else {
        // One mutator at a time; the corpus mutation + save excludes
        // readers (gate_ exclusive), the index commit below does not.
        MutexLock writer(writer_mu_);
        {
          WriterMutexLock gate(gate_);
          auto id = db_->AddXml(req.xml);
          if (!id.ok()) {
            run = id.status();
          } else {
            resp.doc_id = id.value();
            // Persist the corpus before the index commits: a crash
            // between the two leaves the index stale (quarantined and
            // rebuilt on next open), never ahead of its documents.
            run = db_->Save();
          }
        }
        if (run.ok() && !req.index.empty()) {
          FixIndex* index = db_->index(req.index);
          if (index == nullptr) {
            run = Status::NotFound("unknown or degraded index '" +
                                   req.index + "'");
          } else {
            run = index->InsertDocument(resp.doc_id);
            if (run.ok()) resp.generation = index->generation();
          }
        }
      }
      if (!run.ok()) {
        wire::EncodeErrorResponse(wire::CodeFromStatus(run), run.message(),
                                  &body);
        break;
      }
      span.AddAttr("doc_id", static_cast<uint64_t>(resp.doc_id));
      wire::EncodeInsertResponse(resp, &body);
      break;
    }
    case wire::Op::kStats: {
      wire::StatsResponse resp;
      resp.prometheus_text = MetricsRegistry::Instance().PrometheusText();
      wire::EncodeStatsResponse(resp, &body);
      break;
    }
  }

  const int64_t now_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  RequestLatency().Record(
      static_cast<uint64_t>(now_us - conn->request_start_us));
  span.AddAttr("code",
               std::string_view(wire::CodeName(static_cast<wire::Code>(
                   body.empty() ? 0 : static_cast<uint8_t>(body[0])))));
  QueueResponse(conn, type | wire::kResponseBit, body,
                /*completes_request=*/true);
}

void Server::QueueResponse(const std::shared_ptr<Conn>& conn, uint8_t type,
                           std::string_view payload, bool completes_request) {
  if (type != 0) {
    std::string framed;
    framed.reserve(wire::kHeaderSize + payload.size());
    wire::AppendFrame(type, payload, &framed);
    MutexLock lock(conn->mu_);
    conn->out += framed;
    conn->response_ready = true;
  }
  if (completes_request) {
    int remaining = inflight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
    QueueDepth().Set(remaining);
  }
  Wake();
}

}  // namespace server
}  // namespace fix
