#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "server/batcher.h"
#include "server/http.h"
#include "server/wire.h"

namespace gbkmv {
namespace server {

namespace {

// HTTP-plane metrics; the batching/admission families live in batcher.cc.
struct ServerMetrics {
  obs::Counter* requests = nullptr;
  obs::Counter* queries = nullptr;
  obs::Counter* http_errors = nullptr;
  obs::Counter* connections_total = nullptr;
  obs::Counter* reloads = nullptr;
  obs::Gauge* connections = nullptr;
  obs::Gauge* epoch = nullptr;
  obs::Histogram* request_latency_ns = nullptr;
};

const ServerMetrics& Metrics() {
  static const ServerMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::GlobalMetrics();
    ServerMetrics m;
    m.requests = registry.GetCounter("gbkmv_server_requests_total");
    m.queries = registry.GetCounter("gbkmv_server_queries_total");
    m.http_errors = registry.GetCounter("gbkmv_server_http_errors_total");
    m.connections_total =
        registry.GetCounter("gbkmv_server_connections_total");
    m.reloads = registry.GetCounter("gbkmv_server_reloads_total");
    m.connections = registry.GetGauge("gbkmv_server_connections");
    m.epoch = registry.GetGauge("gbkmv_server_epoch");
    m.request_latency_ns =
        registry.GetHistogram("gbkmv_server_request_latency_ns");
    return m;
  }();
  return metrics;
}

// epoll_event.data.u64 tags; connection ids start above the reserved ones.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kFirstConnId = 2;

// One error taxonomy for the mutation endpoints (serve/mutation.h):
// the service's Status code decides the HTTP status.
int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kFailedPrecondition:
      return 409;
    default:
      return 500;
  }
}

}  // namespace

class Server::Impl {
 public:
  Impl(std::shared_ptr<serve::ShardedContainmentService> service,
       const ServerOptions& options)
      : options_(options), state_{std::move(service), 1} {}

  ~Impl() {
    Shutdown();
    if (admin_thread_.joinable()) admin_thread_.join();
    for (Reactor& reactor : reactors_) {
      for (auto& [id, conn] : reactor.conns) ::close(conn->fd);
      reactor.conns.clear();
      if (reactor.epoll_fd >= 0) ::close(reactor.epoll_fd);
      if (reactor.event_fd >= 0) ::close(reactor.event_fd);
    }
    const int listen_fd = listen_fd_.load(std::memory_order_relaxed);
    if (listen_fd >= 0) ::close(listen_fd);
  }

  Status Init() {
    const int listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) {
      return Status::IOError(std::string("socket: ") +
                             std::strerror(errno));
    }
    listen_fd_.store(listen_fd, std::memory_order_relaxed);
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (inet_pton(AF_INET, options_.bind_address.c_str(),
                  &addr.sin_addr) != 1) {
      return Status::InvalidArgument("cannot parse bind address: " +
                                     options_.bind_address);
    }
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Status::IOError("bind " + options_.bind_address + ":" +
                             std::to_string(options_.port) + ": " +
                             std::strerror(errno));
    }
    if (::listen(listen_fd, 256) != 0) {
      return Status::IOError(std::string("listen: ") +
                             std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);

    BatcherOptions batcher_options;
    batcher_options.max_batch = options_.max_batch;
    batcher_options.max_window_us = options_.max_batch_window_us;
    batcher_options.num_workers = options_.batch_workers;
    batcher_options.max_queue_depth = options_.max_queue_depth;
    batcher_options.max_inflight = options_.max_inflight;
    batcher_ = std::make_unique<MicroBatcher>(
        MakeServiceExecutor([this] { return Snapshot(); },
                            options_.batch_threads),
        batcher_options);

    const size_t reactors = std::max<size_t>(1, options_.num_reactors);
    reactors_ = std::vector<Reactor>(reactors);
    for (size_t i = 0; i < reactors; ++i) {
      Reactor& reactor = reactors_[i];
      reactor.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      reactor.event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (reactor.epoll_fd < 0 || reactor.event_fd < 0) {
        return Status::IOError("epoll/eventfd setup failed");
      }
      epoll_event wake{};
      wake.events = EPOLLIN;
      wake.data.u64 = kWakeTag;
      ::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_ADD, reactor.event_fd,
                  &wake);
      // EPOLLEXCLUSIVE: one reactor wakes per accept burst instead of a
      // thundering herd across every epoll set sharing the listen fd.
      epoll_event accept_ev{};
      accept_ev.events = EPOLLIN | EPOLLEXCLUSIVE;
      accept_ev.data.u64 = kListenTag;
      if (::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_ADD, listen_fd,
                      &accept_ev) != 0) {
        return Status::IOError(std::string("epoll_ctl(listen): ") +
                               std::strerror(errno));
      }
    }
    if (obs::GlobalMetrics().enabled()) Metrics().epoch->Set(1);
    for (size_t i = 0; i < reactors; ++i) {
      reactors_[i].thread =
          std::thread([this, i] { ReactorLoop(reactors_[i]); });
    }
    return Status::OK();
  }

  uint16_t port() const { return port_; }

  uint64_t epoch() const {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return state_.epoch;
  }

  ServiceSnapshot Snapshot() const {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return state_;
  }

  Result<uint64_t> Reload(const std::string& dir) {
    // Serialized: concurrent reloads would race the epoch hand-off and a
    // half-written snapshot directory is load-rejected anyway.
    std::lock_guard<std::mutex> reload_lock(reload_mutex_);
    Result<std::unique_ptr<serve::ShardedContainmentService>> loaded =
        serve::ShardedContainmentService::Load(dir);
    if (!loaded.ok()) return loaded.status();
    std::shared_ptr<serve::ShardedContainmentService> fresh(
        std::move(loaded.value()));
    uint64_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      state_.service = std::move(fresh);
      epoch = ++state_.epoch;
    }
    stats_reloads_.fetch_add(1, std::memory_order_relaxed);
    if (obs::GlobalMetrics().enabled()) {
      Metrics().reloads->Add(1);
      Metrics().epoch->Set(static_cast<int64_t>(epoch));
    }
    return epoch;
  }

  void Shutdown() {
    bool expected = false;
    if (!shutdown_started_.compare_exchange_strong(expected, true)) {
      // A second caller still waits until the first finished draining.
      shutdown_done_.wait(false);
      return;
    }
    draining_.store(true, std::memory_order_release);
    // Stop accepting: closing the fd removes it from every epoll set.
    const int listen_fd = listen_fd_.exchange(-1);
    if (listen_fd >= 0) ::close(listen_fd);
    // Finish every admitted query; completions are posted to reactors,
    // which are still running and flushing responses.
    if (batcher_ != nullptr) batcher_->Drain();
    WaitResponsesFlushed(std::chrono::seconds(2));
    for (Reactor& reactor : reactors_) {
      reactor.stop.store(true, std::memory_order_release);
      WakeReactor(reactor);
    }
    for (Reactor& reactor : reactors_) {
      if (reactor.thread.joinable()) reactor.thread.join();
    }
    shutdown_done_.store(true, std::memory_order_release);
    shutdown_done_.notify_all();
  }

  Stats stats() const {
    Stats s;
    s.connections_accepted =
        stats_connections_.load(std::memory_order_relaxed);
    s.requests = stats_requests_.load(std::memory_order_relaxed);
    s.queries_served = stats_queries_.load(std::memory_order_relaxed);
    s.shed = stats_shed_.load(std::memory_order_relaxed);
    s.http_errors = stats_http_errors_.load(std::memory_order_relaxed);
    s.reloads = stats_reloads_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    HttpParser parser;
    std::string out;  // bytes queued for the socket, in response order
    // Pipelined responses complete out of order; slots keep wire order.
    struct Slot {
      uint64_t seq = 0;
      bool ready = false;
      bool close_after = false;
      std::string payload;
    };
    std::deque<Slot> slots;
    uint64_t next_seq = 0;
    bool want_close = false;    // close once slots + out are flushed
    bool wants_epollout = false;

    explicit Connection(int fd_in, uint64_t id_in,
                        const HttpLimits& limits)
        : fd(fd_in), id(id_in), parser(limits) {}
  };

  struct Reactor {
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;
    std::atomic<bool> stop{false};
    std::mutex task_mutex;
    std::vector<std::function<void()>> tasks;
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
  };

  void WakeReactor(Reactor& reactor) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(reactor.event_fd, &one, sizeof(one));
  }

  // Runs `task` on the reactor's thread (its next wakeup). Safe from any
  // thread; tasks reference connections by id, never by pointer.
  void Post(size_t reactor_index, std::function<void()> task) {
    Reactor& reactor = reactors_[reactor_index];
    {
      std::lock_guard<std::mutex> lock(reactor.task_mutex);
      reactor.tasks.push_back(std::move(task));
    }
    WakeReactor(reactor);
  }

  void ReactorLoop(Reactor& reactor) {
    epoll_event events[64];
    while (!reactor.stop.load(std::memory_order_acquire)) {
      const int n = ::epoll_wait(reactor.epoll_fd, events, 64, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;
      }
      for (int i = 0; i < n; ++i) {
        const uint64_t tag = events[i].data.u64;
        if (tag == kListenTag) {
          AcceptReady(reactor);
        } else if (tag == kWakeTag) {
          uint64_t drained = 0;
          [[maybe_unused]] ssize_t r =
              ::read(reactor.event_fd, &drained, sizeof(drained));
          RunTasks(reactor);
        } else {
          auto it = reactor.conns.find(tag);
          if (it == reactor.conns.end()) continue;
          Connection* conn = it->second.get();
          if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
              (events[i].events & EPOLLIN) == 0) {
            CloseConnection(reactor, *conn);
            continue;
          }
          if ((events[i].events & EPOLLIN) != 0) {
            if (!HandleReadable(reactor, *conn)) continue;  // closed
          }
          if ((events[i].events & EPOLLOUT) != 0) {
            TryWrite(reactor, *conn);
          }
        }
      }
    }
    RunTasks(reactor);  // drop straggler completions cleanly
  }

  void RunTasks(Reactor& reactor) {
    std::vector<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(reactor.task_mutex);
      tasks.swap(reactor.tasks);
    }
    for (std::function<void()>& task : tasks) task();
  }

  void AcceptReady(Reactor& reactor) {
    for (;;) {
      const int listen_fd = listen_fd_.load(std::memory_order_relaxed);
      if (listen_fd < 0) return;  // shutdown retired it
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN, or listen fd closed for shutdown
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      const uint64_t id =
          next_conn_id_.fetch_add(1, std::memory_order_relaxed);
      HttpLimits limits;
      limits.max_body_bytes = options_.max_body_bytes;
      auto conn = std::make_unique<Connection>(fd, id, limits);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = id;
      if (::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      reactor.conns.emplace(id, std::move(conn));
      stats_connections_.fetch_add(1, std::memory_order_relaxed);
      if (obs::GlobalMetrics().enabled()) {
        Metrics().connections_total->Add(1);
        Metrics().connections->Add(1);
      }
    }
  }

  void CloseConnection(Reactor& reactor, Connection& conn) {
    ::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    if (obs::GlobalMetrics().enabled()) Metrics().connections->Add(-1);
    reactor.conns.erase(conn.id);  // destroys conn
  }

  // Returns false when the connection was closed.
  bool HandleReadable(Reactor& reactor, Connection& conn) {
    const uint64_t conn_id = conn.id;  // outlives conn if a handler closes
    char buf[16384];
    bool peer_closed = false;
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
        continue;
      }
      if (n == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(reactor, conn);
      return false;
    }
    if (!conn.want_close) {
      HttpRequest request;
      for (;;) {
        const uint64_t parse_start_ns = MonotonicNanos();
        const HttpParser::Outcome outcome = conn.parser.Next(&request);
        if (outcome == HttpParser::Outcome::kNeedMore) break;
        if (outcome == HttpParser::Outcome::kError) {
          stats_http_errors_.fetch_add(1, std::memory_order_relaxed);
          if (obs::GlobalMetrics().enabled()) {
            Metrics().http_errors->Add(1);
          }
          const uint64_t seq = conn.next_seq++;
          conn.slots.push_back({seq, false, true, {}});
          HttpResponseOptions http;
          http.keep_alive = false;
          FillSlot(reactor, conn, seq,
                   BuildHttpResponse(
                       conn.parser.error_http_status(),
                       SerializeError(conn.parser.error_message()), http),
                   true);
          conn.want_close = true;
          break;
        }
        stats_requests_.fetch_add(1, std::memory_order_relaxed);
        if (obs::GlobalMetrics().enabled()) Metrics().requests->Add(1);
        HandleRequest(reactor, conn, std::move(request), parse_start_ns);
        if (reactor.conns.find(conn_id) == reactor.conns.end()) {
          return false;  // handler closed the connection
        }
      }
    }
    if (peer_closed) {
      // Half-close: finish writing pending responses, then close.
      if (conn.slots.empty() && conn.out.empty()) {
        CloseConnection(reactor, conn);
        return false;
      }
      conn.want_close = true;
    }
    return reactor.conns.find(conn_id) != reactor.conns.end();
  }

  void RespondNow(Reactor& reactor, Connection& conn, int status,
                  std::string_view body,
                  const HttpResponseOptions& http) {
    const uint64_t seq = conn.next_seq++;
    conn.slots.push_back({seq, false, !http.keep_alive, {}});
    if (status >= 400 && status != 429) {
      stats_http_errors_.fetch_add(1, std::memory_order_relaxed);
      if (obs::GlobalMetrics().enabled()) Metrics().http_errors->Add(1);
    }
    FillSlot(reactor, conn, seq, BuildHttpResponse(status, body, http),
             !http.keep_alive);
  }

  void HandleRequest(Reactor& reactor, Connection& conn,
                     HttpRequest request, uint64_t parse_start_ns) {
    const size_t reactor_index = ReactorIndex(reactor);
    HttpResponseOptions http;
    http.keep_alive = request.keep_alive;
    const bool draining = draining_.load(std::memory_order_acquire);

    if (request.target == "/healthz") {
      if (request.method != "GET") {
        RespondNow(reactor, conn, 405, SerializeError("use GET"), http);
        return;
      }
      http.content_type = "text/plain";
      if (draining) {
        RespondNow(reactor, conn, 503, "draining\n", http);
      } else {
        RespondNow(reactor, conn, 200, "ok\n", http);
      }
      return;
    }

    if (request.target == "/metricsz") {
      if (request.method != "GET") {
        RespondNow(reactor, conn, 405, SerializeError("use GET"), http);
        return;
      }
      obs::MetricsRegistry& registry = obs::GlobalMetrics();
      obs::UpdateProcessGauges(registry);
      http.content_type = "text/plain; version=0.0.4";
      RespondNow(reactor, conn, 200,
                 obs::SnapshotToPrometheus(registry.Snapshot()), http);
      return;
    }

    if (request.target == "/v1/query") {
      if (request.method != "POST") {
        RespondNow(reactor, conn, 405, SerializeError("use POST"), http);
        return;
      }
      if (draining) {
        RespondNow(reactor, conn, 503, SerializeError("draining"), http);
        return;
      }
      Result<QueryBody> body = ParseQueryBody(request.body);
      if (!body.ok()) {
        RespondNow(reactor, conn, 400,
                   SerializeError(body.status().message()), http);
        return;
      }
      const uint64_t seq = conn.next_seq++;
      conn.slots.push_back({seq, false, false, {}});
      PendingQuery query;
      query.record = std::move(body.value().elements);
      query.threshold = body.value().has_threshold
                            ? body.value().threshold
                            : options_.default_threshold;
      query.top_k = body.value().top_k;
      query.want_scores = body.value().want_scores;
      query.want_stats = body.value().want_stats;
      query.parse_start_ns = parse_start_ns;
      query.parse_end_ns = MonotonicNanos();
      const uint64_t conn_id = conn.id;
      const bool keep_alive = request.keep_alive;
      const bool want_scores = query.want_scores;
      const bool want_stats = query.want_stats;
      query.done = [this, reactor_index, conn_id, seq, keep_alive,
                    want_scores, want_stats,
                    parse_start_ns](QueryResponse response,
                                    uint64_t epoch) {
        // Batch-worker thread: serialize here, off the reactor.
        HttpResponseOptions done_http;
        done_http.keep_alive = keep_alive;
        std::string payload = BuildHttpResponse(
            200,
            SerializeQueryResponse(response, epoch, want_scores,
                                   want_stats),
            done_http);
        stats_queries_.fetch_add(1, std::memory_order_relaxed);
        if (obs::GlobalMetrics().enabled()) {
          Metrics().queries->Add(1);
          Metrics().request_latency_ns->Record(MonotonicNanos() -
                                               parse_start_ns);
        }
        Post(reactor_index,
             [this, reactor_index, conn_id, seq,
              payload = std::move(payload), keep_alive]() mutable {
               Reactor& r = reactors_[reactor_index];
               auto it = r.conns.find(conn_id);
               if (it == r.conns.end()) return;  // connection died
               FillSlot(r, *it->second, seq, std::move(payload),
                        !keep_alive);
             });
      };
      if (!batcher_->Submit(std::move(query))) {
        stats_shed_.fetch_add(1, std::memory_order_relaxed);
        http.extra_headers.push_back(
            {"Retry-After", retry_after_value_});
        FillSlot(reactor, conn, seq,
                 BuildHttpResponse(429, SerializeError("overloaded"),
                                   http),
                 !request.keep_alive);
      }
      return;
    }

    if (request.target == "/v1/ingest") {
      if (request.method != "POST") {
        RespondNow(reactor, conn, 405, SerializeError("use POST"), http);
        return;
      }
      if (draining) {
        RespondNow(reactor, conn, 503, SerializeError("draining"), http);
        return;
      }
      Result<IngestBody> body = ParseIngestBody(request.body);
      if (!body.ok()) {
        RespondNow(reactor, conn, 400,
                   SerializeError(body.status().message()), http);
        return;
      }
      // Inline on the reactor: an ingest sketches one row and folds it into
      // the open shard, bounded by the seal size (compaction work happens
      // on the service's own background thread).
      const ServiceSnapshot snapshot = Snapshot();
      serve::MutationRequest mutation;
      mutation.kind = serve::MutationKind::kIngest;
      mutation.record = std::move(body.value().elements);
      Result<serve::MutationResult> applied =
          snapshot.service->Apply(mutation);
      if (!applied.ok()) {
        RespondNow(reactor, conn, HttpStatusFor(applied.status()),
                   SerializeError(applied.status().message()), http);
        return;
      }
      RespondNow(reactor, conn, 200,
                 SerializeIngestResult(snapshot.epoch, applied.value().id),
                 http);
      return;
    }

    if (request.target == "/v1/delete") {
      if (request.method != "POST") {
        RespondNow(reactor, conn, 405, SerializeError("use POST"), http);
        return;
      }
      if (draining) {
        RespondNow(reactor, conn, 503, SerializeError("draining"), http);
        return;
      }
      Result<DeleteBody> body = ParseDeleteBody(request.body);
      if (!body.ok()) {
        RespondNow(reactor, conn, 400,
                   SerializeError(body.status().message()), http);
        return;
      }
      // Inline on the reactor: a delete is a tombstone bit flip.
      const ServiceSnapshot snapshot = Snapshot();
      serve::MutationRequest mutation;
      mutation.kind = serve::MutationKind::kDelete;
      mutation.id = body.value().id;
      Result<serve::MutationResult> applied =
          snapshot.service->Apply(mutation);
      if (!applied.ok()) {
        RespondNow(reactor, conn, HttpStatusFor(applied.status()),
                   SerializeError(applied.status().message()), http);
        return;
      }
      RespondNow(reactor, conn, 200,
                 SerializeDeleteResult(snapshot.epoch, applied.value().id,
                                       !applied.value().noop),
                 http);
      return;
    }

    if (request.target == "/admin/promote" ||
        request.target == "/admin/compact") {
      if (request.method != "POST") {
        RespondNow(reactor, conn, 405, SerializeError("use POST"), http);
        return;
      }
      const bool is_promote = request.target == "/admin/promote";
      serve::MutationRequest mutation;
      if (is_promote) {
        mutation.kind = serve::MutationKind::kPromote;
      } else {
        Result<CompactBody> body = ParseCompactBody(request.body);
        if (!body.ok()) {
          RespondNow(reactor, conn, 400,
                     SerializeError(body.status().message()), http);
          return;
        }
        mutation.kind = serve::MutationKind::kCompact;
        mutation.compact.all = body.value().all;
      }
      if (admin_running_.exchange(true)) {
        RespondNow(reactor, conn, 409,
                   SerializeError("an admin operation is already running"),
                   http);
        return;
      }
      const uint64_t seq = conn.next_seq++;
      conn.slots.push_back({seq, false, false, {}});
      const uint64_t conn_id = conn.id;
      const bool keep_alive = request.keep_alive;
      if (admin_thread_.joinable()) admin_thread_.join();
      // Off the reactor: compaction joins in-flight background work and
      // builds the merged shard; queries keep flowing on the reactors
      // meanwhile (the service swaps under its own lock).
      admin_thread_ = std::thread([this, reactor_index, conn_id, seq,
                                   keep_alive, mutation] {
        const ServiceSnapshot snapshot = Snapshot();
        Result<serve::MutationResult> applied =
            snapshot.service->Apply(mutation);
        HttpResponseOptions done_http;
        done_http.keep_alive = keep_alive;
        std::string payload;
        if (applied.ok()) {
          const serve::MutationResult& r = applied.value();
          payload = BuildHttpResponse(
              200,
              r.kind == serve::MutationKind::kPromote
                  ? SerializePromoteResult(snapshot.epoch, !r.noop)
                  : SerializeCompactResult(snapshot.epoch, r.shards_merged,
                                           r.tombstones_purged, r.noop),
              done_http);
        } else {
          payload = BuildHttpResponse(
              HttpStatusFor(applied.status()),
              SerializeError(applied.status().message()), done_http);
          stats_http_errors_.fetch_add(1, std::memory_order_relaxed);
          if (obs::GlobalMetrics().enabled()) {
            Metrics().http_errors->Add(1);
          }
        }
        admin_running_.store(false);
        Post(reactor_index,
             [this, reactor_index, conn_id, seq,
              payload = std::move(payload), keep_alive]() mutable {
               Reactor& r = reactors_[reactor_index];
               auto it = r.conns.find(conn_id);
               if (it == r.conns.end()) return;
               FillSlot(r, *it->second, seq, std::move(payload),
                        !keep_alive);
             });
      });
      return;
    }

    if (request.target == "/admin/reload") {
      if (request.method != "POST") {
        RespondNow(reactor, conn, 405, SerializeError("use POST"), http);
        return;
      }
      Result<ReloadBody> body = ParseReloadBody(request.body);
      if (!body.ok()) {
        RespondNow(reactor, conn, 400,
                   SerializeError(body.status().message()), http);
        return;
      }
      if (admin_running_.exchange(true)) {
        RespondNow(reactor, conn, 409,
                   SerializeError("an admin operation is already running"),
                   http);
        return;
      }
      const uint64_t seq = conn.next_seq++;
      conn.slots.push_back({seq, false, false, {}});
      const uint64_t conn_id = conn.id;
      const bool keep_alive = request.keep_alive;
      if (admin_thread_.joinable()) admin_thread_.join();
      // Load runs off the reactor: a multi-GB manifest must not stall
      // the event loop that is still serving queries.
      admin_thread_ = std::thread([this, reactor_index, conn_id, seq,
                                   keep_alive,
                                   dir = std::move(body.value().dir)] {
        Result<uint64_t> swapped = Reload(dir);
        HttpResponseOptions done_http;
        done_http.keep_alive = keep_alive;
        std::string payload =
            swapped.ok()
                ? BuildHttpResponse(
                      200,
                      "{\"epoch\":" + std::to_string(swapped.value()) +
                          "}",
                      done_http)
                : BuildHttpResponse(
                      500, SerializeError(swapped.status().ToString()),
                      done_http);
        if (!swapped.ok()) {
          stats_http_errors_.fetch_add(1, std::memory_order_relaxed);
          if (obs::GlobalMetrics().enabled()) {
            Metrics().http_errors->Add(1);
          }
        }
        admin_running_.store(false);
        Post(reactor_index,
             [this, reactor_index, conn_id, seq,
              payload = std::move(payload), keep_alive]() mutable {
               Reactor& r = reactors_[reactor_index];
               auto it = r.conns.find(conn_id);
               if (it == r.conns.end()) return;
               FillSlot(r, *it->second, seq, std::move(payload),
                        !keep_alive);
             });
      });
      return;
    }

    RespondNow(reactor, conn, 404, SerializeError("unknown endpoint"),
               http);
  }

  void FillSlot(Reactor& reactor, Connection& conn, uint64_t seq,
                std::string payload, bool close_after) {
    for (Connection::Slot& slot : conn.slots) {
      if (slot.seq == seq) {
        slot.ready = true;
        slot.close_after = close_after;
        slot.payload = std::move(payload);
        break;
      }
    }
    // Flush the ready prefix in sequence order.
    while (!conn.slots.empty() && conn.slots.front().ready) {
      conn.out += conn.slots.front().payload;
      if (conn.slots.front().close_after) conn.want_close = true;
      conn.slots.pop_front();
    }
    TryWrite(reactor, conn);
  }

  void TryWrite(Reactor& reactor, Connection& conn) {
    while (!conn.out.empty()) {
      const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                               MSG_NOSIGNAL);
      if (n > 0) {
        conn.out.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.wants_epollout) {
          conn.wants_epollout = true;
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.u64 = conn.id;
          ::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
        }
        return;
      }
      CloseConnection(reactor, conn);
      return;
    }
    if (conn.wants_epollout) {
      conn.wants_epollout = false;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = conn.id;
      ::epoll_ctl(reactor.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
    }
    if (conn.want_close && conn.slots.empty()) {
      CloseConnection(reactor, conn);
    }
  }

  size_t ReactorIndex(const Reactor& reactor) const {
    return static_cast<size_t>(&reactor - reactors_.data());
  }

  // Barrier-polls the reactors until every queued response has left the
  // process (or the deadline passes — a peer that stopped reading must
  // not wedge shutdown).
  void WaitResponsesFlushed(std::chrono::milliseconds deadline) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    for (;;) {
      std::vector<std::future<bool>> pending;
      pending.reserve(reactors_.size());
      for (size_t i = 0; i < reactors_.size(); ++i) {
        auto promise = std::make_shared<std::promise<bool>>();
        pending.push_back(promise->get_future());
        Post(i, [&reactor = reactors_[i], promise] {
          bool busy = false;
          for (const auto& [id, conn] : reactor.conns) {
            if (!conn->slots.empty() || !conn->out.empty()) {
              busy = true;
              break;
            }
          }
          promise->set_value(busy);
        });
      }
      bool busy = false;
      for (std::future<bool>& f : pending) busy = f.get() || busy;
      if (!busy || std::chrono::steady_clock::now() >= until) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  const ServerOptions options_;
  const std::string retry_after_value_ =
      std::to_string(std::max(0, options_.retry_after_seconds));
  // Atomic: reactors accept() on it while Shutdown() retires it.
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;

  mutable std::mutex state_mutex_;
  ServiceSnapshot state_;  // {service, epoch}; swapped whole on reload
  std::mutex reload_mutex_;
  // One admin operation at a time — reload, promote or compact; a second
  // request while one runs gets 409. The thread is joined before reuse.
  std::atomic<bool> admin_running_{false};
  std::thread admin_thread_;

  std::unique_ptr<MicroBatcher> batcher_;
  std::vector<Reactor> reactors_;
  std::atomic<uint64_t> next_conn_id_{kFirstConnId};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_started_{false};
  std::atomic<bool> shutdown_done_{false};

  std::atomic<uint64_t> stats_connections_{0};
  std::atomic<uint64_t> stats_requests_{0};
  std::atomic<uint64_t> stats_queries_{0};
  std::atomic<uint64_t> stats_shed_{0};
  std::atomic<uint64_t> stats_http_errors_{0};
  std::atomic<uint64_t> stats_reloads_{0};
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Server::~Server() = default;

Result<std::unique_ptr<Server>> Server::Start(
    std::shared_ptr<serve::ShardedContainmentService> service,
    const ServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("server needs a service");
  }
  auto impl = std::make_unique<Impl>(std::move(service), options);
  GBKMV_RETURN_IF_ERROR(impl->Init());
  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

uint16_t Server::port() const { return impl_->port(); }
uint64_t Server::epoch() const { return impl_->epoch(); }

Result<uint64_t> Server::Reload(const std::string& dir) {
  return impl_->Reload(dir);
}

void Server::Shutdown() { impl_->Shutdown(); }

Server::Stats Server::stats() const { return impl_->stats(); }

}  // namespace server
}  // namespace gbkmv
