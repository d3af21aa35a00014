// Event-loop TCP/HTTP front end for ShardedContainmentService
// (docs/serving.md).
//
// N reactor threads share one non-blocking listen socket through epoll
// (EPOLLEXCLUSIVE, so the kernel wakes one reactor per accept burst) and
// own their connections exclusively — no locks on the read/parse path.
// Decoded queries flow into the MicroBatcher; completions come back to the
// owning reactor through its task queue (eventfd wakeup), referencing the
// connection by id so a response for a connection that died in the
// meantime is dropped instead of written through a dangling pointer.
// Responses on one connection are sequenced, so pipelined requests answer
// in request order even when batches complete out of order.
//
// Endpoints (one route-table entry each in server.cc; docs/serving.md):
//   POST /v1/query     compact JSON query (server/wire.h) -> hits + epoch
//   POST /v1/ingest, /v1/delete, /admin/promote, /admin/compact
//                      the service's typed mutations (serve/mutation.h)
//   GET  /healthz      liveness ("ok", or "draining" + 503 during drain)
//   GET  /metricsz     Prometheus exposition of the global registry
//   POST /admin/reload {"dir": ...} -> graceful manifest swap
//
// Reload: the service lives behind a shared_ptr snapshot {service, epoch};
// the batch executor re-reads it per batch, so in-flight batches finish on
// the old service while new batches see the new one, and every response
// reports the epoch that served it. Shutdown() flips to draining (new
// queries get 503), stops accepting, drains the batcher, and flushes what
// is already written-queued before joining the reactors.

#ifndef GBKMV_SERVER_SERVER_H_
#define GBKMV_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "serve/sharded_service.h"

namespace gbkmv {
namespace server {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; Server::port() reports the choice
  size_t num_reactors = 2;

  // Admission control (batcher.h): shed with 429 beyond these.
  size_t max_queue_depth = 1024;
  size_t max_inflight = 2048;
  int retry_after_seconds = 1;

  // Micro-batching: max_batch 1 + window 0 disables coalescing.
  size_t max_batch = 64;
  uint64_t max_batch_window_us = 500;
  size_t batch_workers = 1;
  // Threads per BatchServe call (0 = DefaultThreads()).
  size_t batch_threads = 0;

  // Wire limits and defaults.
  size_t max_body_bytes = 1 << 20;
  double default_threshold = 0.5;
};

class Server {
 public:
  // Binds, spawns reactors and batch workers; serving once this returns.
  // The initial manifest epoch is 1.
  static Result<std::unique_ptr<Server>> Start(
      std::shared_ptr<serve::ShardedContainmentService> service,
      const ServerOptions& options);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const;
  uint64_t epoch() const;

  // Loads `dir` and swaps it in (epoch + 1). Synchronous and serialized;
  // in-flight batches finish on the old service. Safe under traffic.
  Result<uint64_t> Reload(const std::string& dir);

  // Graceful drain: stop accepting, 503 new queries, finish queued ones,
  // flush responses, join every thread. Idempotent.
  void Shutdown();

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t requests = 0;      // HTTP requests parsed
    uint64_t queries_served = 0;
    uint64_t shed = 0;          // 429s
    uint64_t http_errors = 0;   // 4xx/5xx other than 429
    uint64_t reloads = 0;
  };
  Stats stats() const;

 private:
  class Impl;
  explicit Server(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace server
}  // namespace gbkmv

#endif  // GBKMV_SERVER_SERVER_H_
