// Adaptive micro-batching + admission control for the serving front end
// (docs/serving.md).
//
// Reactor threads Submit() decoded queries; worker threads coalesce them
// into batches and hand each batch to a BatchExecutor (in production: one
// ShardedContainmentService::BatchServe call via MakeServiceExecutor).
// Batching amortizes the per-call shard fan-out the ROADMAP identifies as
// the serving bottleneck, without changing results: BatchServe guarantees
// responses bit-identical to per-query Serve calls, and the batcher only
// decides how queries are grouped, never what they compute.
//
// Flush policy: a batch flushes when it reaches max_batch, or when the
// oldest queued query has waited the adaptive window. The window shrinks
// (halving toward 0) on every deadline flush — waiting that expires short
// of a full batch is buying latency, not batches, and at window 0 batches
// still form naturally from whatever queued while the previous batch
// executed — and grows (doubling toward max_window_us) on size flushes,
// when traffic is dense enough that waiting actually fills batches.
//
// Admission control: Submit() sheds (returns false) instead of queueing
// when the pending queue is at max_queue_depth or pending + executing
// queries reach max_inflight. The server turns a shed into 429 +
// Retry-After; the bound is what keeps p99 of *served* requests flat when
// offered load exceeds capacity.
//
// The executor is a std::function so tests can drive the batcher without
// sockets or even a service (tests/batcher_test.cc).

#ifndef GBKMV_SERVER_BATCHER_H_
#define GBKMV_SERVER_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "data/record.h"
#include "index/query.h"
#include "serve/sharded_service.h"

namespace gbkmv {
namespace server {

// One admitted query. The batcher owns the record (QueryRequest borrows);
// `done` is called exactly once, from a worker thread, with the response
// and the manifest epoch that served it.
struct PendingQuery {
  Record record;
  double threshold = 0.0;
  size_t top_k = 0;
  bool want_scores = true;
  bool want_stats = false;
  // Absolute MonotonicNanos of the reactor-side HTTP+JSON decode, for the
  // kServerParse trace span; 0 when not captured.
  uint64_t parse_start_ns = 0;
  uint64_t parse_end_ns = 0;
  // Set by Submit(): when the query entered the pending queue.
  uint64_t enqueue_ns = 0;
  std::function<void(QueryResponse response, uint64_t epoch)> done;
};

// Must invoke every query's `done` exactly once before returning.
using BatchExecutor = std::function<void(std::vector<PendingQuery> batch)>;

struct BatcherOptions {
  size_t max_batch = 64;         // flush at this many queries; >= 1
  uint64_t max_window_us = 500;  // adaptive deadline ceiling; 0 = no wait
  size_t num_workers = 1;        // concurrent executor calls; >= 1
  size_t max_queue_depth = 1024;
  size_t max_inflight = 2048;    // pending + executing
};

class MicroBatcher {
 public:
  MicroBatcher(BatchExecutor executor, BatcherOptions options);
  ~MicroBatcher();
  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Admits the query or sheds it (false: queue/in-flight bound hit, or
  // draining). On true, `done` will be called exactly once.
  bool Submit(PendingQuery query);

  // Stops admission, flushes every queued query, waits for executors to
  // finish. Idempotent; the destructor calls it.
  void Drain();

  struct Stats {
    uint64_t submitted = 0;
    uint64_t shed = 0;
    uint64_t batches = 0;
    uint64_t size_flushes = 0;
    uint64_t deadline_flushes = 0;
  };
  Stats stats() const;

  uint64_t current_window_us() const {
    return window_us_.load(std::memory_order_relaxed);
  }
  size_t queue_depth() const;
  size_t inflight() const;

 private:
  void WorkerLoop();

  const BatchExecutor executor_;
  const BatcherOptions options_;
  std::atomic<uint64_t> window_us_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<PendingQuery> queue_;
  size_t executing_ = 0;  // queries inside executor calls
  bool draining_ = false;
  Stats stats_;

  std::vector<std::thread> workers_;
  bool joined_ = false;
};

// --- service glue -----------------------------------------------------------

// What the executor serves one batch against. The server re-snapshots per
// batch, so a manifest reload swaps atomically between batches and every
// response in one batch carries the same epoch — version mixing is
// impossible by construction.
struct ServiceSnapshot {
  std::shared_ptr<serve::ShardedContainmentService> service;
  uint64_t epoch = 0;
};

// Executor that runs one BatchServe per batch against snapshot() and,
// when tracing is active, passes each query's server spans (parse, queue
// wait) to it.
BatchExecutor MakeServiceExecutor(std::function<ServiceSnapshot()> snapshot,
                                  size_t num_threads);

}  // namespace server
}  // namespace gbkmv

#endif  // GBKMV_SERVER_BATCHER_H_
