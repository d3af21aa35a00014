#include "server/batcher.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

#include "common/status.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gbkmv {
namespace server {

namespace {

// Server-side batching metrics (docs/serving.md, docs/observability.md).
struct BatcherMetrics {
  obs::Counter* admitted = nullptr;
  obs::Counter* shed = nullptr;
  obs::Counter* batches = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* inflight = nullptr;
  obs::Histogram* batch_size = nullptr;
  obs::Histogram* queue_wait_ns = nullptr;
  obs::Histogram* batch_window_us = nullptr;
};

const BatcherMetrics& Metrics() {
  static const BatcherMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::GlobalMetrics();
    BatcherMetrics m;
    m.admitted = registry.GetCounter("gbkmv_server_admitted_total");
    m.shed = registry.GetCounter("gbkmv_server_shed_total");
    m.batches = registry.GetCounter("gbkmv_server_batches_total");
    m.queue_depth = registry.GetGauge("gbkmv_server_queue_depth");
    m.inflight = registry.GetGauge("gbkmv_server_inflight");
    m.batch_size = registry.GetHistogram("gbkmv_server_batch_size");
    m.queue_wait_ns = registry.GetHistogram("gbkmv_server_queue_wait_ns");
    m.batch_window_us =
        registry.GetHistogram("gbkmv_server_batch_window_us");
    return m;
  }();
  return metrics;
}

}  // namespace

MicroBatcher::MicroBatcher(BatchExecutor executor, BatcherOptions options)
    : executor_(std::move(executor)),
      options_([&options] {
        options.max_batch = std::max<size_t>(1, options.max_batch);
        options.num_workers = std::max<size_t>(1, options.num_workers);
        return options;
      }()),
      window_us_(options_.max_window_us) {
  GBKMV_CHECK(executor_ != nullptr);
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

MicroBatcher::~MicroBatcher() { Drain(); }

bool MicroBatcher::Submit(PendingQuery query) {
  const bool metrics_on = obs::GlobalMetrics().enabled();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ || queue_.size() >= options_.max_queue_depth ||
        queue_.size() + executing_ >= options_.max_inflight) {
      ++stats_.shed;
      if (metrics_on) Metrics().shed->Add(1);
      return false;
    }
    query.enqueue_ns = MonotonicNanos();
    queue_.push_back(std::move(query));
    ++stats_.submitted;
    if (metrics_on) {
      Metrics().admitted->Add(1);
      Metrics().queue_depth->Set(static_cast<int64_t>(queue_.size()));
    }
  }
  work_cv_.notify_one();
  return true;
}

void MicroBatcher::WorkerLoop() {
  for (;;) {
    std::vector<PendingQuery> batch;
    bool size_flush = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining and nothing left

      // Deadline anchored to the oldest query: wait (briefly) for the
      // batch to fill, but never keep the head waiting past the window.
      const uint64_t window_ns =
          window_us_.load(std::memory_order_relaxed) * 1000;
      const uint64_t deadline_ns = queue_.front().enqueue_ns + window_ns;
      while (queue_.size() < options_.max_batch && !draining_) {
        const uint64_t now_ns = MonotonicNanos();
        if (now_ns >= deadline_ns) break;
        work_cv_.wait_for(lock,
                          std::chrono::nanoseconds(deadline_ns - now_ns));
        if (queue_.empty()) break;  // another worker took everything
      }
      if (queue_.empty()) continue;

      const size_t take = std::min(queue_.size(), options_.max_batch);
      size_flush = take == options_.max_batch;
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      executing_ += batch.size();
      ++stats_.batches;
      if (size_flush) {
        ++stats_.size_flushes;
      } else {
        ++stats_.deadline_flushes;
      }

      // Adapt the window. A deadline flush means the wait expired without
      // filling a batch — the window is buying latency, not batches — so
      // halve toward zero; at zero, batches still form naturally from
      // whatever queued while the previous batch executed. A size flush
      // means the window is earning full batches — grow it back toward
      // the ceiling.
      const uint64_t window = window_us_.load(std::memory_order_relaxed);
      if (!size_flush) {
        window_us_.store(window / 2, std::memory_order_relaxed);
      } else if (size_flush && options_.max_window_us > 0) {
        const uint64_t grown =
            window == 0 ? std::max<uint64_t>(1, options_.max_window_us / 8)
                        : std::min(window * 2, options_.max_window_us);
        window_us_.store(grown, std::memory_order_relaxed);
      }
    }
    // Wake the next worker if queries remain (notify_one in Submit may
    // have been absorbed by this worker's batch).
    work_cv_.notify_one();

    if (obs::GlobalMetrics().enabled()) {
      const BatcherMetrics& m = Metrics();
      m.batches->Add(1);
      m.batch_size->Record(batch.size());
      m.batch_window_us->Record(window_us_.load(std::memory_order_relaxed));
      const uint64_t now_ns = MonotonicNanos();
      for (const PendingQuery& q : batch) {
        m.queue_wait_ns->Record(now_ns > q.enqueue_ns
                                    ? now_ns - q.enqueue_ns
                                    : 0);
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        m.queue_depth->Set(static_cast<int64_t>(queue_.size()));
        m.inflight->Set(static_cast<int64_t>(queue_.size() + executing_));
      }
    }

    const size_t n = batch.size();
    executor_(std::move(batch));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      executing_ -= n;
      if (obs::GlobalMetrics().enabled()) {
        Metrics().inflight->Set(
            static_cast<int64_t>(queue_.size() + executing_));
      }
    }
    work_cv_.notify_all();  // Drain may be waiting on executing_ == 0
  }
}

void MicroBatcher::Drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (joined_) return;
    draining_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  std::lock_guard<std::mutex> lock(mutex_);
  joined_ = true;
}

MicroBatcher::Stats MicroBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

size_t MicroBatcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

size_t MicroBatcher::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + executing_;
}

BatchExecutor MakeServiceExecutor(std::function<ServiceSnapshot()> snapshot,
                                  size_t num_threads) {
  GBKMV_CHECK(snapshot != nullptr);
  return [snapshot = std::move(snapshot),
          num_threads](std::vector<PendingQuery> batch) {
    // One snapshot per batch: every query in the batch is served by the
    // same service + epoch, so a reload can only ever land between
    // batches and responses never mix manifest versions.
    const ServiceSnapshot snap = snapshot();
    GBKMV_CHECK(snap.service != nullptr);
    const uint64_t formed_ns = MonotonicNanos();
    std::vector<QueryRequest> requests;
    requests.reserve(batch.size());
    for (const PendingQuery& q : batch) {
      QueryRequest request(q.record, q.threshold);
      request.top_k = q.top_k;
      request.want_scores = q.want_scores;
      request.want_stats = q.want_stats;
      requests.push_back(request);
    }
    // The reactor-side parse span and the queue wait, for the serve
    // layer's trace assembly; only built while tracing.
    std::vector<std::vector<obs::ServerSpan>> spans;
    if (obs::GlobalTracer().active()) {
      spans.resize(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        const PendingQuery& q = batch[i];
        if (q.parse_end_ns > q.parse_start_ns) {
          spans[i].push_back({obs::Stage::kServerParse, q.parse_start_ns,
                              q.parse_end_ns});
        }
        if (q.enqueue_ns != 0) {
          spans[i].push_back(
              {obs::Stage::kServerQueue, q.enqueue_ns, formed_ns});
        }
      }
    }
    std::vector<QueryResponse> results =
        snap.service->BatchServe(requests, num_threads, spans);
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].done(std::move(results[i]), snap.epoch);
    }
  };
}

}  // namespace server
}  // namespace gbkmv
