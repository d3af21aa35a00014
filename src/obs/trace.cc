#include "obs/trace.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace gbkmv {
namespace obs {

namespace {

thread_local SpanSink* t_span_sink = nullptr;

// Slow-query visibility in the metrics plane too: a spike shows up on a
// dashboard counter even when nobody is reading the ring.
Counter* SlowQueryCounter() {
  static Counter* counter =
      GlobalMetrics().GetCounter("gbkmv_trace_slow_queries_total");
  return counter;
}

Counter* TraceCounter() {
  static Counter* counter =
      GlobalMetrics().GetCounter("gbkmv_trace_sampled_total");
  return counter;
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kCacheLookup: return "cache_lookup";
    case Stage::kFanout: return "fanout";
    case Stage::kShardSearch: return "shard_search";
    case Stage::kMerge: return "merge";
    case Stage::kCacheFill: return "cache_fill";
    case Stage::kSketch: return "sketch";
    case Stage::kScan: return "scan";
    case Stage::kRefine: return "refine";
    case Stage::kServerParse: return "server_parse";
    case Stage::kServerQueue: return "server_queue";
  }
  return "unknown";
}

void Tracer::Configure(const TracerConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  config_.ring_capacity = std::max<size_t>(1, config_.ring_capacity);
  config_.slow_ring_capacity = std::max<size_t>(1,
                                                config_.slow_ring_capacity);
  ring_.clear();
  ring_.reserve(config_.ring_capacity);
  ring_next_ = 0;
  slow_ring_.clear();
  slow_ring_.reserve(config_.slow_ring_capacity);
  slow_next_ = 0;
  sample_every_.store(config_.sample_every, std::memory_order_relaxed);
  slow_ns_.store(config_.slow_query_ns, std::memory_order_relaxed);
  sample_counter_.store(0, std::memory_order_relaxed);
  active_.store(config_.sample_every > 0 || config_.slow_query_ns > 0,
                std::memory_order_relaxed);
}

TracerConfig Tracer::config() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return config_;
}

bool Tracer::ShouldSample() {
  const size_t every = sample_every_.load(std::memory_order_relaxed);
  if (every == 0) return false;
  return sample_counter_.fetch_add(1, std::memory_order_relaxed) % every ==
         0;
}

void Tracer::Record(QueryTrace trace) {
  const uint64_t slow_ns = slow_ns_.load(std::memory_order_relaxed);
  const bool slow = slow_ns > 0 && trace.total_ns >= slow_ns;
  if (!trace.sampled && !slow) return;

  if (trace.sampled) TraceCounter()->Add(1);
  if (slow) SlowQueryCounter()->Add(1);

  std::lock_guard<std::mutex> lock(mutex_);
  trace.id = next_id_++;
  if (slow) {
    ++slow_recorded_;
    if (slow_ring_.size() < config_.slow_ring_capacity) {
      slow_ring_.push_back(trace);
    } else {
      slow_ring_[slow_next_] = trace;
      slow_next_ = (slow_next_ + 1) % config_.slow_ring_capacity;
    }
  }
  if (trace.sampled) {
    ++recorded_;
    if (ring_.size() < config_.ring_capacity) {
      ring_.push_back(std::move(trace));
    } else {
      ring_[ring_next_] = std::move(trace);
      ring_next_ = (ring_next_ + 1) % config_.ring_capacity;
    }
  }
}

std::vector<QueryTrace> Tracer::Recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<QueryTrace> out;
  out.reserve(ring_.size());
  // Oldest first: the slot about to be overwritten is the oldest.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<QueryTrace> Tracer::SlowQueries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<QueryTrace> out;
  out.reserve(slow_ring_.size());
  for (size_t i = 0; i < slow_ring_.size(); ++i) {
    out.push_back(slow_ring_[(slow_next_ + i) % slow_ring_.size()]);
  }
  return out;
}

uint64_t Tracer::traces_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

uint64_t Tracer::slow_queries_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slow_recorded_;
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

SpanSink* CurrentSpanSink() { return t_span_sink; }

ScopedSpanSink::ScopedSpanSink(SpanSink* sink) : previous_(t_span_sink) {
  t_span_sink = sink;
}

ScopedSpanSink::~ScopedSpanSink() { t_span_sink = previous_; }

}  // namespace obs
}  // namespace gbkmv
