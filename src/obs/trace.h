// Per-query stage tracing: a sampled flight recorder for the serving path
// (docs/observability.md).
//
// A QueryTrace records what one query spent its time on — cache lookup,
// fan-out, per-shard search, top-k merge, cache fill, and (for sampled
// queries) the searcher-internal sketch/scan/refine stages — as spans with
// monotonic timestamps (common/timer.h). Traces live in a fixed-size ring
// buffer; queries slower than a configurable threshold additionally land in
// a slow-query ring regardless of sampling, so a latency spike is always
// explainable after the fact.
//
// Tracing is passive: it never changes which shards run, in what order, or
// what they return, so serve results are bit-identical with tracing on,
// off, or at any sampling rate (tests/obs_integration_test.cc). When the
// tracer is inactive the per-query cost is one relaxed load + branch.
//
// Searcher-internal stages are captured through a thread-local SpanSink:
// the serving layer installs one around a traced shard search
// (ScopedSpanSink), and StageTimer call sites inside SearchQ record into it
// — or do nothing but a thread-local load when no sink is installed.

#ifndef GBKMV_OBS_TRACE_H_
#define GBKMV_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.h"

namespace gbkmv {
namespace obs {

enum class Stage : uint8_t {
  kCacheLookup = 0,  // serve: query-result cache probe
  kFanout = 1,       // serve: first shard task start -> last task end
  kShardSearch = 2,  // serve: one shard's SearchQ (span.shard = which)
  kMerge = 3,        // serve: global top-k fan-in
  kCacheFill = 4,    // serve: cache insert / duplicate re-lookup
  kSketch = 5,       // searcher: query sketch construction
  kScan = 6,         // searcher: candidate generation (posting scans)
  kRefine = 7,       // searcher: candidate scoring / verification
  kServerParse = 8,  // server: HTTP + JSON request decode on the reactor
  kServerQueue = 9,  // server: admission-queue wait until batch formation
};

inline constexpr size_t kNumStages = 10;

const char* StageName(Stage stage);

struct TraceSpan {
  Stage stage = Stage::kCacheLookup;
  // Shard index for kShardSearch and searcher stages recorded inside a
  // shard task; -1 when not shard-scoped.
  int32_t shard = -1;
  // Offsets from QueryTrace::start_ns (monotonic).
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;

  friend bool operator==(const TraceSpan&, const TraceSpan&) = default;
};

struct QueryTrace {
  uint64_t id = 0;        // assigned by the tracer, monotonically increasing
  uint64_t start_ns = 0;  // MonotonicNanos() at query start
  uint64_t total_ns = 0;
  double threshold = 0.0;
  uint32_t num_hits = 0;
  uint32_t shards_queried = 0;
  bool cache_hit = false;
  // True when the trace was selected by sampling; false when it was
  // recorded only because it crossed the slow-query threshold.
  bool sampled = false;
  std::vector<TraceSpan> spans;  // at most kMaxSpans, overflow dropped

  static constexpr size_t kMaxSpans = 96;

  friend bool operator==(const QueryTrace&, const QueryTrace&) = default;
};

struct TracerConfig {
  // Record every Nth served query (deterministic counter, not RNG). 0
  // disables sampling.
  size_t sample_every = 0;
  // Queries with total_ns >= slow_query_ns are recorded into the slow ring
  // even when not sampled. 0 disables the slow-query log.
  uint64_t slow_query_ns = 0;
  size_t ring_capacity = 256;
  size_t slow_ring_capacity = 64;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Reconfigures rings and knobs; existing traces are dropped when a ring
  // shrinks below its occupancy.
  void Configure(const TracerConfig& config);
  TracerConfig config() const;

  // True when any recording can happen (sampling or slow log on) — the
  // serving layer's one-branch gate before it starts timestamping.
  bool active() const { return active_.load(std::memory_order_relaxed); }
  uint64_t slow_query_ns() const {
    return slow_ns_.load(std::memory_order_relaxed);
  }

  // Deterministic sampling decision for the next query (one relaxed
  // fetch_add; the first call after Configure samples). Always false when
  // sampling is off.
  bool ShouldSample();

  // Files the trace: into the main ring when trace.sampled, into the slow
  // ring when total_ns crosses the threshold (either or both). Traces that
  // match neither are dropped. The tracer assigns trace.id.
  void Record(QueryTrace trace);

  // Copies of the retained traces, oldest first.
  std::vector<QueryTrace> Recent() const;
  std::vector<QueryTrace> SlowQueries() const;

  uint64_t traces_recorded() const;
  uint64_t slow_queries_recorded() const;

 private:
  std::atomic<bool> active_{false};
  std::atomic<size_t> sample_every_{0};
  std::atomic<uint64_t> slow_ns_{0};
  std::atomic<uint64_t> sample_counter_{0};

  mutable std::mutex mutex_;
  TracerConfig config_;
  // Rings: fixed capacity, `*_next_` is the slot the next trace overwrites.
  std::vector<QueryTrace> ring_;
  size_t ring_next_ = 0;
  std::vector<QueryTrace> slow_ring_;
  size_t slow_next_ = 0;
  uint64_t next_id_ = 0;
  uint64_t recorded_ = 0;
  uint64_t slow_recorded_ = 0;
};

// The process-wide tracer the serving layer and CLI use. Inactive by
// default; Configure with sample_every/slow_query_ns to arm it.
Tracer& GlobalTracer();

// --- searcher-internal stage capture ---------------------------------------

// Collects stage spans recorded on the current thread while installed
// (one traced shard search). Not thread-safe — one sink per thread by
// construction (ScopedSpanSink installs into a thread-local slot).
class SpanSink {
 public:
  // `base_ns` is the owning trace's start_ns (span offsets are relative to
  // it); `shard` tags every span recorded through this sink.
  SpanSink(uint64_t base_ns, int32_t shard) : base_ns_(base_ns),
                                              shard_(shard) {}

  void Record(Stage stage, uint64_t start_ns, uint64_t end_ns) {
    if (spans_.size() >= QueryTrace::kMaxSpans) return;
    spans_.push_back({stage, shard_,
                      start_ns > base_ns_ ? start_ns - base_ns_ : 0,
                      end_ns - start_ns});
  }

  std::vector<TraceSpan> Take() { return std::move(spans_); }

 private:
  uint64_t base_ns_;
  int32_t shard_;
  std::vector<TraceSpan> spans_;
};

// The sink installed on this thread, or nullptr (the common case).
SpanSink* CurrentSpanSink();

// Installs `sink` as the current thread's sink for the enclosing scope.
class ScopedSpanSink {
 public:
  explicit ScopedSpanSink(SpanSink* sink);
  ~ScopedSpanSink();
  ScopedSpanSink(const ScopedSpanSink&) = delete;
  ScopedSpanSink& operator=(const ScopedSpanSink&) = delete;

 private:
  SpanSink* previous_;
};

// Records one stage span into the current thread's sink, if any. When no
// sink is installed (every untraced query) the constructor is a
// thread-local load + branch and the destructor a branch.
class StageTimer {
 public:
  explicit StageTimer(Stage stage) : sink_(CurrentSpanSink()), stage_(stage) {
    if (sink_ != nullptr) start_ns_ = MonotonicNanos();
  }
  ~StageTimer() { Stop(); }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  // Ends the span early (records once; the destructor then does nothing).
  void Stop() {
    if (sink_ == nullptr) return;
    sink_->Record(stage_, start_ns_, MonotonicNanos());
    sink_ = nullptr;
  }

 private:
  SpanSink* sink_;
  Stage stage_;
  uint64_t start_ns_ = 0;
};

// --- network-server stage capture ------------------------------------------

// The network front end (src/server) measures per-request work that happens
// BEFORE ShardedContainmentService::BatchServe ever sees the batch: HTTP +
// JSON decode on the reactor thread, and the admission-queue wait until the
// micro-batcher formed the batch. Those spans carry absolute monotonic
// timestamps and reach BatchServe as an argument, one list per request; the
// serve layer re-bases each trace onto the earliest server span so queue
// time shows up in total_ns and every span offset, searcher stages
// included, counts from the same origin.
struct ServerSpan {
  Stage stage = Stage::kServerQueue;
  uint64_t start_ns = 0;  // absolute MonotonicNanos
  uint64_t end_ns = 0;
};

}  // namespace obs
}  // namespace gbkmv

#endif  // GBKMV_OBS_TRACE_H_
