// Observability is passive, end to end: serve responses — hit ids, float
// scores, stats — are bit-identical with metrics on or off and with tracing
// off, on, or at any sampling rate. Plus: the global cache counters mirror
// the per-cache stats the API reports, traces carry the expected stages
// (server spans included, on one time origin), and snapshot I/O shows up in
// the persistence counters.
//
// These tests mutate the process-wide registry/tracer, so each one restores
// the default state (metrics enabled, tracer disarmed) on the way out.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/containment.h"
#include "data/synthetic.h"
#include "eval/ground_truth.h"
#include "io/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/sharded_service.h"
#include "server/batcher.h"

namespace gbkmv {
namespace {

using serve::ShardedContainmentService;

const Dataset& TestDataset() {
  static const Dataset* dataset = [] {
    SyntheticConfig c;
    c.num_records = 300;
    c.universe_size = 2500;
    c.min_record_size = 10;
    c.max_record_size = 100;
    c.alpha_element_freq = 1.1;
    c.alpha_record_size = 2.0;
    c.seed = 20260808;
    return new Dataset(std::move(GenerateSynthetic(c).value()));
  }();
  return *dataset;
}

std::vector<QueryRequest> TestRequests(const std::vector<Record>& queries) {
  std::vector<QueryRequest> requests;
  for (const Record& q : queries) {
    QueryRequest request(q, 0.5);
    request.top_k = 5;
    request.want_scores = true;
    request.want_stats = true;
    requests.push_back(request);
  }
  // A within-batch duplicate, so the duplicate-collapse path is timed too.
  requests.push_back(requests.front());
  return requests;
}

Result<std::unique_ptr<ShardedContainmentService>> BuildService() {
  SearcherConfig config;
  config.method = SearchMethod::kGbKmv;
  config.sharded.num_shards = 3;
  config.sharded.cache_capacity = 8;
  return serve::BuildShardedService(TestDataset(), config);
}

// Restores the process-wide observability state around each test.
class ObsIntegrationTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::GlobalMetrics().SetEnabled(true);
    obs::GlobalTracer().Configure(obs::TracerConfig{});  // disarms
  }
};

TEST_F(ObsIntegrationTest, ResponsesBitIdenticalAcrossObservabilityModes) {
  const Dataset& ds = TestDataset();
  std::vector<Record> queries;
  for (RecordId id : SampleQueries(ds, 20, /*seed=*/99)) {
    queries.push_back(ds.record(id));
  }
  const std::vector<QueryRequest> requests = TestRequests(queries);

  // Reference: metrics off, tracer disarmed. A fresh service per mode so
  // the cache starts cold every time.
  obs::GlobalMetrics().SetEnabled(false);
  auto reference_service = BuildService();
  ASSERT_TRUE(reference_service.ok());
  const std::vector<QueryResponse> reference =
      (*reference_service)->BatchServe(requests, 2);
  ASSERT_EQ(requests.size(), reference.size());

  struct Mode {
    bool metrics;
    size_t sample_every;
    uint64_t slow_query_ns;
    const char* name;
  };
  const Mode modes[] = {
      {true, 0, 0, "metrics only"},
      {false, 1, 0, "trace every query"},
      {true, 1, 0, "metrics + trace every query"},
      {true, 3, 0, "sample every 3rd"},
      {true, 7, 0, "sample every 7th"},
      {true, 0, 1, "slow log only (everything is slow)"},
      {true, 2, 1, "sampling + slow log"},
  };
  for (const Mode& mode : modes) {
    obs::GlobalMetrics().SetEnabled(mode.metrics);
    obs::TracerConfig config;
    config.sample_every = mode.sample_every;
    config.slow_query_ns = mode.slow_query_ns;
    obs::GlobalTracer().Configure(config);

    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      auto fresh = BuildService();  // cold cache per thread count
      ASSERT_TRUE(fresh.ok());
      const std::vector<QueryResponse> got =
          (*fresh)->BatchServe(requests, threads);
      ASSERT_EQ(reference.size(), got.size()) << mode.name;
      for (size_t i = 0; i < got.size(); ++i) {
        // Full structural equality: hits, scores, stats.
        EXPECT_EQ(reference[i], got[i])
            << mode.name << " threads=" << threads << " query " << i;
      }
    }
  }
}

TEST_F(ObsIntegrationTest, TracesCarryServeAndSearcherStages) {
  obs::TracerConfig config;
  config.sample_every = 1;
  obs::GlobalTracer().Configure(config);

  auto service = BuildService();
  ASSERT_TRUE(service.ok());
  const Dataset& ds = TestDataset();
  std::vector<QueryRequest> requests;
  QueryRequest request(ds.record(7), 0.5);
  requests.push_back(request);
  requests.push_back(request);  // duplicate: second is a cache hit
  (void)(*service)->BatchServe(requests, 2);

  const std::vector<obs::QueryTrace> traces = obs::GlobalTracer().Recent();
  ASSERT_EQ(2u, traces.size());

  const obs::QueryTrace& computed = traces[0];
  EXPECT_FALSE(computed.cache_hit);
  EXPECT_TRUE(computed.sampled);
  EXPECT_EQ(3u, computed.shards_queried);
  EXPECT_DOUBLE_EQ(0.5, computed.threshold);
  size_t stage_counts[obs::kNumStages] = {};
  for (const obs::TraceSpan& span : computed.spans) {
    ASSERT_LT(static_cast<size_t>(span.stage), obs::kNumStages);
    ++stage_counts[static_cast<size_t>(span.stage)];
    if (span.stage == obs::Stage::kShardSearch) {
      EXPECT_GE(span.shard, 0);
      EXPECT_LT(span.shard, 3);
    }
    EXPECT_LE(span.start_ns + span.duration_ns, computed.total_ns * 2 + 1);
  }
  EXPECT_EQ(1u, stage_counts[static_cast<size_t>(obs::Stage::kCacheLookup)]);
  EXPECT_EQ(1u, stage_counts[static_cast<size_t>(obs::Stage::kFanout)]);
  EXPECT_EQ(3u, stage_counts[static_cast<size_t>(obs::Stage::kShardSearch)]);
  EXPECT_EQ(1u, stage_counts[static_cast<size_t>(obs::Stage::kMerge)]);
  // Searcher internals, per shard: sketch / scan / refine.
  EXPECT_EQ(3u, stage_counts[static_cast<size_t>(obs::Stage::kSketch)]);
  EXPECT_EQ(3u, stage_counts[static_cast<size_t>(obs::Stage::kRefine)]);

  const obs::QueryTrace& cached = traces[1];
  EXPECT_TRUE(cached.cache_hit);
  // The replayed response carries the computed query's stats (including
  // shards_queried), but the duplicate itself ran no shard tasks.
  EXPECT_EQ(computed.shards_queried, cached.shards_queried);
  for (const obs::TraceSpan& span : cached.spans) {
    EXPECT_NE(obs::Stage::kShardSearch, span.stage);
  }
}

// Server spans reach the trace through MakeServiceExecutor, and every span
// of a traced request counts from one origin: the trace opens with the
// HTTP parse at offset 0 and the queue wait after it, no span leaves
// [0, total_ns], and each shard's searcher stages lie inside that shard's
// shard_search span.
TEST_F(ObsIntegrationTest, ServerSpansAndSearcherStagesShareTheTraceOrigin) {
  obs::TracerConfig config;
  config.sample_every = 1;
  obs::GlobalTracer().Configure(config);
  auto built = BuildService();
  ASSERT_TRUE(built.ok());
  const std::shared_ptr<ShardedContainmentService> service =
      std::move(built.value());

  std::promise<QueryResponse> answered;
  {
    server::MicroBatcher batcher(
        server::MakeServiceExecutor(
            [&] { return server::ServiceSnapshot{service, 1}; },
            /*num_threads=*/2),
        server::BatcherOptions{});
    server::PendingQuery query;
    query.record = TestDataset().record(7);
    query.threshold = 0.5;
    // A decode long enough that searcher stages timed from the wrong
    // origin would land outside their shard's span.
    query.parse_start_ns = MonotonicNanos();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    query.parse_end_ns = MonotonicNanos();
    query.done = [&](QueryResponse response, uint64_t /*epoch*/) {
      answered.set_value(std::move(response));
    };
    ASSERT_TRUE(batcher.Submit(std::move(query)));
    (void)answered.get_future().get();
  }

  const std::vector<obs::QueryTrace> traces = obs::GlobalTracer().Recent();
  ASSERT_EQ(1u, traces.size());
  const obs::QueryTrace& trace = traces[0];
  ASSERT_GE(trace.spans.size(), 2u);
  EXPECT_EQ(obs::Stage::kServerParse, trace.spans[0].stage);
  EXPECT_EQ(0u, trace.spans[0].start_ns);
  EXPECT_GE(trace.spans[0].duration_ns, 2'000'000u);
  EXPECT_EQ(obs::Stage::kServerQueue, trace.spans[1].stage);
  std::map<int32_t, obs::TraceSpan> shard_spans;
  for (const obs::TraceSpan& span : trace.spans) {
    EXPECT_LE(span.start_ns + span.duration_ns, trace.total_ns)
        << obs::StageName(span.stage);
    if (span.stage == obs::Stage::kShardSearch) shard_spans[span.shard] = span;
  }
  ASSERT_EQ(3u, shard_spans.size());
  size_t searcher_spans = 0;
  for (const obs::TraceSpan& span : trace.spans) {
    if (span.stage != obs::Stage::kSketch && span.stage != obs::Stage::kScan &&
        span.stage != obs::Stage::kRefine) {
      continue;
    }
    ++searcher_spans;
    ASSERT_EQ(1u, shard_spans.count(span.shard));
    const obs::TraceSpan& outer = shard_spans[span.shard];
    EXPECT_GE(span.start_ns, outer.start_ns)
        << obs::StageName(span.stage) << " shard " << span.shard;
    EXPECT_LE(span.start_ns + span.duration_ns,
              outer.start_ns + outer.duration_ns)
        << obs::StageName(span.stage) << " shard " << span.shard;
  }
  EXPECT_EQ(9u, searcher_spans);  // sketch, scan, refine on each shard
}

TEST_F(ObsIntegrationTest, GlobalCacheCountersMirrorServiceStats) {
  obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  metrics.SetEnabled(true);
  const uint64_t hits0 = metrics.GetCounter("gbkmv_cache_hits_total")->Value();
  const uint64_t misses0 =
      metrics.GetCounter("gbkmv_cache_misses_total")->Value();

  auto service = BuildService();
  ASSERT_TRUE(service.ok());
  const Dataset& ds = TestDataset();
  QueryRequest request(ds.record(11), 0.5);
  (void)(*service)->Serve(request, 1);  // miss
  (void)(*service)->Serve(request, 1);  // hit
  (void)(*service)->Serve(request, 1);  // hit

  const serve::QueryCacheStats stats = (*service)->cache_stats();
  EXPECT_EQ(2u, stats.hits);
  EXPECT_EQ(1u, stats.misses);
  EXPECT_EQ(stats.hits,
            metrics.GetCounter("gbkmv_cache_hits_total")->Value() - hits0);
  EXPECT_EQ(stats.misses,
            metrics.GetCounter("gbkmv_cache_misses_total")->Value() - misses0);
}

TEST_F(ObsIntegrationTest, ServeCountersAdvanceOnBatch) {
  obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  metrics.SetEnabled(true);
  const uint64_t queries0 =
      metrics.GetCounter("gbkmv_serve_queries_total")->Value();
  const uint64_t latency0 =
      metrics.GetHistogram("gbkmv_serve_latency_ns")->Snapshot().count;

  auto service = BuildService();
  ASSERT_TRUE(service.ok());
  const Dataset& ds = TestDataset();
  std::vector<QueryRequest> requests;
  for (RecordId id : SampleQueries(ds, 6, /*seed=*/5)) {
    requests.emplace_back(ds.record(id), 0.5);
  }
  (void)(*service)->BatchServe(requests, 2);

  EXPECT_EQ(6u, metrics.GetCounter("gbkmv_serve_queries_total")->Value() -
                    queries0);
  EXPECT_EQ(6u,
            metrics.GetHistogram("gbkmv_serve_latency_ns")->Snapshot().count -
                latency0);
}

TEST_F(ObsIntegrationTest, SnapshotIoCountersAdvance) {
  obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  metrics.SetEnabled(true);
  const uint64_t writes0 =
      metrics.GetCounter("gbkmv_snapshot_writes_total")->Value();
  const uint64_t reads0 =
      metrics.GetCounter("gbkmv_snapshot_reads_total")->Value();
  const uint64_t write_bytes0 =
      metrics.GetCounter("gbkmv_snapshot_write_bytes_total")->Value();

  const std::string path =
      ::testing::TempDir() + "/obs_integration_snapshot.snap";
  io::SnapshotWriter writer;
  io::WriteSnapshotMeta(&writer, "obs-test", /*fingerprint=*/42);
  ASSERT_TRUE(writer.WriteTo(path).ok());
  Result<io::SnapshotReader> reader = io::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok());

  EXPECT_EQ(1u, metrics.GetCounter("gbkmv_snapshot_writes_total")->Value() -
                    writes0);
  EXPECT_EQ(1u, metrics.GetCounter("gbkmv_snapshot_reads_total")->Value() -
                    reads0);
  EXPECT_GT(metrics.GetCounter("gbkmv_snapshot_write_bytes_total")->Value(),
            write_bytes0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gbkmv
