// The micro-batcher's contract (src/server/batcher.h): grouping queries
// into batches never changes what they compute. For every combination of
// batch window, worker count and max batch size, responses coming back
// through MicroBatcher + MakeServiceExecutor must be bit-identical — hit
// ids, float scores, stats — to direct sequential Serve() calls. Plus:
// admission control sheds instead of queueing unboundedly, a manifest
// swap mid-traffic never mixes versions within or across batches (every
// response matches the answer of exactly the epoch it reports), the
// adaptive window reacts to load, and Drain() flushes everything exactly
// once.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/containment.h"
#include "data/synthetic.h"
#include "eval/ground_truth.h"
#include "index/query.h"
#include "serve/sharded_service.h"
#include "server/batcher.h"

namespace gbkmv {
namespace server {
namespace {

using serve::BuildShardedService;
using serve::ShardedContainmentService;

Dataset MakeDataset(uint64_t seed, size_t num_records = 300) {
  SyntheticConfig c;
  c.num_records = num_records;
  c.universe_size = 2000;
  c.min_record_size = 8;
  c.max_record_size = 80;
  c.alpha_element_freq = 1.1;
  c.alpha_record_size = 2.0;
  c.seed = seed;
  return std::move(GenerateSynthetic(c).value());
}

std::shared_ptr<ShardedContainmentService> MakeService(
    const Dataset& dataset, size_t num_shards = 2) {
  SearcherConfig config;
  config.method = SearchMethod::kFreqSet;
  config.sharded.num_shards = num_shards;
  Result<std::unique_ptr<ShardedContainmentService>> service =
      BuildShardedService(dataset, config);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::shared_ptr<ShardedContainmentService>(std::move(*service));
}

std::vector<Record> MakeQueries(const Dataset& dataset, size_t count,
                                uint64_t seed = 99) {
  std::vector<Record> queries;
  for (RecordId id : SampleQueries(dataset, count, seed)) {
    queries.push_back(dataset.record(id));
  }
  return queries;
}

// Direct sequential ground truth for one query against one service.
QueryResponse DirectServe(ShardedContainmentService& service,
                          const Record& query, double threshold,
                          size_t top_k) {
  QueryRequest request(query, threshold);
  request.top_k = top_k;
  request.want_stats = true;
  return service.Serve(request);
}

void ExpectBitIdentical(const QueryResponse& got, const QueryResponse& want) {
  ASSERT_EQ(want.hits.size(), got.hits.size());
  for (size_t i = 0; i < want.hits.size(); ++i) {
    EXPECT_EQ(want.hits[i].id, got.hits[i].id);
    EXPECT_EQ(want.hits[i].score, got.hits[i].score);  // bit-identical float
  }
  EXPECT_EQ(want.stats.candidates_generated, got.stats.candidates_generated);
  EXPECT_EQ(want.stats.candidates_refined, got.stats.candidates_refined);
  EXPECT_EQ(want.stats.postings_scanned, got.stats.postings_scanned);
  EXPECT_EQ(want.stats.heap_evictions, got.stats.heap_evictions);
  EXPECT_EQ(want.stats.shards_queried, got.stats.shards_queried);
  // stats.cache_hits is deliberately not compared: the service's query
  // cache is shared state, so hit counts depend on execution order.
}

// --- batching == sequential ------------------------------------------------

TEST(BatcherTest, BatchedResponsesBitIdenticalToSequentialServe) {
  const Dataset dataset = MakeDataset(20260801);
  std::shared_ptr<ShardedContainmentService> service = MakeService(dataset);
  const std::vector<Record> queries = MakeQueries(dataset, 48);
  constexpr double kThreshold = 0.4;
  constexpr size_t kTopK = 10;

  std::vector<QueryResponse> expected;
  for (const Record& q : queries) {
    expected.push_back(DirectServe(*service, q, kThreshold, kTopK));
  }

  const ServiceSnapshot snapshot{service, 7};
  constexpr uint64_t kWindowsUs[] = {0, 200, 5000};
  constexpr size_t kWorkers[] = {1, 2};
  constexpr size_t kMaxBatches[] = {1, 8};

  for (uint64_t window_us : kWindowsUs) {
    for (size_t workers : kWorkers) {
      for (size_t max_batch : kMaxBatches) {
        SCOPED_TRACE(::testing::Message()
                     << "window_us=" << window_us << " workers=" << workers
                     << " max_batch=" << max_batch);
        BatcherOptions options;
        options.max_batch = max_batch;
        options.max_window_us = window_us;
        options.num_workers = workers;
        MicroBatcher batcher(
            MakeServiceExecutor([&] { return snapshot; }, /*num_threads=*/2),
            options);

        std::mutex mu;
        std::vector<QueryResponse> got(queries.size());
        std::vector<uint64_t> epochs(queries.size(), 0);
        std::atomic<size_t> done_count{0};
        for (size_t i = 0; i < queries.size(); ++i) {
          PendingQuery query;
          query.record = queries[i];
          query.threshold = kThreshold;
          query.top_k = kTopK;
          query.want_stats = true;
          query.done = [&, i](QueryResponse response, uint64_t epoch) {
            std::lock_guard<std::mutex> lock(mu);
            got[i] = std::move(response);
            epochs[i] = epoch;
            done_count.fetch_add(1);
          };
          ASSERT_TRUE(batcher.Submit(std::move(query)));
        }
        batcher.Drain();

        ASSERT_EQ(queries.size(), done_count.load());
        for (size_t i = 0; i < queries.size(); ++i) {
          SCOPED_TRACE(::testing::Message() << "query " << i);
          EXPECT_EQ(7u, epochs[i]);
          ExpectBitIdentical(got[i], expected[i]);
        }
        const MicroBatcher::Stats stats = batcher.stats();
        EXPECT_EQ(queries.size(), stats.submitted);
        EXPECT_EQ(0u, stats.shed);
        EXPECT_EQ(stats.batches, stats.size_flushes + stats.deadline_flushes);
      }
    }
  }
}

// --- reload under traffic --------------------------------------------------

// Two services over different datasets answer the same queries differently.
// While submitter threads pump queries, the snapshot swaps from epoch 1 to
// epoch 2 mid-stream. Every response must match exactly the answer of the
// epoch it reports — a response pairing epoch 1 with service-2 results (or
// vice versa) means a batch straddled the swap, which the per-batch
// snapshot makes impossible.
TEST(BatcherTest, ReloadUnderTrafficNeverMixesVersions) {
  const Dataset dataset_a = MakeDataset(111, 250);
  const Dataset dataset_b = MakeDataset(222, 250);
  std::shared_ptr<ShardedContainmentService> service_a =
      MakeService(dataset_a);
  std::shared_ptr<ShardedContainmentService> service_b =
      MakeService(dataset_b);
  const std::vector<Record> queries = MakeQueries(dataset_a, 16);
  constexpr double kThreshold = 0.3;
  constexpr size_t kTopK = 8;

  std::vector<QueryResponse> expected_a;
  std::vector<QueryResponse> expected_b;
  for (const Record& q : queries) {
    expected_a.push_back(DirectServe(*service_a, q, kThreshold, kTopK));
    expected_b.push_back(DirectServe(*service_b, q, kThreshold, kTopK));
  }

  std::mutex snapshot_mu;
  ServiceSnapshot snapshot{service_a, 1};
  auto snapshot_fn = [&] {
    std::lock_guard<std::mutex> lock(snapshot_mu);
    return snapshot;
  };

  BatcherOptions options;
  options.max_batch = 4;
  options.max_window_us = 100;
  options.num_workers = 2;
  MicroBatcher batcher(MakeServiceExecutor(snapshot_fn, /*num_threads=*/1),
                       options);

  struct Observation {
    size_t query_index;
    uint64_t epoch;
    QueryResponse response;
  };
  std::mutex obs_mu;
  std::condition_variable obs_cv;
  std::vector<Observation> observations;
  size_t seen[3] = {0, 0, 0};  // responses observed per epoch (1, 2)
  std::atomic<bool> stop{false};

  constexpr size_t kSubmitters = 3;
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t qi = i % queries.size();
        PendingQuery query;
        query.record = queries[qi];
        query.threshold = kThreshold;
        query.top_k = kTopK;
        query.want_stats = true;
        query.done = [&, qi](QueryResponse response, uint64_t epoch) {
          {
            std::lock_guard<std::mutex> lock(obs_mu);
            if (epoch < 3) ++seen[epoch];
            observations.push_back({qi, epoch, std::move(response)});
          }
          obs_cv.notify_all();
        };
        (void)batcher.Submit(std::move(query));
        ++i;
      }
    });
  }

  // Let epoch-1 traffic flow, swap, let epoch-2 traffic flow. Each phase
  // ends only once a response of its epoch has been observed, never after
  // a fixed sleep, so a slow or contended machine cannot starve an epoch.
  const auto wait_for_epoch = [&](uint64_t epoch) {
    std::unique_lock<std::mutex> lock(obs_mu);
    obs_cv.wait(lock, [&] { return seen[epoch] > 0; });
  };
  wait_for_epoch(1);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu);
    snapshot = ServiceSnapshot{service_b, 2};
  }
  wait_for_epoch(2);
  stop.store(true);
  for (std::thread& t : submitters) t.join();
  batcher.Drain();

  size_t epoch1 = 0;
  size_t epoch2 = 0;
  for (const Observation& obs : observations) {
    SCOPED_TRACE(::testing::Message() << "query " << obs.query_index
                                      << " epoch " << obs.epoch);
    ASSERT_TRUE(obs.epoch == 1 || obs.epoch == 2);
    const QueryResponse& want = obs.epoch == 1 ? expected_a[obs.query_index]
                                               : expected_b[obs.query_index];
    ExpectBitIdentical(obs.response, want);
    (obs.epoch == 1 ? epoch1 : epoch2)++;
  }
  // Both epochs actually served traffic, so the check above covered the
  // transition rather than a degenerate all-old or all-new run.
  EXPECT_GT(epoch1, 0u);
  EXPECT_GT(epoch2, 0u);
}

// --- admission control -----------------------------------------------------

TEST(BatcherTest, ShedsWhenQueueAndInflightBoundsHit) {
  // Executor blocks until released, so admitted queries pin the in-flight
  // count deterministically.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<size_t> done_calls{0};
  BatchExecutor executor = [&](std::vector<PendingQuery> batch) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    for (PendingQuery& q : batch) {
      q.done(QueryResponse{}, 1);
      done_calls.fetch_add(1);
    }
  };

  BatcherOptions options;
  options.max_batch = 1;  // every admitted query becomes its own batch
  options.max_window_us = 0;
  options.num_workers = 1;
  options.max_queue_depth = 2;
  options.max_inflight = 3;
  MicroBatcher batcher(executor, options);

  auto submit_one = [&] {
    PendingQuery query;
    query.record = MakeRecord({1, 2, 3});
    query.done = [](QueryResponse, uint64_t) {};
    return batcher.Submit(std::move(query));
  };

  // One query enters the executor (blocked); two more fill the queue.
  ASSERT_TRUE(submit_one());
  // Wait until the worker picked it up, so queue depth is deterministic.
  for (int i = 0; i < 20000 && batcher.queue_depth() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(0u, batcher.queue_depth());
  ASSERT_TRUE(submit_one());
  ASSERT_TRUE(submit_one());
  // queue=2 (== max_queue_depth) and pending+executing=3 (== max_inflight):
  // both bounds now shed.
  EXPECT_FALSE(submit_one());
  EXPECT_FALSE(submit_one());

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  batcher.Drain();

  const MicroBatcher::Stats stats = batcher.stats();
  EXPECT_EQ(3u, stats.submitted);
  EXPECT_EQ(2u, stats.shed);
  EXPECT_EQ(3u, done_calls.load());

  // After Drain, everything sheds.
  EXPECT_FALSE(submit_one());
}

// --- adaptive window -------------------------------------------------------

TEST(BatcherTest, WindowShrinksOnLoneDeadlineFlushesAndGrowsOnSizeFlushes) {
  // The gate lets the test pin the worker inside the executor while it
  // stages a full-size batch in the queue, making the size flush (and the
  // window growth it triggers) deterministic instead of scheduler-luck.
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = true;
  std::atomic<size_t> completed{0};
  BatchExecutor executor = [&](std::vector<PendingQuery> batch) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return gate_open; });
    }
    for (PendingQuery& q : batch) q.done(QueryResponse{}, 1);
    completed.fetch_add(batch.size());
  };

  BatcherOptions options;
  options.max_batch = 4;
  options.max_window_us = 512;
  options.num_workers = 1;
  MicroBatcher batcher(executor, options);
  ASSERT_EQ(512u, batcher.current_window_us());

  auto submit_n = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      PendingQuery query;
      query.record = MakeRecord({1, 2, 3});
      query.done = [](QueryResponse, uint64_t) {};
      ASSERT_TRUE(batcher.Submit(std::move(query)));
    }
  };
  auto wait_completed = [&](size_t target) {
    for (int i = 0; i < 20000 && completed.load() < target; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_GE(completed.load(), target);
  };

  // Lone queries, spaced out (each waits for its completion): every flush
  // is a deadline flush of one, and the window halves until it hits zero.
  size_t sent = 0;
  for (int i = 0; i < 12; ++i) {
    submit_n(1);
    wait_completed(++sent);
  }
  EXPECT_EQ(0u, batcher.current_window_us());

  // Close the gate, park the worker on a sacrificial query, stage a full
  // batch behind it, reopen: the worker's next grab is exactly max_batch —
  // a size flush, which re-opens the window from zero.
  {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = false;
  }
  submit_n(1);
  ++sent;
  for (int i = 0; i < 20000 && batcher.queue_depth() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(0u, batcher.queue_depth());  // worker holds the sacrificial one
  submit_n(options.max_batch);
  sent += options.max_batch;
  {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = true;
  }
  cv.notify_all();
  wait_completed(sent);
  EXPECT_GT(batcher.current_window_us(), 0u);
  EXPECT_LE(batcher.current_window_us(), options.max_window_us);

  batcher.Drain();
  const MicroBatcher::Stats stats = batcher.stats();
  EXPECT_GE(stats.deadline_flushes, 12u);
  EXPECT_GE(stats.size_flushes, 1u);
}

// --- drain -----------------------------------------------------------------

TEST(BatcherTest, DrainFlushesEveryQueuedQueryExactlyOnce) {
  std::atomic<size_t> done_calls{0};
  BatchExecutor executor = [&](std::vector<PendingQuery> batch) {
    // Slow executor so Drain() has a real queue to flush.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (PendingQuery& q : batch) q.done(QueryResponse{}, 1);
  };

  BatcherOptions options;
  options.max_batch = 8;
  options.max_window_us = 50000;  // long window: Drain must not wait it out
  options.num_workers = 2;
  MicroBatcher batcher(executor, options);

  constexpr size_t kQueries = 64;
  for (size_t i = 0; i < kQueries; ++i) {
    PendingQuery query;
    query.record = MakeRecord({1, 2, 3});
    query.done = [&](QueryResponse, uint64_t) { done_calls.fetch_add(1); };
    ASSERT_TRUE(batcher.Submit(std::move(query)));
  }
  batcher.Drain();
  EXPECT_EQ(kQueries, done_calls.load());
  batcher.Drain();  // idempotent
  EXPECT_EQ(kQueries, done_calls.load());
}

}  // namespace
}  // namespace server
}  // namespace gbkmv
