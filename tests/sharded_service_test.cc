// The sharded service's core invariant, enforced here rather than by
// convention: for every supported method, partitioner, shard count and
// worker thread count, the fan-out/fan-in answer — hit ids, float scores,
// and merged top-k order — is bit-identical to the single-shard searcher
// built directly over the full dataset. Plus: query-cache correctness
// (including invalidation on ingest), live ingest/promotion/compaction, and
// the shard-manifest round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <random>
#include <set>

#include "core/containment.h"
#include "data/synthetic.h"
#include "eval/ground_truth.h"
#include "index/brute_force.h"
#include "index/dynamic_index.h"
#include "index/freqset.h"
#include "index/gbkmv_index.h"
#include "index/minhash_lsh.h"
#include "index/ppjoin.h"
#include "index/searcher_registry.h"
#include "io/snapshot.h"
#include "obs/metrics.h"
#include "serve/merge.h"
#include "serve/partitioner.h"
#include "serve/query_cache.h"
#include "serve/sharded_service.h"

namespace gbkmv {
namespace {

using serve::PartitionDataset;
using serve::QueryCacheStats;
using serve::ShardedContainmentService;

constexpr size_t kShardCounts[] = {1, 2, 4, 8};
constexpr size_t kThreadCounts[] = {1, 2, 8};

const Dataset& TestDataset() {
  static const Dataset* dataset = [] {
    SyntheticConfig c;
    c.num_records = 400;
    c.universe_size = 3000;
    c.min_record_size = 10;
    c.max_record_size = 120;
    c.alpha_element_freq = 1.1;
    c.alpha_record_size = 2.0;
    c.seed = 20260729;
    return new Dataset(std::move(GenerateSynthetic(c).value()));
  }();
  return *dataset;
}

std::vector<Record> TestQueries(size_t count, uint64_t seed = 77) {
  const Dataset& ds = TestDataset();
  std::vector<Record> queries;
  for (RecordId id : SampleQueries(ds, count, seed)) {
    queries.push_back(ds.record(id));
  }
  return queries;
}

// Distinct queries (sampling repeats ids), for the cache tests where each
// request must be its own cache entry.
std::vector<Record> UniqueTestQueries(size_t count, uint64_t seed = 77) {
  const Dataset& ds = TestDataset();
  std::set<RecordId> seen;
  std::vector<Record> queries;
  for (RecordId id : SampleQueries(ds, 4 * count, seed)) {
    if (queries.size() == count) break;
    if (seen.insert(id).second) queries.push_back(ds.record(id));
  }
  return queries;
}

SearcherConfig ServiceConfig(SearchMethod method, size_t num_shards,
                             ShardPartitioner partitioner =
                                 ShardPartitioner::kHash) {
  SearcherConfig config;
  config.method = method;
  config.lshe_num_hashes = 64;  // keep MinHash-LSH fast
  config.sharded.num_shards = num_shards;
  config.sharded.partitioner = partitioner;
  return config;
}

// The three request shapes of the v2 API over one query list.
std::vector<QueryRequest> MakeRequests(const std::vector<Record>& queries,
                                       double threshold, size_t top_k,
                                       bool want_scores) {
  std::vector<QueryRequest> requests;
  requests.reserve(queries.size());
  for (const Record& q : queries) {
    QueryRequest request(q, threshold);
    request.top_k = top_k;
    request.want_scores = want_scores;
    request.want_stats = true;
    requests.push_back(request);
  }
  return requests;
}

std::vector<RecordId> SortedIds(const std::vector<QueryHit>& hits) {
  std::vector<RecordId> ids;
  ids.reserve(hits.size());
  for (const QueryHit& hit : hits) ids.push_back(hit.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// A searcher built fresh over exactly the live records (ascending global
// id) with the service's pinned global parameters — the sketcher
// (GB-KMV/G-KMV) or record-size hint (MinHash-LSH) that Build derives from
// the base dataset — answering in global ids through the service's own
// merge. What a service must match, hits and float scores, after every
// mutation.
class FreshReference {
 public:
  explicit FreshReference(const SearcherConfig& config) : config_(config) {
    const Dataset& base = TestDataset();
    if (config.method == SearchMethod::kGbKmv ||
        config.method == SearchMethod::kGKmv) {
      GbKmvIndexOptions options;
      options.space_ratio = config.space_ratio;
      options.buffer_bits =
          config.method == SearchMethod::kGKmv ? 0 : config.buffer_bits;
      options.seed = config.seed;
      sketcher_ = std::make_unique<GbKmvSketcher>(
          GbKmvIndexSearcher::MakeSketcher(base, options).value());
    }
    for (const Record& r : base.records()) {
      minhash_hint_ = std::max(minhash_hint_, r.size());
    }
  }

  std::vector<QueryResponse> Serve(
      const std::map<RecordId, Record>& live,
      const std::vector<QueryRequest>& requests) const {
    std::vector<RecordId> gids;
    std::vector<Record> records;
    for (const auto& [gid, record] : live) {
      gids.push_back(gid);
      records.push_back(record);
    }
    const Dataset dataset = Dataset::Create(std::move(records)).value();
    std::unique_ptr<ContainmentSearcher> searcher;
    switch (config_.method) {
      case SearchMethod::kGbKmv:
      case SearchMethod::kGKmv:
        searcher =
            GbKmvIndexSearcher::CreateWithSketcher(dataset, *sketcher_, 1)
                .value();
        break;
      case SearchMethod::kFreqSet:
        searcher = std::make_unique<FreqSetSearcher>(dataset);
        break;
      case SearchMethod::kPPJoin:
        searcher = std::make_unique<PPJoinSearcher>(dataset);
        break;
      case SearchMethod::kBruteForce:
        searcher = std::make_unique<BruteForceSearcher>(dataset);
        break;
      case SearchMethod::kMinHashLsh: {
        MinHashLshOptions options;
        options.num_hashes = config_.lshe_num_hashes;
        options.seed = config_.seed;
        options.num_threads = 1;
        options.max_record_size_hint = minhash_hint_;
        searcher = MinHashLshSearcher::Create(dataset, options).value();
        break;
      }
      default:
        ADD_FAILURE() << "no reference for this method";
        return {};
    }
    std::vector<QueryResponse> responses;
    for (const QueryRequest& request : requests) {
      const QueryResponse local =
          searcher->SearchQ(request, ThreadLocalQueryContext());
      const serve::ShardPartial part{&local, gids};
      responses.push_back(serve::MergeShardResponses(
          request, std::span<const serve::ShardPartial>(&part, 1)));
    }
    return responses;
  }

 private:
  SearcherConfig config_;
  std::unique_ptr<GbKmvSketcher> sketcher_;
  size_t minhash_hint_ = 0;
};

// The service's hits (ids and float scores) for threshold and top-k
// requests over `queries` equal the fresh reference's.
::testing::AssertionResult MatchesFreshBuild(
    ShardedContainmentService& service, const FreshReference& reference,
    const std::map<RecordId, Record>& live,
    const std::vector<Record>& queries) {
  for (size_t top_k : {size_t{0}, size_t{5}}) {
    const std::vector<QueryRequest> requests =
        MakeRequests(queries, 0.3, top_k, true);
    const std::vector<QueryResponse> expected =
        reference.Serve(live, requests);
    const std::vector<QueryResponse> actual = service.BatchServe(requests, 2);
    for (size_t i = 0; i < requests.size(); ++i) {
      if (expected[i].hits != actual[i].hits) {
        return ::testing::AssertionFailure()
               << "top_k=" << top_k << " q" << i << ": expected "
               << expected[i].hits.size() << " hits, served "
               << actual[i].hits.size();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// --- partitioners ---------------------------------------------------------

TEST(PartitionerTest, EveryRecordInExactlyOneShardAscending) {
  const Dataset& ds = TestDataset();
  for (ShardPartitioner kind :
       {ShardPartitioner::kHash, ShardPartitioner::kSizeStratified}) {
    for (size_t num_shards : kShardCounts) {
      const auto shards = PartitionDataset(ds, num_shards, kind);
      ASSERT_LE(shards.size(), num_shards);
      std::set<RecordId> seen;
      for (const std::vector<RecordId>& shard : shards) {
        ASSERT_FALSE(shard.empty());
        ASSERT_TRUE(std::is_sorted(shard.begin(), shard.end()));
        for (RecordId id : shard) {
          ASSERT_TRUE(seen.insert(id).second) << "duplicate id " << id;
        }
      }
      EXPECT_EQ(ds.size(), seen.size());
      // Pure function of (records, S).
      EXPECT_EQ(shards, PartitionDataset(ds, num_shards, kind));
    }
  }
}

TEST(PartitionerTest, ShardCountClampedToRecords) {
  Result<Dataset> tiny = Dataset::Create(
      {MakeRecord({1, 2, 3}), MakeRecord({2, 3, 4})}, "tiny");
  ASSERT_TRUE(tiny.ok());
  const auto shards =
      PartitionDataset(*tiny, 8, ShardPartitioner::kSizeStratified);
  EXPECT_EQ(2u, shards.size());
}

TEST(PartitionerTest, SizeStratifiedSpreadsSizes) {
  const Dataset& ds = TestDataset();
  const auto shards =
      PartitionDataset(ds, 4, ShardPartitioner::kSizeStratified);
  ASSERT_EQ(4u, shards.size());
  // Every shard must hold some of the smallest and some of the largest
  // records: max size per shard within 2x of each other is far too strict
  // for hash, trivially true for strata.
  std::vector<size_t> max_size(shards.size(), 0);
  for (size_t s = 0; s < shards.size(); ++s) {
    for (RecordId id : shards[s]) {
      max_size[s] = std::max(max_size[s], ds.record(id).size());
    }
  }
  const auto [lo, hi] = std::minmax_element(max_size.begin(), max_size.end());
  EXPECT_GE(*lo * 2, *hi);
}

// --- the bit-identical sharding invariant ---------------------------------

struct GridCase {
  SearchMethod method;
  std::vector<size_t> shard_counts;
  std::vector<ShardPartitioner> partitioners;
};

// GB-KMV (the paper's method) and FreqSet (exact) sweep the full acceptance
// grid; the other supported methods cover a reduced diagonal.
std::vector<GridCase> InvarianceGrid() {
  const std::vector<size_t> full(std::begin(kShardCounts),
                                 std::end(kShardCounts));
  const std::vector<ShardPartitioner> both = {
      ShardPartitioner::kHash, ShardPartitioner::kSizeStratified};
  return {
      {SearchMethod::kGbKmv, full, both},
      {SearchMethod::kFreqSet, full, both},
      {SearchMethod::kGKmv, {1, 4}, {ShardPartitioner::kHash}},
      {SearchMethod::kPPJoin, {1, 4}, {ShardPartitioner::kSizeStratified}},
      {SearchMethod::kMinHashLsh, {1, 4}, {ShardPartitioner::kHash}},
      {SearchMethod::kBruteForce, {4}, {ShardPartitioner::kHash}},
  };
}

TEST(ShardedServiceTest, BitIdenticalToSingleSearcherAcrossGrid) {
  const Dataset& ds = TestDataset();
  const std::vector<Record> queries = TestQueries(40);
  const double threshold = 0.5;
  const auto scored = MakeRequests(queries, threshold, 0, true);
  const auto topk = MakeRequests(queries, threshold, 5, true);
  const auto boolean = MakeRequests(queries, threshold, 0, false);

  for (const GridCase& grid : InvarianceGrid()) {
    const SearcherConfig single_config = ServiceConfig(grid.method, 1);
    Result<std::unique_ptr<ContainmentSearcher>> single =
        BuildSearcher(ds, single_config);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    const auto expect_scored = (*single)->BatchSearchQ(scored, 1);
    const auto expect_topk = (*single)->BatchSearchQ(topk, 1);
    const auto expect_boolean = (*single)->BatchSearchQ(boolean, 1);

    for (ShardPartitioner partitioner : grid.partitioners) {
      for (size_t num_shards : grid.shard_counts) {
        Result<std::unique_ptr<ShardedContainmentService>> service =
            serve::BuildShardedService(
                ds, ServiceConfig(grid.method, num_shards, partitioner));
        ASSERT_TRUE(service.ok()) << service.status().ToString();
        for (size_t threads : kThreadCounts) {
          const std::string where =
              (*single)->name() + " S=" + std::to_string(num_shards) +
              " threads=" + std::to_string(threads) + " partitioner=" +
              std::to_string(static_cast<int>(partitioner));

          const auto got_scored = (*service)->BatchServe(scored, threads);
          const auto got_topk = (*service)->BatchServe(topk, threads);
          const auto got_boolean = (*service)->BatchServe(boolean, threads);
          ASSERT_EQ(queries.size(), got_scored.size());
          for (size_t i = 0; i < queries.size(); ++i) {
            // Scored unlimited and top-k: hits AND float scores, in order.
            EXPECT_EQ(expect_scored[i].hits, got_scored[i].hits)
                << where << " scored query " << i;
            EXPECT_EQ(expect_topk[i].hits, got_topk[i].hits)
                << where << " topk query " << i;
            // Boolean: the service canonicalises to ascending id; compare
            // as id sets against the searcher's natural order.
            EXPECT_EQ(SortedIds(expect_boolean[i].hits),
                      SortedIds(got_boolean[i].hits))
                << where << " boolean query " << i;
            EXPECT_TRUE(std::is_sorted(
                got_boolean[i].hits.begin(), got_boolean[i].hits.end(),
                [](const QueryHit& a, const QueryHit& b) {
                  return a.id < b.id;
                }))
                << where << " boolean order " << i;
          }
        }
      }
    }
  }
}

// At a fixed shard count the full response — stats included — must be
// invariant under the worker thread count.
TEST(ShardedServiceTest, FullResponseThreadInvariantAtFixedShardCount) {
  const Dataset& ds = TestDataset();
  const std::vector<Record> queries = TestQueries(30);
  for (size_t top_k : {size_t{0}, size_t{5}}) {
    const auto requests = MakeRequests(queries, 0.5, top_k, true);
    Result<std::unique_ptr<ShardedContainmentService>> service =
        serve::BuildShardedService(ds,
                                   ServiceConfig(SearchMethod::kGbKmv, 4));
    ASSERT_TRUE(service.ok());
    const auto expected = (*service)->BatchServe(requests, 1);
    for (size_t threads : {size_t{2}, size_t{8}}) {
      const auto actual = (*service)->BatchServe(requests, threads);
      ASSERT_EQ(expected.size(), actual.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].hits, actual[i].hits)
            << "threads=" << threads << " top_k=" << top_k << " q" << i;
        EXPECT_EQ(expected[i].stats, actual[i].stats)
            << "threads=" << threads << " top_k=" << top_k << " q" << i;
      }
    }
  }
}

// GB-KMV per-record work is shard-independent, so the summed index counters
// equal the single searcher's exactly (the serving-layer fields aside) —
// the fan-out does the same work, just spread out.
TEST(ShardedServiceTest, GbKmvStatsSumToSingleSearcherCounters) {
  const Dataset& ds = TestDataset();
  const std::vector<Record> queries = TestQueries(20);
  const auto requests = MakeRequests(queries, 0.5, 0, true);
  Result<std::unique_ptr<ContainmentSearcher>> single =
      BuildSearcher(ds, ServiceConfig(SearchMethod::kGbKmv, 1));
  ASSERT_TRUE(single.ok());
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, ServiceConfig(SearchMethod::kGbKmv, 4));
  ASSERT_TRUE(service.ok());
  const auto expected = (*single)->BatchSearchQ(requests, 1);
  const auto actual = (*service)->BatchServe(requests, 1);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(expected[i].stats.candidates_generated,
              actual[i].stats.candidates_generated) << "q" << i;
    EXPECT_EQ(expected[i].stats.candidates_refined,
              actual[i].stats.candidates_refined) << "q" << i;
    EXPECT_EQ(expected[i].stats.postings_scanned,
              actual[i].stats.postings_scanned) << "q" << i;
    EXPECT_EQ(4u, actual[i].stats.shards_queried) << "q" << i;
  }
}

TEST(ShardedServiceTest, SpaceUnitsSumToSingleIndex) {
  const Dataset& ds = TestDataset();
  Result<std::unique_ptr<ContainmentSearcher>> single =
      BuildSearcher(ds, ServiceConfig(SearchMethod::kGbKmv, 1));
  ASSERT_TRUE(single.ok());
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, ServiceConfig(SearchMethod::kGbKmv, 4));
  ASSERT_TRUE(service.ok());
  // Sketch payloads are identical record-for-record; only the per-shard
  // posting/probe tables differ, and those are part of SpaceUnits, so allow
  // the structural overhead to move the total a little.
  const double single_units = static_cast<double>((*single)->SpaceUnits());
  const double sharded_units = static_cast<double>((*service)->SpaceUnits());
  EXPECT_LT(std::abs(sharded_units - single_units), 0.25 * single_units);
}

TEST(ShardedServiceTest, UnsupportedMethodsRejected) {
  const Dataset& ds = TestDataset();
  for (SearchMethod method :
       {SearchMethod::kKmv, SearchMethod::kLshEnsemble,
        SearchMethod::kAsymmetricMinHash}) {
    Result<std::unique_ptr<ShardedContainmentService>> service =
        serve::BuildShardedService(ds, ServiceConfig(method, 2));
    EXPECT_FALSE(service.ok());
    EXPECT_EQ(StatusCode::kInvalidArgument, service.status().code());
  }
}

// --- query-result cache ---------------------------------------------------

TEST(ShardedServiceTest, CacheServesIdenticalResponsesAndCounts) {
  const Dataset& ds = TestDataset();
  const std::vector<Record> queries = UniqueTestQueries(20);
  const auto requests = MakeRequests(queries, 0.5, 10, true);
  SearcherConfig config = ServiceConfig(SearchMethod::kGbKmv, 4);
  config.sharded.cache_capacity = 64;
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, config);
  ASSERT_TRUE(service.ok());

  const auto first = (*service)->BatchServe(requests, 2);
  QueryCacheStats stats = (*service)->cache_stats();
  EXPECT_EQ(0u, stats.hits);
  EXPECT_EQ(requests.size(), stats.misses);
  EXPECT_EQ(requests.size(), stats.entries);

  const auto second = (*service)->BatchServe(requests, 2);
  stats = (*service)->cache_stats();
  EXPECT_EQ(requests.size(), stats.hits);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(first[i].hits, second[i].hits) << "q" << i;
    EXPECT_EQ(0u, first[i].stats.cache_hits);
    EXPECT_EQ(1u, second[i].stats.cache_hits);
    EXPECT_EQ(first[i].stats.candidates_refined,
              second[i].stats.candidates_refined);
  }
}

TEST(ShardedServiceTest, CacheKeyCoversEveryRequestField) {
  const Dataset& ds = TestDataset();
  const Record query = ds.record(0);
  SearcherConfig config = ServiceConfig(SearchMethod::kFreqSet, 2);
  config.sharded.cache_capacity = 16;
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, config);
  ASSERT_TRUE(service.ok());

  QueryRequest a(query, 0.5);
  QueryRequest b(query, 0.4);  // different threshold
  QueryRequest c(query, 0.5);
  c.top_k = 3;  // different top_k
  (void)(*service)->Serve(a, 1);
  (void)(*service)->Serve(b, 1);
  (void)(*service)->Serve(c, 1);
  const QueryCacheStats stats = (*service)->cache_stats();
  EXPECT_EQ(0u, stats.hits);
  EXPECT_EQ(3u, stats.misses);
  EXPECT_EQ(3u, stats.entries);
}

TEST(ShardedServiceTest, CacheEvictsLeastRecentlyUsed) {
  const Dataset& ds = TestDataset();
  const std::vector<Record> queries = UniqueTestQueries(8, /*seed=*/123);
  SearcherConfig config = ServiceConfig(SearchMethod::kFreqSet, 2);
  config.sharded.cache_capacity = 4;
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, config);
  ASSERT_TRUE(service.ok());
  const auto requests = MakeRequests(queries, 0.5, 0, true);
  (void)(*service)->BatchServe(requests, 1);
  const QueryCacheStats stats = (*service)->cache_stats();
  EXPECT_EQ(4u, stats.entries);
  EXPECT_EQ(requests.size() - 4, stats.evictions);
}

// Within-batch duplicates must behave exactly like back-to-back Serve
// calls: computed once, later copies served from the cache as hits.
TEST(ShardedServiceTest, BatchDuplicatesMatchSequentialServe) {
  const Dataset& ds = TestDataset();
  SearcherConfig config = ServiceConfig(SearchMethod::kGbKmv, 2);
  config.sharded.cache_capacity = 16;
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, config);
  ASSERT_TRUE(service.ok());

  const Record query = ds.record(3);
  QueryRequest request(query, 0.5);
  request.top_k = 5;
  const std::vector<QueryRequest> batch = {request, request, request};
  const auto responses = (*service)->BatchServe(batch, 2);
  EXPECT_EQ(0u, responses[0].stats.cache_hits);
  EXPECT_EQ(1u, responses[1].stats.cache_hits);
  EXPECT_EQ(1u, responses[2].stats.cache_hits);
  EXPECT_EQ(responses[0].hits, responses[1].hits);
  EXPECT_EQ(responses[0].hits, responses[2].hits);
  const QueryCacheStats stats = (*service)->cache_stats();
  EXPECT_EQ(2u, stats.hits);    // the two duplicates, in the fill pass
  EXPECT_EQ(1u, stats.misses);  // only the first occurrence
  EXPECT_EQ(1u, stats.entries);

  // Without a cache, duplicates still collapse to one computation and all
  // copies carry the identical (deterministic) response.
  Result<std::unique_ptr<ShardedContainmentService>> uncached =
      serve::BuildShardedService(ds, ServiceConfig(SearchMethod::kGbKmv, 2));
  ASSERT_TRUE(uncached.ok());
  const auto plain = (*uncached)->BatchServe(batch, 2);
  EXPECT_EQ(plain[0].hits, plain[1].hits);
  EXPECT_EQ(plain[0].stats, plain[1].stats);
  EXPECT_EQ(0u, plain[1].stats.cache_hits);
}

// --- live ingest, promotion, compaction -----------------------------------

TEST(ShardedServiceTest, IngestInvalidatesCacheAndServesNewRecord) {
  const Dataset& ds = TestDataset();
  SearcherConfig config = ServiceConfig(SearchMethod::kFreqSet, 2);
  config.sharded.cache_capacity = 32;
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, config);
  ASSERT_TRUE(service.ok());

  const Record probe = MakeRecord({9001, 9002, 9003, 9004});
  QueryRequest request(probe, 0.5);
  const QueryResponse before = (*service)->Serve(request, 1);
  EXPECT_TRUE(before.hits.empty());
  // Cached now: the same request hits.
  EXPECT_EQ(1u, (*service)->Serve(request, 1).stats.cache_hits);

  // An identical record must qualify (containment 1), but a stale cache
  // entry would keep answering "nothing".
  const RecordId gid = (*service)->Ingest(probe).value();
  EXPECT_EQ(ds.size(), gid);
  const QueryResponse after = (*service)->Serve(request, 1);
  EXPECT_EQ(0u, after.stats.cache_hits);
  const std::vector<RecordId> ids = SortedIds(after.hits);
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), gid) != ids.end())
      << "ingested record not served";
  const QueryCacheStats stats = (*service)->cache_stats();
  EXPECT_GE(stats.invalidations, 1u);
}

TEST(ShardedServiceTest, PromotionKeepsGlobalIdsAndExactScores) {
  const Dataset& ds = TestDataset();
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, ServiceConfig(SearchMethod::kFreqSet, 2));
  ASSERT_TRUE(service.ok());
  const size_t base_shards = (*service)->num_shards();

  std::vector<RecordId> gids;
  std::vector<Record> extra;
  for (uint32_t i = 0; i < 5; ++i) {
    extra.push_back(MakeRecord({8000 + i, 8100 + i, 8200 + i, 8300 + i}));
    gids.push_back((*service)->Ingest(extra.back()).value());
  }
  EXPECT_EQ(5u, (*service)->ingest_size());

  ASSERT_TRUE((*service)->Promote().ok());
  EXPECT_EQ(0u, (*service)->ingest_size());
  EXPECT_EQ(base_shards + 1, (*service)->num_shards());

  // Promoted into the exact method: self-queries now score exactly 1 and
  // keep the global ids assigned at ingest time.
  for (size_t i = 0; i < extra.size(); ++i) {
    QueryRequest request(extra[i], 0.9);
    const QueryResponse response = (*service)->Serve(request, 1);
    ASSERT_EQ(1u, response.hits.size()) << "probe " << i;
    EXPECT_EQ(gids[i], response.hits[0].id);
    EXPECT_FLOAT_EQ(1.0f, response.hits[0].score);
  }

  // Second promotion + compaction folds the promoted shards back to one.
  (*service)->Ingest(MakeRecord({8500, 8501, 8502}));
  ASSERT_TRUE((*service)->Promote().ok());
  EXPECT_EQ(base_shards + 2, (*service)->num_shards());
  ASSERT_TRUE((*service)->Compact({.all = true}).ok());
  EXPECT_EQ(base_shards + 1, (*service)->num_shards());
  for (size_t i = 0; i < extra.size(); ++i) {
    QueryRequest request(extra[i], 0.9);
    const QueryResponse response = (*service)->Serve(request, 1);
    ASSERT_EQ(1u, response.hits.size());
    EXPECT_EQ(gids[i], response.hits[0].id);
  }
}

TEST(ShardedServiceTest, AutoPromotionRunsInBackground) {
  const Dataset& ds = TestDataset();
  SearcherConfig config = ServiceConfig(SearchMethod::kGbKmv, 2);
  config.sharded.auto_promote_records = 4;
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, config);
  ASSERT_TRUE(service.ok());
  const size_t base_shards = (*service)->num_shards();
  for (uint32_t i = 0; i < 4; ++i) {
    (*service)->Ingest(MakeRecord({7000 + i, 7100 + i, 7200 + i}));
    // Queries stay legal while the promotion runs.
    QueryRequest request(ds.record(0), 0.5);
    (void)(*service)->Serve(request, 2);
  }
  ASSERT_TRUE((*service)->WaitForBackgroundWork().ok());
  EXPECT_EQ(base_shards + 1, (*service)->num_shards());
  EXPECT_EQ(0u, (*service)->ingest_size());
  EXPECT_EQ(ds.size() + 4, (*service)->size());
}

// --- shard lifecycle: tombstones + merge compaction -----------------------

// Extras for the lifecycle tests: perturbed copies of base records (one
// fresh element appended), so the shared query workload reaches them.
std::vector<Record> ExtraRecords(size_t count, uint64_t seed = 991) {
  const Dataset& ds = TestDataset();
  std::mt19937_64 rng(seed);
  std::vector<Record> extras;
  for (size_t i = 0; i < count; ++i) {
    Record elements = ds.record(rng() % ds.size());
    elements.push_back(static_cast<ElementId>(5000 + i));
    extras.push_back(MakeRecord(std::move(elements)));
  }
  return extras;
}

// The tentpole invariant: merging promoted shards at the index level
// (GbKmvIndexSearcher::Merge — no re-sketching) answers bit-identically —
// hit ids, float scores, AND the per-query index counters — to a shard
// freshly built over the union of the same records, for every shard count
// and worker thread count.
TEST(ShardLifecycleTest, MergeCompactionMatchesFreshUnionBuildAcrossGrid) {
  const Dataset& ds = TestDataset();
  const std::vector<Record> extras = ExtraRecords(12);
  std::vector<Record> queries = TestQueries(20);
  queries.insert(queries.end(), extras.begin(), extras.end());

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SearcherConfig config = ServiceConfig(SearchMethod::kGbKmv, shards);
    Result<std::unique_ptr<ShardedContainmentService>> merged =
        serve::BuildShardedService(ds, config);
    Result<std::unique_ptr<ShardedContainmentService>> reference =
        serve::BuildShardedService(ds, config);
    ASSERT_TRUE(merged.ok() && reference.ok());
    const size_t base_shards = (*merged)->num_shards();

    // `merged` promotes in two waves (-> two promoted shards, then one
    // merge); `reference` promotes once — its single promoted shard IS the
    // fresh build over the union.
    for (size_t i = 0; i < extras.size(); ++i) {
      EXPECT_EQ((*merged)->Ingest(extras[i]).value(),
                (*reference)->Ingest(extras[i]).value());
      if (i == 5) ASSERT_TRUE((*merged)->Promote().ok());
    }
    ASSERT_TRUE((*merged)->Promote().ok());
    ASSERT_TRUE((*reference)->Promote().ok());
    ASSERT_EQ(base_shards + 2, (*merged)->num_shards());
    ASSERT_EQ(base_shards + 1, (*reference)->num_shards());

    ASSERT_TRUE((*merged)->Compact().ok());
    EXPECT_EQ(base_shards + 1, (*merged)->num_shards());
    EXPECT_EQ((*reference)->size(), (*merged)->size());
    EXPECT_EQ((*reference)->SpaceUnits(), (*merged)->SpaceUnits());

    for (size_t threads : kThreadCounts) {
      for (size_t top_k : {size_t{0}, size_t{5}}) {
        const auto requests = MakeRequests(queries, 0.4, top_k, true);
        const auto expected = (*reference)->BatchServe(requests, threads);
        const auto actual = (*merged)->BatchServe(requests, threads);
        for (size_t i = 0; i < requests.size(); ++i) {
          EXPECT_EQ(expected[i].hits, actual[i].hits)
              << "S=" << shards << " T=" << threads << " k=" << top_k
              << " q" << i;
          EXPECT_EQ(expected[i].stats, actual[i].stats)
              << "S=" << shards << " T=" << threads << " k=" << top_k
              << " q" << i;
        }
      }
    }
  }
}

// Physically purging tombstones at merge time serves the same hits (ids
// and float scores) as filtering them at query time, across the grid.
TEST(ShardLifecycleTest, PurgedAndFilteredTombstonesServeIdenticalHits) {
  const Dataset& ds = TestDataset();
  const std::vector<Record> extras = ExtraRecords(10, 992);
  std::vector<Record> queries = TestQueries(20);
  queries.insert(queries.end(), extras.begin(), extras.end());
  // Two base records plus two promoted extras die.
  const RecordId base0 = 3, base1 = 157;
  const RecordId extra0 = ds.size() + 1, extra1 = ds.size() + 7;

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    SearcherConfig config = ServiceConfig(SearchMethod::kGbKmv, shards);
    Result<std::unique_ptr<ShardedContainmentService>> purged =
        serve::BuildShardedService(ds, config);
    Result<std::unique_ptr<ShardedContainmentService>> filtered =
        serve::BuildShardedService(ds, config);
    ASSERT_TRUE(purged.ok() && filtered.ok());

    for (ShardedContainmentService* service :
         {purged->get(), filtered->get()}) {
      for (size_t i = 0; i < extras.size(); ++i) {
        service->Ingest(extras[i]);
        if (i == 4) ASSERT_TRUE(service->Promote().ok());
      }
      ASSERT_TRUE(service->Promote().ok());
      for (RecordId id : {base0, base1, extra0, extra1}) {
        const Result<serve::MutationResult> result = service->Delete(id);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_FALSE(result->noop);
        EXPECT_EQ(id, result->id);
      }
    }
    ASSERT_EQ(4u, (*filtered)->num_tombstones());

    // Compact merges the two promoted shards and purges their tombstones;
    // the base-shard tombstones stay masks.
    ASSERT_TRUE((*purged)->Compact().ok());
    EXPECT_EQ(2u, (*purged)->num_tombstones());
    EXPECT_EQ((*filtered)->size() - 2, (*purged)->size());

    for (size_t threads : kThreadCounts) {
      const auto requests = MakeRequests(queries, 0.4, 0, true);
      const auto expected = (*filtered)->BatchServe(requests, threads);
      const auto actual = (*purged)->BatchServe(requests, threads);
      for (size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(expected[i].hits, actual[i].hits)
            << "S=" << shards << " T=" << threads << " q" << i;
        for (const QueryHit& hit : actual[i].hits) {
          EXPECT_TRUE(hit.id != base0 && hit.id != base1 &&
                      hit.id != extra0 && hit.id != extra1)
              << "tombstoned id " << hit.id << " served";
        }
      }
    }
  }
}

TEST(ShardLifecycleTest, MutationErrorTaxonomyAndApplyDispatch) {
  const Dataset& ds = TestDataset();
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, ServiceConfig(SearchMethod::kFreqSet, 2));
  ASSERT_TRUE(service.ok());

  // Apply(kIngest) assigns the next global id; an empty record is
  // InvalidArgument.
  serve::MutationRequest ingest;
  ingest.kind = serve::MutationKind::kIngest;
  ingest.record = MakeRecord({9100, 9101, 9102});
  Result<serve::MutationResult> applied = (*service)->Apply(ingest);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(ds.size(), applied->id);
  ingest.record.clear();
  EXPECT_EQ(StatusCode::kInvalidArgument,
            (*service)->Apply(ingest).status().code());

  // Delete: NotFound for an id that never existed; noop (not an error) for
  // an id already tombstoned.
  EXPECT_EQ(StatusCode::kNotFound,
            (*service)->Delete(ds.size() + 50).status().code());
  Result<serve::MutationResult> first = (*service)->Delete(ds.size());
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->noop);
  Result<serve::MutationResult> second = (*service)->Delete(ds.size());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->noop);
  EXPECT_EQ(1u, (*service)->num_tombstones());

  // Apply(kPromote): real work, then a noop once the ingest shard is empty.
  serve::MutationRequest promote;
  promote.kind = serve::MutationKind::kPromote;
  Result<serve::MutationResult> promoted = (*service)->Apply(promote);
  ASSERT_TRUE(promoted.ok());
  EXPECT_FALSE(promoted->noop);
  promoted = (*service)->Apply(promote);
  ASSERT_TRUE(promoted.ok());
  EXPECT_TRUE(promoted->noop);

  // Apply(kCompact): the single promoted shard carries a tombstone, so the
  // compact is a purge rewrite, not a noop — and the purged id is NotFound
  // afterwards (vs noop while it was merely tombstoned).
  serve::MutationRequest compact;
  compact.kind = serve::MutationKind::kCompact;
  Result<serve::MutationResult> compacted = (*service)->Apply(compact);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_FALSE(compacted->noop);
  EXPECT_EQ(1u, compacted->tombstones_purged);
  EXPECT_EQ(0u, (*service)->num_tombstones());
  EXPECT_EQ(StatusCode::kNotFound,
            (*service)->Delete(ds.size()).status().code());

  // A second compact of the single clean shard is a noop.
  compacted = (*service)->Apply(compact);
  ASSERT_TRUE(compacted.ok());
  EXPECT_TRUE(compacted->noop);
}

// The size-ratio tiered policy merges the promoted suffix run in the
// background after a promotion; the merged service answers exactly like an
// untriggered copy that went through the same mutations.
TEST(ShardLifecycleTest, TieredPolicyCompactsInBackground) {
  const Dataset& ds = TestDataset();
  const std::vector<Record> extras = ExtraRecords(6, 993);
  SearcherConfig config = ServiceConfig(SearchMethod::kGbKmv, 2);
  config.sharded.compaction_tier_ratio = 4.0;
  config.sharded.compaction_min_shards = 2;
  Result<std::unique_ptr<ShardedContainmentService>> tiered =
      serve::BuildShardedService(ds, config);
  Result<std::unique_ptr<ShardedContainmentService>> mirror =
      serve::BuildShardedService(ds, ServiceConfig(SearchMethod::kGbKmv, 2));
  ASSERT_TRUE(tiered.ok() && mirror.ok());
  const size_t base_shards = (*tiered)->num_shards();

  for (size_t i = 0; i < extras.size(); ++i) {
    (*tiered)->Ingest(extras[i]);
    (*mirror)->Ingest(extras[i]);
    if (i == 2) {
      // One promoted shard: run length 1 < min_shards, no compaction.
      ASSERT_TRUE((*tiered)->Promote().ok());
      ASSERT_TRUE((*mirror)->Promote().ok());
      ASSERT_TRUE((*tiered)->WaitForBackgroundWork().ok());
      EXPECT_EQ(base_shards + 1, (*tiered)->num_shards());
    }
  }
  // Second promotion: 3 rows next to 3 rows within ratio 4 -> merge.
  ASSERT_TRUE((*tiered)->Promote().ok());
  ASSERT_TRUE((*mirror)->Promote().ok());
  ASSERT_TRUE((*tiered)->WaitForBackgroundWork().ok());
  EXPECT_EQ(base_shards + 1, (*tiered)->num_shards());
  EXPECT_EQ(base_shards + 2, (*mirror)->num_shards());
  EXPECT_EQ((*mirror)->size(), (*tiered)->size());

  std::vector<Record> queries = TestQueries(15);
  queries.insert(queries.end(), extras.begin(), extras.end());
  const auto requests = MakeRequests(queries, 0.4, 0, true);
  const auto expected = (*mirror)->BatchServe(requests, 2);
  const auto actual = (*tiered)->BatchServe(requests, 2);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(expected[i].hits, actual[i].hits) << "q" << i;
    // Index counters match exactly; only the fan-out width differs — the
    // merged service reaches one fewer shard.
    EXPECT_EQ(expected[i].stats.candidates_generated,
              actual[i].stats.candidates_generated) << "q" << i;
    EXPECT_EQ(expected[i].stats.candidates_refined,
              actual[i].stats.candidates_refined) << "q" << i;
    EXPECT_EQ(expected[i].stats.postings_scanned,
              actual[i].stats.postings_scanned) << "q" << i;
    EXPECT_EQ(expected[i].stats.heap_evictions,
              actual[i].stats.heap_evictions) << "q" << i;
    EXPECT_EQ(expected[i].stats.shards_queried,
              actual[i].stats.shards_queried + 1) << "q" << i;
  }
}

// Crossing tombstone_purge_threshold triggers a background purge rewrite
// of the most-tombstoned shard.
TEST(ShardLifecycleTest, PurgeThresholdRewritesShardInBackground) {
  const Dataset& ds = TestDataset();
  const std::vector<Record> extras = ExtraRecords(4, 994);
  SearcherConfig config = ServiceConfig(SearchMethod::kGbKmv, 2);
  config.sharded.tombstone_purge_threshold = 0.5;
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, config);
  // The mirror goes through the same mutations with no purge policy: its
  // tombstones stay query-time masks, the reference behaviour.
  Result<std::unique_ptr<ShardedContainmentService>> mirror =
      serve::BuildShardedService(ds, ServiceConfig(SearchMethod::kGbKmv, 2));
  ASSERT_TRUE(service.ok() && mirror.ok());
  const size_t base_shards = (*service)->num_shards();

  std::vector<RecordId> gids;
  for (const Record& extra : extras) {
    gids.push_back((*service)->Ingest(extra).value());
    (*mirror)->Ingest(extra);
  }
  ASSERT_TRUE((*service)->Promote().ok());
  ASSERT_TRUE((*mirror)->Promote().ok());
  ASSERT_TRUE((*service)->WaitForBackgroundWork().ok());

  // 1/4 deleted: below threshold, the tombstone stays a mask.
  ASSERT_TRUE((*service)->Delete(gids[0]).ok());
  ASSERT_TRUE((*mirror)->Delete(gids[0]).ok());
  ASSERT_TRUE((*service)->WaitForBackgroundWork().ok());
  EXPECT_EQ(1u, (*service)->num_tombstones());

  // 2/4 deleted: at threshold, the shard is rewritten without the rows.
  ASSERT_TRUE((*service)->Delete(gids[2]).ok());
  ASSERT_TRUE((*mirror)->Delete(gids[2]).ok());
  ASSERT_TRUE((*service)->WaitForBackgroundWork().ok());
  EXPECT_EQ(0u, (*service)->num_tombstones());
  EXPECT_EQ(base_shards + 1, (*service)->num_shards());
  EXPECT_EQ(ds.size() + 2, (*service)->size());
  EXPECT_EQ(StatusCode::kNotFound,
            (*service)->Delete(gids[0]).status().code());

  // The rewritten shard serves the survivors — original global ids, exact
  // float scores — bit-identically to the tombstone-filtering mirror.
  std::vector<Record> queries = TestQueries(10);
  queries.insert(queries.end(), extras.begin(), extras.end());
  const auto requests = MakeRequests(queries, 0.4, 0, true);
  const auto expected = (*mirror)->BatchServe(requests, 1);
  const auto actual = (*service)->BatchServe(requests, 1);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(expected[i].hits, actual[i].hits) << "q" << i;
  }
}

// Randomized lifecycle soak: interleaved ingest/delete/promote/compact with
// bookkeeping invariants checked throughout. After EVERY step the service's
// answers — hit ids and float scores — equal a fresh build over exactly the
// live records with the service's pinned parameters: fresh inserts answer
// like any other row from the moment Ingest returns (for FreqSet, exactly),
// and no promotion or compaction changes an answer. For FreqSet the end
// state is also checked against the exact ScanCount oracle.
TEST(ShardLifecycleTest, RandomizedLifecycleSoakMatchesExactOracle) {
  const Dataset& ds = TestDataset();
  for (const SearchMethod method :
       {SearchMethod::kFreqSet, SearchMethod::kGbKmv}) {
    SCOPED_TRACE(::testing::Message()
                 << "method " << static_cast<int>(method));
    SearcherConfig config = ServiceConfig(method, 2);
    config.sharded.cache_capacity = 16;  // exercise invalidation too
    config.sharded.auto_promote_records = 7;
    Result<std::unique_ptr<ShardedContainmentService>> service =
        serve::BuildShardedService(ds, config);
    ASSERT_TRUE(service.ok());
    const FreshReference reference(config);

    std::mt19937_64 rng(20260808);
    std::map<RecordId, Record> live;
    for (RecordId id = 0; id < ds.size(); ++id) live[id] = ds.record(id);
    std::vector<RecordId> dead;
    RecordId next_gid = ds.size();
    size_t deleted_total = 0, purged_total = 0;
    // Base queries plus the most recent ingests, so fresh rows are probed
    // both as answers and (through perturbed copies) as queries.
    std::vector<Record> queries = TestQueries(6);
    std::vector<Record> recent;

    for (int step = 0; step < 200; ++step) {
      const uint64_t roll = rng() % 100;
      if (roll < 55) {
        // Half the inserts are perturbed base records, which the base
        // queries reach; the rest are random.
        std::vector<ElementId> elements;
        if (rng() % 2 == 0) {
          elements = ds.record(rng() % ds.size());
          elements.push_back(static_cast<ElementId>(3000 + rng() % 100));
        } else {
          const size_t size = 5 + rng() % 26;
          for (size_t i = 0; i < size; ++i) {
            elements.push_back(static_cast<ElementId>(rng() % 3000));
          }
        }
        Record record = MakeRecord(std::move(elements));
        const Result<RecordId> gid = (*service)->Ingest(record);
        ASSERT_TRUE(gid.ok());
        ASSERT_EQ(next_gid, *gid);
        recent.push_back(record);
        if (recent.size() > 3) recent.erase(recent.begin());
        live[next_gid++] = std::move(record);
      } else if (roll < 72 && !live.empty()) {
        auto victim = live.begin();
        std::advance(victim, rng() % live.size());
        const Result<serve::MutationResult> result =
            (*service)->Delete(victim->first);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_FALSE(result->noop);
        ++deleted_total;
        dead.push_back(victim->first);
        live.erase(victim);
      } else if (roll < 78 && !dead.empty()) {
        // A dead id is either still tombstoned (ok + noop) or already
        // purged (NotFound) — never served, never double-counted.
        const RecordId id = dead[rng() % dead.size()];
        const Result<serve::MutationResult> result = (*service)->Delete(id);
        if (result.ok()) {
          EXPECT_TRUE(result->noop);
        } else {
          EXPECT_EQ(StatusCode::kNotFound, result.status().code());
        }
      } else if (roll < 88) {
        ASSERT_TRUE((*service)->Promote().ok());
      } else {
        serve::MutationRequest compact;
        compact.kind = serve::MutationKind::kCompact;
        compact.compact.all = (rng() % 2) == 0;
        const Result<serve::MutationResult> result =
            (*service)->Apply(compact);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        purged_total += result->tombstones_purged;
      }
      ASSERT_EQ(ds.size() + (next_gid - ds.size()) - purged_total,
                (*service)->size());
      ASSERT_EQ(deleted_total - purged_total, (*service)->num_tombstones());
      std::vector<Record> probes = queries;
      probes.insert(probes.end(), recent.begin(), recent.end());
      ASSERT_TRUE(MatchesFreshBuild(**service, reference, live, probes))
          << "step " << step;
    }

    // Seal the tail, let any background compaction land, and check once
    // more: sealing and merging change nothing.
    ASSERT_TRUE((*service)->Promote().ok());
    ASSERT_TRUE((*service)->WaitForBackgroundWork().ok());
    ASSERT_TRUE(MatchesFreshBuild(**service, reference, live, queries));
    if (method != SearchMethod::kFreqSet) continue;

    // FreqSet is exact: compare against the ScanCount oracle too.
    std::vector<RecordId> gids;
    std::vector<Record> records;
    for (const auto& [gid, record] : live) {
      gids.push_back(gid);
      records.push_back(record);
    }
    Result<Dataset> oracle_ds = Dataset::Create(std::move(records));
    ASSERT_TRUE(oracle_ds.ok());
    constexpr double kThreshold = 0.5;
    const std::vector<RecordId> query_ids =
        SampleQueries(*oracle_ds, 30, 123);
    const std::vector<std::vector<RecordId>> truth =
        ComputeGroundTruth(*oracle_ds, query_ids, kThreshold, 1);
    for (size_t q = 0; q < query_ids.size(); ++q) {
      QueryRequest request(oracle_ds->record(query_ids[q]), kThreshold);
      const QueryResponse response = (*service)->Serve(request, 2);
      std::vector<RecordId> expected;
      for (RecordId pos : truth[q]) expected.push_back(gids[pos]);
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(expected, SortedIds(response.hits)) << "q" << q;
    }
  }
}

// For every method the service supports, answers right after each Ingest
// equal a fresh build over the live records, and they stay identical
// across Promote() (a seal: nothing is rebuilt), auto-seals, deletes and
// the compaction that follows.
TEST(ShardLifecycleTest, IngestAnswersMatchFreshBuildForEveryMethod) {
  const Dataset& ds = TestDataset();
  const std::vector<Record> extras = ExtraRecords(9, 995);
  std::vector<Record> queries = TestQueries(8);
  queries.insert(queries.end(), extras.begin(), extras.end());
  for (const SearchMethod method :
       {SearchMethod::kGbKmv, SearchMethod::kGKmv, SearchMethod::kFreqSet,
        SearchMethod::kPPJoin, SearchMethod::kBruteForce,
        SearchMethod::kMinHashLsh}) {
    SCOPED_TRACE(::testing::Message()
                 << "method " << static_cast<int>(method));
    SearcherConfig config = ServiceConfig(method, 2);
    config.sharded.auto_promote_records = 4;
    Result<std::unique_ptr<ShardedContainmentService>> service =
        serve::BuildShardedService(ds, config);
    ASSERT_TRUE(service.ok());
    const FreshReference reference(config);
    const size_t base_shards = (*service)->num_shards();
    std::map<RecordId, Record> live;
    for (RecordId id = 0; id < ds.size(); ++id) live[id] = ds.record(id);

    for (size_t i = 0; i < 6; ++i) {
      const RecordId gid = (*service)->Ingest(extras[i]).value();
      live[gid] = extras[i];
      ASSERT_TRUE(MatchesFreshBuild(**service, reference, live, queries))
          << "after ingest " << i;
    }
    // Rows 0..3 sealed themselves at 4; rows 4..5 sit in the open shard.
    EXPECT_EQ(base_shards + 1, (*service)->num_shards());
    EXPECT_EQ(2u, (*service)->ingest_size());

    // Tombstones in a base shard, the sealed shard and the open shard.
    for (const RecordId id : {RecordId{11}, static_cast<RecordId>(ds.size()),
                              static_cast<RecordId>(ds.size() + 5)}) {
      ASSERT_TRUE((*service)->Delete(id).ok());
      live.erase(id);
    }
    ASSERT_TRUE(MatchesFreshBuild(**service, reference, live, queries));
    // A row ingested after a tombstone in the open shard keeps both aligned.
    const RecordId gid = (*service)->Ingest(extras[6]).value();
    live[gid] = extras[6];
    ASSERT_TRUE(MatchesFreshBuild(**service, reference, live, queries));

    const std::vector<QueryResponse> before = (*service)->BatchServe(
        MakeRequests(queries, 0.3, 0, true), 1);
    ASSERT_TRUE((*service)->Promote().ok());
    EXPECT_EQ(0u, (*service)->ingest_size());
    EXPECT_EQ(base_shards + 2, (*service)->num_shards());
    const std::vector<QueryResponse> after = (*service)->BatchServe(
        MakeRequests(queries, 0.3, 0, true), 1);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(before[i].hits, after[i].hits) << "q" << i;
    }

    for (size_t i = 7; i < extras.size(); ++i) {
      const RecordId next = (*service)->Ingest(extras[i]).value();
      live[next] = extras[i];
    }
    ASSERT_TRUE((*service)->Promote().ok());
    ASSERT_TRUE((*service)->Compact({.all = true}).ok());
    ASSERT_TRUE((*service)->WaitForBackgroundWork().ok());
    EXPECT_EQ(base_shards + 1, (*service)->num_shards());
    ASSERT_TRUE(MatchesFreshBuild(**service, reference, live, queries));
  }
}

// With auto_promote_records = 0 the open shard still seals at the fixed
// default bound, so the per-ingest fold never grows without limit.
TEST(ShardLifecycleTest, OpenShardSealsAtDefaultBound) {
  const Dataset& ds = TestDataset();
  SearcherConfig config = ServiceConfig(SearchMethod::kGKmv, 1);
  ASSERT_EQ(0u, config.sharded.auto_promote_records);
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, config);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(ShardedContainmentService::kDefaultSealRows,
            (*service)->SealRows());
  std::mt19937_64 rng(7);
  for (size_t i = 0; i < ShardedContainmentService::kDefaultSealRows; ++i) {
    std::vector<ElementId> elements;
    for (size_t j = 0; j < 8; ++j) {
      elements.push_back(static_cast<ElementId>(rng() % 3000));
    }
    ASSERT_TRUE((*service)->Ingest(MakeRecord(std::move(elements))).ok());
    ASSERT_EQ((i + 1) % ShardedContainmentService::kDefaultSealRows,
              (*service)->ingest_size());
  }
  EXPECT_EQ(2u, (*service)->num_shards());
}

// --- shard manifest -------------------------------------------------------

TEST(ShardedServiceTest, ManifestRoundTripsSnapshotCapableMethod) {
  const Dataset& ds = TestDataset();
  const std::string dir = ::testing::TempDir() + "sharded_gbkmv";
  SearcherConfig config = ServiceConfig(SearchMethod::kGbKmv, 3);
  config.sharded.cache_capacity = 16;
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, config);
  ASSERT_TRUE(service.ok());
  // Pending ingest state must round-trip too.
  const Record extra = MakeRecord({6000, 6001, 6002, 6003});
  const RecordId gid = (*service)->Ingest(extra).value();

  ASSERT_TRUE((*service)->Save(dir).ok());
  Result<std::unique_ptr<ShardedContainmentService>> loaded =
      ShardedContainmentService::Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*service)->num_shards(), (*loaded)->num_shards());
  EXPECT_EQ((*service)->size(), (*loaded)->size());
  EXPECT_EQ(1u, (*loaded)->ingest_size());

  const std::vector<Record> queries = TestQueries(20);
  for (size_t top_k : {size_t{0}, size_t{5}}) {
    const auto requests = MakeRequests(queries, 0.5, top_k, true);
    const auto expected = (*service)->BatchServe(requests, 1);
    const auto actual = (*loaded)->BatchServe(requests, 1);
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(expected[i].hits, actual[i].hits)
          << "top_k=" << top_k << " q" << i;
    }
  }
  // Ingest resumes with the identical id sequence, and the reloaded config
  // describes the service it actually holds.
  EXPECT_EQ(gid + 1, (*loaded)->Ingest(MakeRecord({6100, 6101, 6102})).value());
  EXPECT_EQ(3u, (*loaded)->config().sharded.num_shards);
  EXPECT_EQ(config.sharded.cache_capacity,
            (*loaded)->config().sharded.cache_capacity);
  std::filesystem::remove_all(dir);
}

// Live tombstones — in immutable shards and in the ingest shard — survive
// Save/Load (manifest v2), for both the eager and the lazy loader, and the
// persisted lifecycle knobs resolve caller-wins-when-nonzero.
TEST(ShardedServiceTest, TombstonesAndPolicyRoundTripThroughManifest) {
  const Dataset& ds = TestDataset();
  const std::string dir = ::testing::TempDir() + "sharded_tombstones";
  SearcherConfig config = ServiceConfig(SearchMethod::kGbKmv, 3);
  // Policy present but quiet: one promoted shard is below min_shards, and
  // a single tombstone in the 4-row promoted shard (fraction 0.25) stays
  // below the purge threshold — nothing compacts behind the test's back.
  config.sharded.compaction_tier_ratio = 3.5;
  config.sharded.compaction_min_shards = 4;
  config.sharded.tombstone_purge_threshold = 0.9;
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, config);
  ASSERT_TRUE(service.ok());

  std::vector<Record> extras;
  for (uint32_t i = 0; i < 6; ++i) {
    extras.push_back(MakeRecord({4000 + i, 4100 + i, 4200 + i, 4300 + i}));
    (*service)->Ingest(extras.back());
    if (i == 3) ASSERT_TRUE((*service)->Promote().ok());
  }
  ASSERT_TRUE((*service)->WaitForBackgroundWork().ok());
  // One tombstone per region: base shard, promoted shard, ingest shard.
  for (RecordId id : {RecordId{17}, static_cast<RecordId>(ds.size() + 1),
                      static_cast<RecordId>(ds.size() + 4)}) {
    const Result<serve::MutationResult> result = (*service)->Delete(id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->noop);
  }
  ASSERT_EQ(3u, (*service)->num_tombstones());
  ASSERT_TRUE((*service)->Save(dir).ok());

  std::vector<Record> queries = TestQueries(15);
  queries.insert(queries.end(), extras.begin(), extras.end());
  const auto requests = MakeRequests(queries, 0.4, 0, true);
  const auto expected = (*service)->BatchServe(requests, 1);

  for (const bool lazy : {false, true}) {
    ServiceOptions options;
    if (lazy) options.max_resident_shards = 1;
    Result<std::unique_ptr<ShardedContainmentService>> loaded =
        ShardedContainmentService::Load(dir, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(3u, (*loaded)->num_tombstones());
    EXPECT_EQ((*service)->size(), (*loaded)->size());
    // The manifest's lifecycle knobs win while the caller leaves them 0.
    EXPECT_EQ(3.5, (*loaded)->config().sharded.compaction_tier_ratio);
    EXPECT_EQ(4u, (*loaded)->config().sharded.compaction_min_shards);
    EXPECT_EQ(0.9, (*loaded)->config().sharded.tombstone_purge_threshold);

    const auto actual = (*loaded)->BatchServe(requests, 1);
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(expected[i].hits, actual[i].hits)
          << (lazy ? "lazy" : "eager") << " q" << i;
    }
    // Deleted stays deleted (noop, not resurrection), and ingest resumes
    // the id sequence past the persisted tombstone bookkeeping.
    const Result<serve::MutationResult> again =
        (*loaded)->Delete(ds.size() + 4);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->noop);
    EXPECT_EQ(ds.size() + 6,
              (*loaded)->Ingest(MakeRecord({4500, 4501, 4502})).value());
  }

  // A caller-set tier ratio overrides the manifest (and brings its own
  // min_shards with it).
  ServiceOptions override_options;
  override_options.compaction_tier_ratio = 9.0;
  Result<std::unique_ptr<ShardedContainmentService>> overridden =
      ShardedContainmentService::Load(dir, override_options);
  ASSERT_TRUE(overridden.ok());
  EXPECT_EQ(9.0, (*overridden)->config().sharded.compaction_tier_ratio);
  EXPECT_EQ(2u, (*overridden)->config().sharded.compaction_min_shards);
  EXPECT_EQ(0.9,
            (*overridden)->config().sharded.tombstone_purge_threshold);
  std::filesystem::remove_all(dir);
}

// Manifest v2 still loads. A v2 service kept fresh rows in a separate
// ingest shard saved as a DynamicGbKmvIndex snapshot; Load turns its rows
// and tombstones into one sealed shard built with the service's method,
// so those rows answer exactly from then on. The v2 manifest is written
// here field by field, as a v2 binary wrote it.
TEST(ShardedServiceTest, Version2ManifestIngestShardLoadsAsSealedShard) {
  const Dataset& ds = TestDataset();
  const std::string dir = ::testing::TempDir() + "sharded_manifest_v2";
  const SearcherConfig config = ServiceConfig(SearchMethod::kFreqSet, 2);
  Result<std::unique_ptr<ShardedContainmentService>> built =
      serve::BuildShardedService(ds, config);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(dir).ok());  // the shard files

  const std::vector<Record> fresh = ExtraRecords(3, 996);
  DynamicGbKmvOptions dynamic_options;
  dynamic_options.budget_units = 4096;
  const Dataset empty = Dataset::Create({}, "ingest").value();
  std::unique_ptr<DynamicGbKmvIndex> ingest =
      DynamicGbKmvIndex::Create(empty, dynamic_options).value();
  for (const Record& r : fresh) ingest->Insert(r);
  ASSERT_TRUE(ingest->Save(dir + "/ingest.snap").ok());

  const RecordId ingest_base = static_cast<RecordId>(ds.size());
  io::SnapshotWriter manifest;
  io::WriteSnapshotMeta(&manifest, io::kShardedManifestKind, 0);
  io::Writer* out = manifest.AddSection(io::kSectionManifest);
  out->PutU32(2);
  out->PutString("freqset");
  out->PutU8(static_cast<uint8_t>(config.sharded.partitioner));
  out->PutDouble(config.space_ratio);
  out->PutU64(static_cast<uint64_t>(config.buffer_bits));
  out->PutU64(config.lshe_num_hashes);
  out->PutU64(config.lshe_num_partitions);
  out->PutU64(config.seed);
  out->PutU64(0);     // cache capacity
  out->PutU64(0);     // auto-promote records
  out->PutU64(4096);  // ingest-shard sketch budget (v2 only)
  out->PutU64(0);     // MinHash-LSH size hint
  out->PutU64(ingest_base + fresh.size());  // next global id
  out->PutU64(2);                           // base shard count
  out->PutDouble(0.0);                      // tier ratio
  out->PutU64(2);                           // min shards
  out->PutDouble(0.0);                      // purge threshold
  out->PutBool(false);                      // no sketcher (FreqSet)
  out->PutU64(2);
  std::map<RecordId, Record> live;
  for (RecordId id = 0; id < ds.size(); ++id) live[id] = ds.record(id);
  for (size_t k = 0; k < 2; ++k) {
    const std::vector<RecordId> gids(
        (*built)->shard(k).global_ids.begin(),
        (*built)->shard(k).global_ids.end());
    out->PutString(k == 0 ? "shard-000.snap" : "shard-001.snap");
    out->PutVecU32(gids);
    // One tombstone in the first base shard: local row 2.
    out->PutVecU32(k == 0 ? std::vector<uint32_t>{2} : std::vector<uint32_t>{});
    if (k == 0) live.erase(gids[2]);
  }
  out->PutBool(true);  // the ingest shard
  out->PutString("ingest.snap");
  out->PutU64(ingest_base);
  out->PutVecU32({1});  // its tombstone: local row 1
  ASSERT_TRUE(manifest.WriteTo(dir + "/manifest.snap").ok());
  live[ingest_base] = fresh[0];
  live[ingest_base + 2] = fresh[2];

  Result<std::unique_ptr<ShardedContainmentService>> loaded =
      ShardedContainmentService::Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(ds.size() + fresh.size(), (*loaded)->size());
  EXPECT_EQ(2u, (*loaded)->num_tombstones());
  EXPECT_EQ(3u, (*loaded)->num_shards());
  EXPECT_EQ(0u, (*loaded)->ingest_size());
  std::vector<Record> queries = TestQueries(10);
  queries.insert(queries.end(), fresh.begin(), fresh.end());
  const FreshReference reference(config);
  EXPECT_TRUE(MatchesFreshBuild(**loaded, reference, live, queries));
  // Deleted stays deleted, and ingest resumes the id sequence.
  const Result<serve::MutationResult> again =
      (*loaded)->Delete(ingest_base + 1);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->noop);
  EXPECT_EQ(ingest_base + fresh.size(),
            (*loaded)->Ingest(MakeRecord({4600, 4601})).value());
  std::filesystem::remove_all(dir);
}

TEST(ShardedServiceTest, ManifestRoundTripsRebuildOnLoadMethod) {
  const Dataset& ds = TestDataset();
  const std::string dir = ::testing::TempDir() + "sharded_freqset";
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, ServiceConfig(SearchMethod::kFreqSet, 4));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Save(dir).ok());
  Result<std::unique_ptr<ShardedContainmentService>> loaded =
      ShardedContainmentService::Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ("FreqSet", (*loaded)->method_name());

  const std::vector<Record> queries = TestQueries(20);
  const auto requests = MakeRequests(queries, 0.5, 0, true);
  const auto expected = (*service)->BatchServe(requests, 1);
  const auto actual = (*loaded)->BatchServe(requests, 1);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(expected[i].hits, actual[i].hits) << "q" << i;
  }
  std::filesystem::remove_all(dir);
}

// Bit-identical-serve across loaders (docs/architecture.md "Borrowed
// memory"): a service whose shards were mapped in place answers exactly —
// hit ids and float scores — like one restored through the copying loader,
// for every shard and thread count.
TEST(ShardedServiceTest, MappedAndCopyingServiceLoadsAreBitIdentical) {
  const Dataset& ds = TestDataset();
  const std::string dir = ::testing::TempDir() + "sharded_loaders";
  for (size_t num_shards : {size_t{1}, size_t{3}}) {
    Result<std::unique_ptr<ShardedContainmentService>> built =
        serve::BuildShardedService(ds,
                                   ServiceConfig(SearchMethod::kGbKmv,
                                                 num_shards));
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE((*built)->Save(dir).ok());

    Result<std::unique_ptr<ShardedContainmentService>> mapped =
        ShardedContainmentService::Load(dir);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    // Restore (not unset) the override so the toggle composes with the CI
    // leg that exports GBKMV_FORCE_COPY_LOAD for the whole process.
    const char* prior_force = std::getenv("GBKMV_FORCE_COPY_LOAD");
    const std::string prior_force_value = prior_force ? prior_force : "";
    ::setenv("GBKMV_FORCE_COPY_LOAD", "1", 1);
    Result<std::unique_ptr<ShardedContainmentService>> copied =
        ShardedContainmentService::Load(dir);
    if (prior_force != nullptr) {
      ::setenv("GBKMV_FORCE_COPY_LOAD", prior_force_value.c_str(), 1);
    } else {
      ::unsetenv("GBKMV_FORCE_COPY_LOAD");
    }
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();

    const std::vector<Record> queries = TestQueries(25);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t top_k : {size_t{0}, size_t{5}}) {
        const auto requests = MakeRequests(queries, 0.5, top_k, true);
        const auto expected = (*copied)->BatchServe(requests, threads);
        const auto actual = (*mapped)->BatchServe(requests, threads);
        for (size_t i = 0; i < requests.size(); ++i) {
          EXPECT_EQ(expected[i].hits, actual[i].hits)
              << "S=" << num_shards << " threads=" << threads
              << " top_k=" << top_k << " q" << i;
        }
      }
    }
    std::filesystem::remove_all(dir);
  }
}

// Lazy activation (docs/sharding.md "Larger than RAM"): a service loaded
// with max_resident_shards < S answers bit-identically to the eager load —
// shards activate on first query, the LRU evicts down to the budget, and
// evicted shards reactivate transparently on their next query.
TEST(ShardedServiceTest, LazyLoadWithResidentBudgetServesIdentically) {
  const Dataset& ds = TestDataset();
  const std::string dir = ::testing::TempDir() + "sharded_lazy";
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, ServiceConfig(SearchMethod::kGbKmv, 4));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Save(dir).ok());

  Result<std::unique_ptr<ShardedContainmentService>> eager =
      ShardedContainmentService::Load(dir);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();

  ServiceOptions options;
  options.max_resident_shards = 2;
  const obs::MetricsSnapshot before = obs::GlobalMetrics().Snapshot();
  Result<std::unique_ptr<ShardedContainmentService>> lazy =
      ShardedContainmentService::Load(dir, options);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  // The manifest alone was read: nothing is resident yet.
  const obs::MetricsSnapshot loaded = obs::GlobalMetrics().Snapshot();
  EXPECT_EQ(loaded.counters.at("gbkmv_serve_shard_activations_total"),
            before.counters.count("gbkmv_serve_shard_activations_total")
                ? before.counters.at("gbkmv_serve_shard_activations_total")
                : 0u);
  EXPECT_EQ(4u, (*lazy)->num_shards());
  EXPECT_EQ((*eager)->size(), (*lazy)->size());

  const std::vector<Record> queries = TestQueries(20);
  for (size_t round = 0; round < 3; ++round) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      const auto requests = MakeRequests(queries, 0.5, 0, true);
      const auto expected = (*eager)->BatchServe(requests, threads);
      const auto actual = (*lazy)->BatchServe(requests, threads);
      for (size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(expected[i].hits, actual[i].hits)
            << "round=" << round << " threads=" << threads << " q" << i;
      }
    }
  }

  const obs::MetricsSnapshot after = obs::GlobalMetrics().Snapshot();
  const uint64_t activations =
      after.counters.at("gbkmv_serve_shard_activations_total") -
      (before.counters.count("gbkmv_serve_shard_activations_total")
           ? before.counters.at("gbkmv_serve_shard_activations_total")
           : 0u);
  const uint64_t evictions =
      after.counters.at("gbkmv_serve_shard_evictions_total") -
      (before.counters.count("gbkmv_serve_shard_evictions_total")
           ? before.counters.at("gbkmv_serve_shard_evictions_total")
           : 0u);
  // Every batch pins all 4 shards but only 2 may stay resident, so each
  // round re-activates evicted shards.
  EXPECT_GE(activations, 4u);
  EXPECT_GE(evictions, 2u);
  EXPECT_LE(after.gauges.at("gbkmv_serve_resident_shards"), 2);
  EXPECT_GT(after.gauges.at("gbkmv_serve_resident_shard_bytes"), 0);
  std::filesystem::remove_all(dir);
}

// Same transparency for a byte budget and for a method whose shards persist
// as dataset snapshots and rebuild on activation.
TEST(ShardedServiceTest, LazyLoadByteBudgetAndRebuildMethod) {
  const Dataset& ds = TestDataset();
  const std::string dir = ::testing::TempDir() + "sharded_lazy_rebuild";
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, ServiceConfig(SearchMethod::kPPJoin, 3));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Save(dir).ok());

  ServiceOptions options;
  options.max_resident_bytes = 1;  // at most the pinned shard stays
  Result<std::unique_ptr<ShardedContainmentService>> lazy =
      ShardedContainmentService::Load(dir, options);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();

  const std::vector<Record> queries = TestQueries(10);
  const auto requests = MakeRequests(queries, 0.5, 0, true);
  const auto expected = (*service)->BatchServe(requests, 1);
  for (size_t round = 0; round < 2; ++round) {
    const auto actual = (*lazy)->BatchServe(requests, 1);
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(expected[i].hits, actual[i].hits)
          << "round=" << round << " q" << i;
    }
  }
  EXPECT_LE(obs::GlobalMetrics().Snapshot().gauges.at(
                "gbkmv_serve_resident_shards"),
            1);
  std::filesystem::remove_all(dir);
}

// A lazily loaded service still ingests, promotes, compacts and re-saves:
// the promoted shard is memory-resident (never evicted), compaction reads
// evicted shards' datasets back from their snapshots, and Save copies
// evicted shards' snapshot files verbatim.
TEST(ShardedServiceTest, LazyLoadMutationsAndResave) {
  const Dataset& ds = TestDataset();
  const std::string dir = ::testing::TempDir() + "sharded_lazy_mut";
  const std::string dir2 = ::testing::TempDir() + "sharded_lazy_mut2";
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, ServiceConfig(SearchMethod::kGbKmv, 3));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Save(dir).ok());

  ServiceOptions options;
  options.max_resident_shards = 1;
  Result<std::unique_ptr<ShardedContainmentService>> lazy =
      ShardedContainmentService::Load(dir, options);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();

  const RecordId gid = (*lazy)->Ingest(MakeRecord({6000, 6001, 6002})).value();
  EXPECT_EQ(ds.size(), static_cast<size_t>(gid));
  ASSERT_TRUE((*lazy)->Promote().ok());
  (*lazy)->Ingest(MakeRecord({6100, 6101}));
  ASSERT_TRUE((*lazy)->Promote().ok());
  EXPECT_EQ(5u, (*lazy)->num_shards());
  ASSERT_TRUE((*lazy)->Compact({.all = true}).ok());
  EXPECT_EQ(4u, (*lazy)->num_shards());

  ASSERT_TRUE((*lazy)->Save(dir2).ok());
  Result<std::unique_ptr<ShardedContainmentService>> reloaded =
      ShardedContainmentService::Load(dir2);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*lazy)->size(), (*reloaded)->size());

  const std::vector<Record> queries = TestQueries(10);
  const auto requests = MakeRequests(queries, 0.5, 0, true);
  const auto expected = (*lazy)->BatchServe(requests, 1);
  const auto actual = (*reloaded)->BatchServe(requests, 1);
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(expected[i].hits, actual[i].hits) << "q" << i;
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(dir2);
}

TEST(ShardedServiceTest, ManifestRejectedBySingleSearcherLoader) {
  const Dataset& ds = TestDataset();
  const std::string dir = ::testing::TempDir() + "sharded_reject";
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, ServiceConfig(SearchMethod::kGbKmv, 2));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Save(dir).ok());
  Result<LoadedSearcher> loaded =
      LoadSearcherSnapshot(dir + "/manifest.snap");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("sharded-service manifest"),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ShardedServiceTest, LoadMissingDirectoryFails) {
  Result<std::unique_ptr<ShardedContainmentService>> loaded =
      ShardedContainmentService::Load("/nonexistent/sharded-service");
  EXPECT_FALSE(loaded.ok());
}

// Recall sanity through the service: the approximate sharded GB-KMV answer
// tracks exact ground truth as well as the single index does.
TEST(ShardedServiceTest, ShardedGbKmvKeepsAccuracy) {
  const Dataset& ds = TestDataset();
  const std::vector<RecordId> query_ids = SampleQueries(ds, 30, /*seed=*/55);
  const auto truth = ComputeGroundTruth(ds, query_ids, 0.5, 1);
  Result<std::unique_ptr<ShardedContainmentService>> service =
      serve::BuildShardedService(ds, ServiceConfig(SearchMethod::kGbKmv, 4));
  ASSERT_TRUE(service.ok());
  size_t found = 0;
  size_t expected = 0;
  for (size_t i = 0; i < query_ids.size(); ++i) {
    QueryRequest request(ds.record(query_ids[i]), 0.5);
    const std::vector<RecordId> got = SortedIds(
        (*service)->Serve(request, 1).hits);
    expected += truth[i].size();
    for (RecordId id : truth[i]) {
      found += std::binary_search(got.begin(), got.end(), id);
    }
  }
  ASSERT_GT(expected, 0u);
  // The invariance tests already pin the sharded answer to the single
  // index's bit-for-bit; this guards the workload itself (the method's own
  // recall at t* = 0.5 on this skewed synthetic set is ~0.77).
  EXPECT_GE(static_cast<double>(found), 0.7 * static_cast<double>(expected));
}

}  // namespace
}  // namespace gbkmv
