// Query API v2 contract (docs/query_api.md), enforced for every search
// method: SearchQ returns the same qualifying records as the legacy Search
// wrapper, exact methods surface exact containment as the hit score, top-k
// is the k best-scored of the unlimited result under the deterministic
// (score desc, id asc) order, and the stats counters obey their invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/containment.h"
#include "data/synthetic.h"
#include "index/dynamic_index.h"
#include "index/query.h"
#include "storage/query_context.h"

namespace gbkmv {
namespace {

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

std::vector<SearchMethod> AllMethods() {
  return {SearchMethod::kGbKmv,      SearchMethod::kGKmv,
          SearchMethod::kKmv,        SearchMethod::kLshEnsemble,
          SearchMethod::kMinHashLsh, SearchMethod::kAsymmetricMinHash,
          SearchMethod::kPPJoin,     SearchMethod::kFreqSet,
          SearchMethod::kBruteForce};
}

std::unique_ptr<ContainmentSearcher> Build(SearchMethod method) {
  SearcherConfig config;
  config.method = method;
  config.lshe_num_hashes = 64;  // keep the MinHash methods fast
  Result<std::unique_ptr<ContainmentSearcher>> s =
      BuildSearcher(TestDataset(), config);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s).value();
}

std::vector<Record> TestQueries() {
  const Dataset& ds = TestDataset();
  std::vector<Record> queries;
  for (size_t i = 0; i < 12; ++i) queries.push_back(ds.record(i * 31 % 400));
  return queries;
}

constexpr double kThresholds[] = {0.5, 0.8};

QueryResponse RunQ(const ContainmentSearcher& s, const Record& q, double t,
                  size_t top_k = 0) {
  QueryRequest request(q, t);
  request.top_k = top_k;
  request.want_stats = true;
  return s.SearchQ(request, ThreadLocalQueryContext());
}

TEST(QueryApiTest, SearchQHitIdsMatchLegacySearch) {
  for (SearchMethod method : AllMethods()) {
    const auto searcher = Build(method);
    for (double threshold : kThresholds) {
      for (const Record& q : TestQueries()) {
        const QueryResponse response = RunQ(*searcher, q, threshold);
        std::vector<RecordId> ids;
        for (const QueryHit& hit : response.hits) ids.push_back(hit.id);
        EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()))
            << searcher->name() << " scored unlimited hits must be id-sorted";
        // The legacy wrapper keeps the method's natural (unspecified) order;
        // compare as sets.
        std::vector<RecordId> legacy = searcher->Search(q, threshold);
        std::sort(legacy.begin(), legacy.end());
        EXPECT_EQ(ids, legacy) << searcher->name() << " t*=" << threshold;
      }
    }
  }
}

TEST(QueryApiTest, ExactMethodScoresEqualBruteForceContainment) {
  const Dataset& ds = TestDataset();
  const auto brute = Build(SearchMethod::kBruteForce);
  for (SearchMethod method :
       {SearchMethod::kBruteForce, SearchMethod::kPPJoin,
        SearchMethod::kFreqSet}) {
    const auto searcher = Build(method);
    ASSERT_TRUE(searcher->exact());
    for (double threshold : kThresholds) {
      for (const Record& q : TestQueries()) {
        const QueryResponse response = RunQ(*searcher, q, threshold);
        const QueryResponse reference = RunQ(*brute, q, threshold);
        ASSERT_EQ(response.hits.size(), reference.hits.size());
        for (size_t i = 0; i < response.hits.size(); ++i) {
          EXPECT_EQ(response.hits[i].id, reference.hits[i].id);
          EXPECT_NEAR(response.hits[i].score, reference.hits[i].score, 1e-6)
              << searcher->name() << " record " << response.hits[i].id;
          // And both equal ground-truth containment computed from raw data.
          const double exact =
              ContainmentSimilarity(q, ds.record(response.hits[i].id));
          EXPECT_NEAR(response.hits[i].score, exact, 1e-6);
        }
      }
    }
  }
}

TEST(QueryApiTest, ThresholdFilteredScoresReachTheThreshold) {
  // Methods whose hits pass a score >= t* test (the LSH methods return raw
  // band-collision candidates instead, so they are excluded).
  for (SearchMethod method :
       {SearchMethod::kGbKmv, SearchMethod::kGKmv, SearchMethod::kKmv,
        SearchMethod::kPPJoin, SearchMethod::kFreqSet,
        SearchMethod::kBruteForce}) {
    const auto searcher = Build(method);
    for (double threshold : kThresholds) {
      for (const Record& q : TestQueries()) {
        for (const QueryHit& hit : RunQ(*searcher, q, threshold).hits) {
          EXPECT_GE(hit.score, threshold - 1e-6)
              << searcher->name() << " t*=" << threshold;
        }
      }
    }
  }
}

TEST(QueryApiTest, TopKIsTheBestPrefixOfTheUnlimitedResult) {
  for (SearchMethod method : AllMethods()) {
    const auto searcher = Build(method);
    for (double threshold : kThresholds) {
      for (const Record& q : TestQueries()) {
        QueryResponse unlimited = RunQ(*searcher, q, threshold);
        // Deterministic ranking: score desc, ties by ascending id.
        std::sort(unlimited.hits.begin(), unlimited.hits.end(),
                  [](const QueryHit& a, const QueryHit& b) {
                    return a.score != b.score ? a.score > b.score
                                              : a.id < b.id;
                  });
        for (size_t k : {size_t{1}, size_t{3}, size_t{10}, size_t{10000}}) {
          const QueryResponse topk = RunQ(*searcher, q, threshold, k);
          const size_t expect_size = std::min(k, unlimited.hits.size());
          ASSERT_EQ(topk.hits.size(), expect_size)
              << searcher->name() << " k=" << k;
          for (size_t i = 0; i < expect_size; ++i) {
            EXPECT_EQ(topk.hits[i], unlimited.hits[i])
                << searcher->name() << " k=" << k << " rank " << i;
          }
          // The bounded heap discards exactly the qualifying overflow.
          EXPECT_EQ(topk.stats.heap_evictions,
                    topk.stats.candidates_refined - expect_size);
        }
      }
    }
  }
}

TEST(QueryApiTest, StatsInvariants) {
  for (SearchMethod method : AllMethods()) {
    const auto searcher = Build(method);
    for (double threshold : kThresholds) {
      for (const Record& q : TestQueries()) {
        const QueryResponse response = RunQ(*searcher, q, threshold);
        const QueryStats& s = response.stats;
        EXPECT_LE(s.candidates_refined, s.candidates_generated)
            << searcher->name();
        EXPECT_EQ(s.candidates_refined, response.hits.size())
            << searcher->name() << " (unlimited: refined == hits)";
        EXPECT_EQ(s.heap_evictions, 0u)
            << searcher->name() << " (no heap without top_k)";
        // Candidates come from somewhere: any scored candidate implies the
        // index read at least one entry (sketch value, posting or bucket).
        if (s.candidates_generated > 0) {
          EXPECT_GT(s.postings_scanned, 0u) << searcher->name();
        }
      }
    }
  }
}

TEST(QueryApiTest, WantScoresFalseReturnsTheSameIds) {
  for (SearchMethod method : AllMethods()) {
    const auto searcher = Build(method);
    for (const Record& q : TestQueries()) {
      QueryRequest scored(q, 0.5);
      QueryRequest boolean(q, 0.5);
      boolean.want_scores = false;
      const QueryResponse a = searcher->SearchQ(scored,
                                                ThreadLocalQueryContext());
      const QueryResponse b = searcher->SearchQ(boolean,
                                                ThreadLocalQueryContext());
      ASSERT_EQ(a.hits.size(), b.hits.size()) << searcher->name();
      // The boolean path keeps natural emission order; compare as id sets
      // (the scored response is ascending already).
      std::vector<RecordId> boolean_ids;
      for (const QueryHit& hit : b.hits) boolean_ids.push_back(hit.id);
      std::sort(boolean_ids.begin(), boolean_ids.end());
      for (size_t i = 0; i < a.hits.size(); ++i) {
        EXPECT_EQ(a.hits[i].id, boolean_ids[i]) << searcher->name();
      }
    }
  }
}

TEST(QueryApiTest, EmptyQueryAndEmptyRequestBehave) {
  const auto searcher = Build(SearchMethod::kGbKmv);
  const Record empty;
  const QueryResponse response = RunQ(*searcher, empty, 0.5, 10);
  EXPECT_TRUE(response.hits.empty());
  EXPECT_EQ(response.stats, QueryStats{});
}

// The collector's exclusion mask: an excluded row behaves exactly as if it
// had never been offered — same hits, scores, candidates_refined and
// heap_evictions as the stream without it — whether it arrives inside the
// top-k lazy window or after the heap overflowed, on the boolean path too.
// Rows past the end of the mask are live.
TEST(QueryApiTest, HitCollectorDropsExcludedRowsBeforeCounting) {
  constexpr RecordId kRows = 200;
  // Scores are distinct; the excluded rows (and row 190, past the mask)
  // score highest, so each would be a top-k winner if it leaked through.
  std::vector<std::pair<RecordId, double>> stream;
  for (RecordId id = 0; id < kRows; ++id) {
    stream.push_back({id, static_cast<double>((id * 37) % kRows) / kRows});
  }
  const RecordId in_window = 5;        // added while the lazy window holds
  const RecordId after_overflow = 150;  // added after it overflowed
  const RecordId past_mask = 190;
  stream[in_window].second = 1.0;
  stream[after_overflow].second = 0.999;
  stream[past_mask].second = 0.998;
  std::vector<uint8_t> mask(160, 0);  // shorter than the rows
  mask[in_window] = 1;
  mask[after_overflow] = 1;
  mask[7] = 1;

  const Record query = MakeRecord({1, 2, 3});
  const auto collect = [&](const QueryRequest& request, bool skip_masked) {
    QueryResponse response;
    HitCollector collector(request, ThreadLocalQueryContext(), &response);
    for (const auto& [id, score] : stream) {
      if (skip_masked && id < mask.size() && mask[id] != 0) continue;
      collector.Add(id, score);
    }
    collector.Finish();
    return response;
  };
  for (size_t top_k : {size_t{0}, size_t{1}, size_t{10}}) {
    for (bool want_scores : {true, false}) {
      QueryRequest request(query, 0.5);
      request.top_k = top_k;
      request.want_scores = want_scores;
      const QueryResponse expected = collect(request, true);
      request.excluded = mask;
      const QueryResponse masked = collect(request, false);
      EXPECT_EQ(expected, masked) << "k=" << top_k << " scores=" << want_scores;
      EXPECT_EQ(kRows - 3, masked.stats.candidates_refined);
      for (const QueryHit& hit : masked.hits) {
        EXPECT_TRUE(hit.id >= mask.size() || mask[hit.id] == 0) << hit.id;
      }
      if (top_k > 0) {
        ASSERT_EQ(top_k, masked.hits.size());
        EXPECT_EQ(past_mask, masked.hits[0].id);
        EXPECT_EQ(kRows - 3 - top_k, masked.stats.heap_evictions);
      }
    }
  }
}

// The dynamic index speaks the same API, including mid-stream with an
// uncompacted delta log.
TEST(QueryApiTest, DynamicIndexImplementsTheContract) {
  const Dataset& ds = TestDataset();
  DynamicGbKmvOptions options;
  options.budget_units = ds.total_elements() / 5;
  options.buffer_bits = 16;
  auto index = DynamicGbKmvIndex::Create(ds, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (const Record& q : TestQueries()) {
    QueryResponse unlimited = RunQ(**index, q, 0.5);
    std::vector<RecordId> ids;
    for (const QueryHit& hit : unlimited.hits) ids.push_back(hit.id);
    std::vector<RecordId> legacy = (*index)->Search(q, 0.5);
    std::sort(legacy.begin(), legacy.end());
    EXPECT_EQ(ids, legacy);
    EXPECT_LE(unlimited.stats.candidates_refined,
              unlimited.stats.candidates_generated);
    std::sort(unlimited.hits.begin(), unlimited.hits.end(),
              [](const QueryHit& a, const QueryHit& b) {
                return a.score != b.score ? a.score > b.score : a.id < b.id;
              });
    const QueryResponse top3 = RunQ(**index, q, 0.5, 3);
    const size_t expect_size = std::min<size_t>(3, unlimited.hits.size());
    ASSERT_EQ(top3.hits.size(), expect_size);
    for (size_t i = 0; i < expect_size; ++i) {
      EXPECT_EQ(top3.hits[i], unlimited.hits[i]);
    }
  }
}

}  // namespace
}  // namespace gbkmv
