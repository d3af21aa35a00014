#include "data/dataset.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "data/synthetic.h"

namespace gbkmv {
namespace {

std::vector<Record> SmallRecords() {
  // Fig. 1 dataset: X1..X4 over elements 1..10.
  return {MakeRecord({1, 2, 3, 4, 7}), MakeRecord({2, 3, 5}),
          MakeRecord({2, 4, 5}), MakeRecord({1, 2, 6, 10})};
}

TEST(DatasetTest, CreateComputesBasics) {
  auto ds = Dataset::Create(SmallRecords(), "fig1");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->name(), "fig1");
  EXPECT_EQ(ds->size(), 4u);
  EXPECT_EQ(ds->total_elements(), 5u + 3 + 3 + 4);
  EXPECT_EQ(ds->num_distinct(), 8u);  // {1,2,3,4,5,6,7,10}
}

TEST(DatasetTest, RejectsUnnormalizedRecords) {
  std::vector<Record> records = {{3, 1, 2}};
  auto ds = Dataset::Create(std::move(records));
  EXPECT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetTest, Frequencies) {
  auto ds = Dataset::Create(SmallRecords());
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->frequency(2), 4u);  // e2 appears in every record
  EXPECT_EQ(ds->frequency(1), 2u);
  EXPECT_EQ(ds->frequency(7), 1u);
  EXPECT_EQ(ds->frequency(8), 0u);
  EXPECT_EQ(ds->frequency(9999), 0u);  // out of universe
}

TEST(DatasetTest, ElementsByFrequencyOrdered) {
  auto ds = Dataset::Create(SmallRecords());
  ASSERT_TRUE(ds.ok());
  const auto& by_freq = ds->elements_by_frequency();
  ASSERT_FALSE(by_freq.empty());
  EXPECT_EQ(by_freq.front(), 2u);  // most frequent
  for (size_t i = 1; i < by_freq.size(); ++i) {
    EXPECT_GE(ds->frequency(by_freq[i - 1]), ds->frequency(by_freq[i]));
  }
  // Zero-frequency ids are excluded.
  EXPECT_EQ(by_freq.size(), ds->num_distinct());
}

TEST(DatasetTest, TopFrequencySum) {
  auto ds = Dataset::Create(SmallRecords());
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->TopFrequencySum(0), 0u);
  EXPECT_EQ(ds->TopFrequencySum(1), 4u);  // f(e2)=4
  // Clamped beyond num_distinct.
  EXPECT_EQ(ds->TopFrequencySum(1000), ds->total_elements());
}

TEST(DatasetTest, FrequencyMoments) {
  auto ds = Dataset::Create(SmallRecords());
  ASSERT_TRUE(ds.ok());
  // fn2 = Σ f² / N²; N = 15. Frequencies: e1:2 e2:4 e3:2 e4:2 e5:2 e6:1
  // e7:1 e10:1 -> Σf² = 4+16+4+4+4+1+1+1 = 35.
  EXPECT_NEAR(ds->FrequencySecondMoment(), 35.0 / 225.0, 1e-12);
  EXPECT_NEAR(ds->TopFrequencySecondMoment(1), 16.0 / 225.0, 1e-12);
  EXPECT_NEAR(ds->TopFrequencySecondMoment(1000),
              ds->FrequencySecondMoment(), 1e-12);
}

TEST(DatasetTest, StatsShape) {
  auto ds = Dataset::Create(SmallRecords());
  ASSERT_TRUE(ds.ok());
  const DatasetStats& s = ds->stats();
  EXPECT_EQ(s.num_records, 4u);
  EXPECT_EQ(s.min_record_size, 3u);
  EXPECT_EQ(s.max_record_size, 5u);
  EXPECT_NEAR(s.avg_record_size, 15.0 / 4.0, 1e-12);
}

TEST(DatasetTest, EmptyDataset) {
  auto ds = Dataset::Create({});
  ASSERT_TRUE(ds.ok());
  EXPECT_TRUE(ds->empty());
  EXPECT_EQ(ds->total_elements(), 0u);
  EXPECT_EQ(ds->num_distinct(), 0u);
  EXPECT_EQ(ds->FrequencySecondMoment(), 0.0);
}

TEST(DatasetTest, DatasetWithEmptyRecords) {
  auto ds = Dataset::Create({Record{}, MakeRecord({1})});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->total_elements(), 1u);
}

// The lazily derived blocks (frequency tables, stats, fingerprint) are
// derived exactly once even when the first accesses race: eight threads
// hit a fresh dataset at once and all see the values a sequential reader
// of an identical dataset sees. Index builds reach these accessors from
// pool workers, so a race here corrupts the heap (run under TSan in CI).
TEST(DatasetTest, ConcurrentFirstAccessDerivesOnce) {
  SyntheticConfig config;
  config.num_records = 2000;
  config.universe_size = 20000;
  config.seed = 20261017;
  const Result<Dataset> source = GenerateSynthetic(config);
  ASSERT_TRUE(source.ok());
  Result<Dataset> reference =
      Dataset::CreateFromNormalized(source->records(), "reference");
  ASSERT_TRUE(reference.ok());
  const size_t universe = reference->universe_size();
  const std::vector<ElementId> by_frequency =
      reference->elements_by_frequency();
  const DatasetStats stats = reference->stats();
  const uint64_t fingerprint = reference->Fingerprint();

  for (int round = 0; round < 4; ++round) {
    Result<Dataset> fresh =
        Dataset::CreateFromNormalized(source->records(), "fresh");
    ASSERT_TRUE(fresh.ok());
    const Dataset& shared = fresh.value();
    constexpr size_t kThreads = 8;
    std::vector<size_t> universes(kThreads);
    std::vector<std::vector<ElementId>> orders(kThreads);
    std::vector<DatasetStats> all_stats(kThreads);
    std::vector<uint64_t> fingerprints(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Vary the first accessor per thread so every block is raced.
        if (t % 2 == 0) all_stats[t] = shared.stats();
        universes[t] = shared.universe_size();
        orders[t] = shared.elements_by_frequency();
        all_stats[t] = shared.stats();
        fingerprints[t] = shared.Fingerprint();
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(universe, universes[t]);
      EXPECT_EQ(by_frequency, orders[t]);
      EXPECT_EQ(stats.num_distinct, all_stats[t].num_distinct);
      EXPECT_EQ(stats.total_elements, all_stats[t].total_elements);
      EXPECT_EQ(stats.alpha_element_freq, all_stats[t].alpha_element_freq);
      EXPECT_EQ(stats.alpha_record_size, all_stats[t].alpha_record_size);
      EXPECT_EQ(fingerprint, fingerprints[t]);
    }
  }
}

// Copies and moves carry derived blocks along (or derive their own).
TEST(DatasetTest, CopiesKeepDerivedTables) {
  Result<Dataset> ds = Dataset::Create(SmallRecords(), "fig1");
  ASSERT_TRUE(ds.ok());
  const Dataset underived = ds.value();
  EXPECT_EQ(8u, ds->num_distinct());
  const Dataset derived = ds.value();
  Dataset moved = std::move(ds.value());
  Dataset assigned;
  EXPECT_EQ(0u, assigned.num_distinct());
  assigned = derived;
  for (const Dataset* copy :
       std::vector<const Dataset*>{&underived, &derived, &moved, &assigned}) {
    EXPECT_EQ(8u, copy->num_distinct());
    EXPECT_EQ(11u, copy->universe_size());
    EXPECT_EQ(2u, copy->elements_by_frequency().front());
  }
}

}  // namespace
}  // namespace gbkmv
