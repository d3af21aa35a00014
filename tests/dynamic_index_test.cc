#include "index/dynamic_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/synthetic.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "storage/query_context.h"

namespace gbkmv {
namespace {

Result<Dataset> TestDataset(size_t num_records = 300, uint64_t seed = 201) {
  SyntheticConfig c;
  c.num_records = num_records;
  c.universe_size = 3000;
  c.min_record_size = 30;
  c.max_record_size = 150;
  c.alpha_element_freq = 1.2;
  c.alpha_record_size = 2.5;
  c.seed = seed;
  return GenerateSynthetic(c);
}

DynamicGbKmvOptions MakeOptions(const Dataset& ds, double ratio,
                                size_t buffer_bits = 32) {
  DynamicGbKmvOptions options;
  options.budget_units =
      static_cast<uint64_t>(ratio * static_cast<double>(ds.total_elements()));
  options.buffer_bits = buffer_bits;
  return options;
}

TEST(DynamicIndexTest, CreateValidates) {
  auto ds = TestDataset();
  ASSERT_TRUE(ds.ok());
  DynamicGbKmvOptions bad;
  bad.budget_units = 0;
  EXPECT_FALSE(DynamicGbKmvIndex::Create(*ds, bad).ok());
  bad.budget_units = 100;
  bad.shrink_fill = 0.0;
  EXPECT_FALSE(DynamicGbKmvIndex::Create(*ds, bad).ok());
  bad.shrink_fill = 0.9;
  bad.buffer_bits = 1 << 20;  // more than distinct elements
  EXPECT_FALSE(DynamicGbKmvIndex::Create(*ds, bad).ok());
}

TEST(DynamicIndexTest, InitialBuildRespectsBudget) {
  auto ds = TestDataset();
  ASSERT_TRUE(ds.ok());
  auto index = DynamicGbKmvIndex::Create(*ds, MakeOptions(*ds, 0.10));
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->size(), ds->size());
  EXPECT_LE((*index)->used_units(),
            MakeOptions(*ds, 0.10).budget_units);
}

TEST(DynamicIndexTest, InsertsStayWithinFixedBudget) {
  auto base = TestDataset(200, 202);
  ASSERT_TRUE(base.ok());
  const DynamicGbKmvOptions options = MakeOptions(*base, 0.10);
  auto index = DynamicGbKmvIndex::Create(*base, options);
  ASSERT_TRUE(index.ok());

  // Triple the data under the same fixed budget.
  auto extra = TestDataset(400, 203);
  ASSERT_TRUE(extra.ok());
  uint64_t prev_threshold = (*index)->global_threshold();
  for (const Record& r : extra->records()) {
    (*index)->Insert(r);
    EXPECT_LE((*index)->used_units(), options.budget_units);
    // τ never grows.
    EXPECT_LE((*index)->global_threshold(), prev_threshold);
    prev_threshold = (*index)->global_threshold();
  }
  EXPECT_EQ((*index)->size(), 600u);
  // With 3x data, τ must have actually shrunk.
  EXPECT_LT((*index)->global_threshold(), ~0ULL);
}

TEST(DynamicIndexTest, InsertedRecordsAreSearchable) {
  auto base = TestDataset(100, 204);
  ASSERT_TRUE(base.ok());
  auto index = DynamicGbKmvIndex::Create(*base, MakeOptions(*base, 0.3));
  ASSERT_TRUE(index.ok());
  auto extra = TestDataset(50, 205);
  ASSERT_TRUE(extra.ok());
  std::vector<RecordId> new_ids;
  for (const Record& r : extra->records()) new_ids.push_back((*index)->Insert(r));
  // Each inserted record should find itself (containment 1.0, generous
  // budget keeps the sketch informative).
  size_t found = 0;
  for (size_t i = 0; i < new_ids.size(); ++i) {
    const auto result = (*index)->Search(extra->record(i), 0.7);
    if (std::find(result.begin(), result.end(), new_ids[i]) != result.end()) {
      ++found;
    }
  }
  EXPECT_GE(found, new_ids.size() * 9 / 10);
}

TEST(DynamicIndexTest, SearchAccuracyAfterGrowth) {
  // Grow the index 3x, then compare against exact ground truth on the grown
  // contents.
  auto base = TestDataset(150, 206);
  ASSERT_TRUE(base.ok());
  const DynamicGbKmvOptions options = MakeOptions(*base, 0.5);
  auto index = DynamicGbKmvIndex::Create(*base, options);
  ASSERT_TRUE(index.ok());
  auto extra = TestDataset(300, 207);
  ASSERT_TRUE(extra.ok());
  for (const Record& r : extra->records()) (*index)->Insert(r);

  // Rebuild the full dataset for ground truth.
  std::vector<Record> all(base->records());
  all.insert(all.end(), extra->records().begin(), extra->records().end());
  auto grown = Dataset::Create(std::move(all), "grown");
  ASSERT_TRUE(grown.ok());
  const auto queries = SampleQueries(*grown, 30, 17);
  const auto truth = ComputeGroundTruth(*grown, queries, 0.5);
  std::vector<AccuracyMetrics> per_query;
  for (size_t i = 0; i < queries.size(); ++i) {
    per_query.push_back(ComputeAccuracy(
        (*index)->Search(grown->record(queries[i]), 0.5), truth[i]));
  }
  EXPECT_GT(AverageAccuracy(per_query).f1, 0.5);
}

TEST(DynamicIndexTest, RebuildRefreshesBufferUniverse) {
  auto base = TestDataset(100, 208);
  ASSERT_TRUE(base.ok());
  auto index = DynamicGbKmvIndex::Create(*base, MakeOptions(*base, 0.3, 16));
  ASSERT_TRUE(index.ok());
  // Insert records over a shifted element range so the hot set changes.
  for (int i = 0; i < 100; ++i) {
    Record r;
    for (int j = 0; j < 50; ++j) {
      r.push_back(50000 + static_cast<ElementId>((i * 37 + j * 11) % 500));
    }
    (*index)->Insert(MakeRecord(std::move(r)));
  }
  ASSERT_TRUE((*index)->Rebuild().ok());
  EXPECT_EQ((*index)->size(), 200u);
  // Still within budget after rebuild.
  EXPECT_LE((*index)->used_units(), MakeOptions(*base, 0.3, 16).budget_units);
  // And still searchable.
  EXPECT_FALSE((*index)->Search((*index)->record(150), 0.5).empty());
}

TEST(DynamicIndexTest, EstimateContainmentReasonable) {
  auto base = TestDataset(100, 209);
  ASSERT_TRUE(base.ok());
  auto index = DynamicGbKmvIndex::Create(*base, MakeOptions(*base, 0.5));
  ASSERT_TRUE(index.ok());
  // Self-containment near 1.
  double sum = 0;
  for (RecordId id = 0; id < 20; ++id) {
    sum += (*index)->EstimateContainment((*index)->record(id), id);
  }
  EXPECT_GT(sum / 20, 0.7);
  // Empty query.
  EXPECT_DOUBLE_EQ((*index)->EstimateContainment({}, 0), 0.0);
}

TEST(DynamicIndexTest, EmptyInitialDatasetWithNoBuffer) {
  auto empty = Dataset::Create({});
  ASSERT_TRUE(empty.ok());
  DynamicGbKmvOptions options;
  options.budget_units = 1000;
  options.buffer_bits = 0;
  auto index = DynamicGbKmvIndex::Create(*empty, options);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->size(), 0u);
  EXPECT_TRUE((*index)->Search(MakeRecord({1, 2, 3}), 0.5).empty());
  (*index)->Insert(MakeRecord({1, 2, 3}));
  const auto result = (*index)->Search(MakeRecord({1, 2, 3}), 0.5);
  EXPECT_EQ(result.size(), 1u);
}

// At t* = 0 every record qualifies, scored by its estimate, as in the
// static index: also a record sharing neither a sketch hash nor a buffer
// bit with the query, which no candidate pass ever reaches.
TEST(DynamicIndexTest, ZeroThresholdReturnsEveryRecord) {
  std::vector<Record> records;
  for (ElementId base = 0; base < 7; ++base) {
    records.push_back(MakeRecord({base, base + 1, base + 2, 40, 41}));
  }
  auto initial = Dataset::Create(records);
  ASSERT_TRUE(initial.ok());
  DynamicGbKmvOptions options;
  options.budget_units = 1000;
  options.buffer_bits = 4;
  auto index = DynamicGbKmvIndex::Create(*initial, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  // Disjoint from every record: empty buffer, no shared hash.
  const Record disjoint = MakeRecord({300, 301});
  QueryRequest request(disjoint, 0.0);
  const QueryResponse none =
      (*index)->SearchQ(request, ThreadLocalQueryContext());
  ASSERT_EQ(records.size(), none.hits.size());
  for (size_t i = 0; i < none.hits.size(); ++i) {
    EXPECT_EQ(static_cast<RecordId>(i), none.hits[i].id);
    EXPECT_EQ(0.0f, none.hits[i].score);
  }

  // A record as the query: every record comes back, and a record that
  // also qualifies at a positive threshold keeps that score.
  const Record& query = records[2];
  QueryRequest zero(query, 0.0);
  QueryRequest positive(query, 0.3);
  const QueryResponse all =
      (*index)->SearchQ(zero, ThreadLocalQueryContext());
  const QueryResponse some =
      (*index)->SearchQ(positive, ThreadLocalQueryContext());
  ASSERT_EQ(records.size(), all.hits.size());
  ASSERT_FALSE(some.hits.empty());
  for (const QueryHit& hit : some.hits) {
    EXPECT_EQ(hit.score, all.hits[hit.id].score) << hit.id;
  }
}

// Until a shrink, the threshold is the maximal one: every hash is kept and
// SearchQ scores the exact containment, with and without a buffer.
TEST(DynamicIndexTest, MaximalThresholdScoresExactContainment) {
  std::vector<Record> records;
  for (ElementId base = 0; base < 7; ++base) {
    // Two elements shared by all, five shared with the neighbours, six of
    // its own: 67 distinct elements, enough for a 64-bit buffer.
    std::vector<ElementId> elements = {500, 501};
    for (ElementId k = 0; k < 5; ++k) elements.push_back(base * 3 + k);
    for (ElementId k = 0; k < 6; ++k) elements.push_back(1000 + base * 10 + k);
    records.push_back(MakeRecord(elements));
  }
  auto initial = Dataset::Create(records);
  ASSERT_TRUE(initial.ok());
  for (const size_t bits : {0, 64}) {
    DynamicGbKmvOptions options;
    options.budget_units = 1000;
    options.buffer_bits = bits;
    auto index = DynamicGbKmvIndex::Create(*initial, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ASSERT_EQ(~0ULL, (*index)->global_threshold());
    for (const Record& q : records) {
      QueryRequest request(q, 0.0);
      const QueryResponse response =
          (*index)->SearchQ(request, ThreadLocalQueryContext());
      ASSERT_EQ(records.size(), response.hits.size());
      for (const QueryHit& hit : response.hits) {
        const double exact = ContainmentSimilarity(q, records[hit.id]);
        EXPECT_EQ(static_cast<float>(exact), hit.score)
            << "bits " << bits << " record " << hit.id;
        EXPECT_DOUBLE_EQ(exact, (*index)->EstimateContainment(q, hit.id))
            << "bits " << bits << " record " << hit.id;
      }
    }
  }
}

class DynamicBudgetSweep : public ::testing::TestWithParam<double> {};

TEST_P(DynamicBudgetSweep, BudgetInvariantUnderManyInserts) {
  const double ratio = GetParam();
  auto base = TestDataset(100, 210);
  ASSERT_TRUE(base.ok());
  const DynamicGbKmvOptions options = MakeOptions(*base, ratio, 16);
  auto index = DynamicGbKmvIndex::Create(*base, options);
  ASSERT_TRUE(index.ok());
  auto extra = TestDataset(200, 211);
  ASSERT_TRUE(extra.ok());
  for (const Record& r : extra->records()) {
    (*index)->Insert(r);
    ASSERT_LE((*index)->used_units(), options.budget_units);
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, DynamicBudgetSweep,
                         ::testing::Values(0.05, 0.15, 0.5));

}  // namespace
}  // namespace gbkmv
