#include "index/gbkmv_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

#include "common/hash.h"
#include "data/synthetic.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "index/brute_force.h"
#include "io/mmap_snapshot.h"
#include "storage/query_context.h"

namespace gbkmv {
namespace {

Result<Dataset> TestDataset(uint64_t seed = 61) {
  SyntheticConfig c;
  c.num_records = 600;
  c.universe_size = 4000;
  c.min_record_size = 50;
  c.max_record_size = 300;
  c.alpha_element_freq = 1.15;
  c.alpha_record_size = 2.5;
  c.seed = seed;
  return GenerateSynthetic(c);
}

TEST(GbKmvIndexTest, CreateValidates) {
  auto ds = TestDataset();
  ASSERT_TRUE(ds.ok());
  GbKmvIndexOptions opts;
  opts.space_ratio = 0.0;
  EXPECT_FALSE(GbKmvIndexSearcher::Create(*ds, opts).ok());
  auto empty = Dataset::Create({});
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(GbKmvIndexSearcher::Create(*empty, {}).ok());
}

TEST(GbKmvIndexTest, NameReflectsBuffer) {
  auto ds = TestDataset();
  ASSERT_TRUE(ds.ok());
  GbKmvIndexOptions opts;
  opts.buffer_bits = 0;
  auto gkmv = GbKmvIndexSearcher::Create(*ds, opts);
  ASSERT_TRUE(gkmv.ok());
  EXPECT_EQ((*gkmv)->name(), "G-KMV");
  opts.buffer_bits = 64;
  auto gb = GbKmvIndexSearcher::Create(*ds, opts);
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ((*gb)->name(), "GB-KMV");
}

TEST(GbKmvIndexTest, AutoBufferUsesCostModel) {
  auto ds = TestDataset();
  ASSERT_TRUE(ds.ok());
  GbKmvIndexOptions opts;  // kAutoBuffer by default
  opts.cost_model.step_bits = 32;
  auto s = GbKmvIndexSearcher::Create(*ds, opts);
  ASSERT_TRUE(s.ok());
  // On skewed data the model should pick a non-zero buffer.
  EXPECT_GT((*s)->chosen_buffer_bits(), 0u);
}

TEST(GbKmvIndexTest, SpaceWithinBudget) {
  auto ds = TestDataset();
  ASSERT_TRUE(ds.ok());
  GbKmvIndexOptions opts;
  opts.space_ratio = 0.10;
  opts.buffer_bits = 32;
  auto s = GbKmvIndexSearcher::Create(*ds, opts);
  ASSERT_TRUE(s.ok());
  // The budget bounds the sketch payload (the paper's measure); the full
  // resident accounting additionally counts the flat posting store.
  EXPECT_LE((*s)->BudgetSpaceUnits(),
            static_cast<uint64_t>(0.11 * ds->total_elements()));
  EXPECT_GE((*s)->SpaceUnits(), (*s)->BudgetSpaceUnits());
}

TEST(GbKmvIndexTest, EmptyQuery) {
  auto ds = TestDataset();
  ASSERT_TRUE(ds.ok());
  auto s = GbKmvIndexSearcher::Create(*ds, {});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE((*s)->Search({}, 0.5).empty());
}

// Every size-eligible record whose Eq. 27 estimate (EstimateContainment,
// the full pair estimator) clears θ = t*·|Q|, by a plain scan.
std::vector<RecordId> EstimatorScan(const GbKmvIndexSearcher& s,
                                    const Dataset& ds, const Record& q,
                                    double threshold) {
  const double theta = threshold * static_cast<double>(q.size());
  const size_t min_size = static_cast<size_t>(std::ceil(theta - 1e-9));
  std::vector<RecordId> expected;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (ds.record(i).size() < min_size) continue;
    const double est = s.EstimateContainment(q, static_cast<RecordId>(i)) *
                       static_cast<double>(q.size());
    if (est >= theta - 1e-9) expected.push_back(static_cast<RecordId>(i));
  }
  return expected;
}

// The searcher's hit ids for `q` (ascending), each hit's score checked
// against its Eq. 27 estimate.
std::vector<RecordId> CheckedSearch(const GbKmvIndexSearcher& s,
                                    const Record& q, double threshold) {
  QueryRequest request(q, threshold);
  request.want_scores = true;
  const QueryResponse response =
      s.SearchQ(request, ThreadLocalQueryContext());
  std::vector<RecordId> ids;
  for (const QueryHit& hit : response.hits) {
    EXPECT_FLOAT_EQ(static_cast<float>(s.EstimateContainment(q, hit.id)),
                    hit.score)
        << "record " << hit.id;
    ids.push_back(hit.id);
  }
  return ids;
}

// A searcher built over `ds` and the same searcher saved and served
// straight out of a mapped v3 snapshot (which rebuilds the buffer popcount
// order on load); `mapping` keeps the mapped one's bytes alive.
struct BuiltAndMapped {
  std::unique_ptr<GbKmvIndexSearcher> built;
  std::unique_ptr<io::MmapSnapshot> mapping;
  std::unique_ptr<GbKmvIndexSearcher> mapped;
};

BuiltAndMapped BuildAndMap(const Dataset& ds, const GbKmvIndexOptions& opts) {
  BuiltAndMapped out;
  out.built = std::move(GbKmvIndexSearcher::Create(ds, opts).value());
  const std::string path = ::testing::TempDir() + "gbkmv_index_test_" +
                           std::to_string(opts.buffer_bits) + ".snap";
  EXPECT_TRUE(out.built->Save(path).ok());
  out.mapping = std::make_unique<io::MmapSnapshot>(
      std::move(io::MmapSnapshot::Open(path).value()));
  out.mapped = std::move(
      GbKmvIndexSearcher::LoadMapped(out.mapping->reader()).value());
  std::remove(path.c_str());
  return out;
}

TEST(GbKmvIndexTest, SearchMatchesPairwiseEstimator) {
  // The index's candidate machinery — the size bound, the hash-posting
  // ScanCount and the buffer popcount bounds — must return exactly the
  // records whose Eq. 27 estimate clears θ, scored by that estimate, i.e.
  // the fast path is a pure optimisation, not an approximation. Over
  // thresholds (t* = 0 returns every record, as in every exact method),
  // buffer widths (none, one word, several words, and a width that is not a
  // multiple of 64), and both the built and the mapped searcher. The last
  // query shares neither a sketch hash nor a buffer bit with any record.
  auto ds = TestDataset();
  ASSERT_TRUE(ds.ok());
  std::vector<Record> queries;
  for (size_t qi = 0; qi < 10; ++qi) {
    queries.push_back(ds->record(qi * 13 % ds->size()));
  }
  queries.push_back(MakeRecord({100000, 100001, 100002}));
  for (const size_t bits : {0, 64, 100, 128, 192}) {
    GbKmvIndexOptions opts;
    opts.space_ratio = 0.15;
    opts.buffer_bits = bits;
    const BuiltAndMapped s = BuildAndMap(*ds, opts);
    ASSERT_EQ(bits, s.mapped->chosen_buffer_bits());
    for (const double threshold : {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const Record& q = queries[qi];
        const std::vector<RecordId> expected =
            EstimatorScan(*s.built, *ds, q, threshold);
        if (threshold == 0.0) {
          ASSERT_EQ(ds->size(), expected.size());
        }
        EXPECT_EQ(CheckedSearch(*s.built, q, threshold), expected)
            << "bits " << bits << " t* " << threshold << " query " << qi;
        EXPECT_EQ(CheckedSearch(*s.mapped, q, threshold), expected)
            << "mapped, bits " << bits << " t* " << threshold << " query "
            << qi;
      }
    }
  }
}

// At a budget that keeps every hash (τ = the maximal threshold) a sketch is
// its whole record, so SearchQ scores the exact containment — the value
// EstimateContainment's pair estimator returns — with and without a buffer.
TEST(GbKmvIndexTest, MaximalThresholdScoresExactContainment) {
  std::vector<Record> records;
  for (ElementId base = 0; base < 7; ++base) {
    // Two elements shared by all, five shared with the neighbours, six of
    // its own: 67 distinct elements, enough for a 64-bit buffer.
    std::vector<ElementId> elements = {500, 501};
    for (ElementId k = 0; k < 5; ++k) elements.push_back(base * 3 + k);
    for (ElementId k = 0; k < 6; ++k) elements.push_back(1000 + base * 10 + k);
    records.push_back(MakeRecord(elements));
  }
  const Dataset ds = Dataset::Create(records).value();
  for (const size_t bits : {0, 64}) {
    GbKmvIndexOptions opts;
    opts.budget_units = 1000;
    opts.buffer_bits = bits;
    auto s = GbKmvIndexSearcher::Create(ds, opts);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    ASSERT_EQ(~0ULL, (*s)->global_threshold());
    for (const Record& q : records) {
      QueryRequest request(q, 0.0);
      const QueryResponse response =
          (*s)->SearchQ(request, ThreadLocalQueryContext());
      ASSERT_EQ(records.size(), response.hits.size());
      for (const QueryHit& hit : response.hits) {
        EXPECT_EQ(static_cast<float>(
                      ContainmentSimilarity(q, records[hit.id])),
                  hit.score)
            << "bits " << bits << " record " << hit.id;
      }
      EXPECT_EQ(CheckedSearch(**s, q, 0.5), EstimatorScan(**s, ds, q, 0.5))
          << "bits " << bits;
    }
  }
}

// CreateWithSketcher writes every record straight into the flat store; each
// row must hold exactly the record's sketch, rebuilt here from the sketcher's
// parameters alone (buffer bits of E_H, then the G-KMV hashes <= τ), for
// any build thread count. Sketch() must agree, also for a query with
// elements outside the universe.
TEST(GbKmvIndexTest, FlatStoreHoldsEachRecordsSketchForAnyThreadCount) {
  auto base = TestDataset();
  ASSERT_TRUE(base.ok());
  std::vector<Record> records = base->records();
  // Only E_H elements (with a buffer): the most frequent elements stay
  // the most frequent with one more occurrence each.
  const std::vector<ElementId>& ranked = base->elements_by_frequency();
  records.push_back(MakeRecord({ranked[0], ranked[1], ranked[2], ranked[3]}));
  // Three rare elements whose hashes exceed τ: an empty G-KMV part.
  std::vector<ElementId> high;
  for (ElementId e = 5000; high.size() < 3; ++e) {
    if (HashToUnit(HashElement(e, kDefaultSketchSeed)) > 0.9) high.push_back(e);
  }
  records.push_back(MakeRecord(high));
  const Dataset ds = Dataset::Create(records).value();
  const RecordId buffered_only = static_cast<RecordId>(ds.size() - 2);
  const RecordId no_hashes = static_cast<RecordId>(ds.size() - 1);
  const Record outside = MakeRecord({ranked[0], 90000, 90001, 90002, 90003});

  for (const size_t bits : {0, 64, 100, 192}) {
    GbKmvIndexOptions opts;
    opts.space_ratio = 0.15;
    opts.buffer_bits = bits;
    auto sketcher = std::make_shared<const GbKmvSketcher>(
        GbKmvIndexSearcher::MakeSketcher(ds, opts).value());
    const uint64_t tau = sketcher->global_threshold();
    ASSERT_LT(HashToUnit(tau), 0.9);
    // The reference sketch of `r`: bitmap words and ascending hashes.
    const auto reference = [&](const Record& r) {
      std::vector<uint64_t> words((bits + 63) / 64, 0);
      const std::vector<ElementId>& elems = sketcher->buffer_elements();
      Record rest;
      for (ElementId e : r) {
        const auto it = std::find(elems.begin(), elems.end(), e);
        if (it == elems.end()) {
          rest.push_back(e);
          continue;
        }
        const size_t bit = static_cast<size_t>(it - elems.begin());
        words[bit / 64] |= uint64_t{1} << (bit % 64);
      }
      return std::make_pair(
          words, GkmvSketch::Build(rest, tau, kDefaultSketchSeed).values());
    };

    for (const size_t threads : {1, 2, 8}) {
      auto s = GbKmvIndexSearcher::CreateWithSketcher(ds, sketcher, threads);
      ASSERT_TRUE(s.ok()) << s.status().ToString();
      uint64_t units = 0;
      for (size_t i = 0; i < ds.size(); ++i) {
        const RecordId id = static_cast<RecordId>(i);
        const auto [words, hashes] = reference(ds.record(i));
        const std::span<const uint64_t> stored_words = (*s)->BufferWordsOf(id);
        const std::span<const uint64_t> stored_hashes = (*s)->HashesOf(id);
        ASSERT_EQ(words, std::vector<uint64_t>(stored_words.begin(),
                                               stored_words.end()))
            << "bits " << bits << " threads " << threads << " record " << i;
        ASSERT_EQ(hashes, std::vector<uint64_t>(stored_hashes.begin(),
                                                stored_hashes.end()))
            << "bits " << bits << " threads " << threads << " record " << i;
        const GbKmvSketch sketch = sketcher->Sketch(ds.record(i));
        ASSERT_EQ(words, std::vector<uint64_t>(sketch.buffer.words().begin(),
                                               sketch.buffer.words().end()));
        ASSERT_EQ(hashes, sketch.gkmv.values());
        units += (bits + 31) / 32 + hashes.size();
      }
      EXPECT_EQ(units, (*s)->BudgetSpaceUnits());
      EXPECT_TRUE((*s)->HashesOf(no_hashes).empty());
      if (bits > 0) {
        EXPECT_TRUE((*s)->HashesOf(buffered_only).empty());
      }
    }

    const auto [words, hashes] = reference(outside);
    const GbKmvSketch sketch = sketcher->Sketch(outside);
    EXPECT_EQ(words, std::vector<uint64_t>(sketch.buffer.words().begin(),
                                           sketch.buffer.words().end()));
    EXPECT_EQ(hashes, sketch.gkmv.values());
    EXPECT_EQ(tau, sketch.gkmv.threshold());
  }
}

TEST(GbKmvIndexTest, BufferOnlyPassKeepsRecordsAtThePopcountBound) {
  // A query made of exactly record X's buffered elements has an empty G-KMV
  // sketch (K∩ = 0 with every record) and H_Q = H_X. With ⌈θ⌉ = |H_X|, X
  // qualifies on o1 = |H_Q| = |H_X| = ⌈θ⌉ exactly, so an off-by-one in
  // either popcount bound drops it.
  auto ds = TestDataset();
  ASSERT_TRUE(ds.ok());
  GbKmvIndexOptions opts;
  opts.space_ratio = 0.15;
  opts.buffer_bits = 100;
  const BuiltAndMapped s = BuildAndMap(*ds, opts);
  const GbKmvSketcher sketcher =
      GbKmvIndexSearcher::MakeSketcher(*ds, opts).value();
  const std::vector<ElementId>& buffered = sketcher.buffer_elements();
  size_t checked = 0;
  for (size_t i = 0; i < ds->size() && checked < 20; i += 7) {
    std::vector<ElementId> elements;
    for (ElementId e : ds->record(i)) {
      if (std::find(buffered.begin(), buffered.end(), e) != buffered.end()) {
        elements.push_back(e);
      }
    }
    if (elements.size() < 2) continue;
    const Record q = MakeRecord(std::move(elements));
    const GbKmvSketch q_sketch = sketcher.Sketch(q);
    ASSERT_TRUE(q_sketch.gkmv.values().empty());
    ASSERT_EQ(q.size(), q_sketch.buffer.Count());
    const double p = static_cast<double>(q.size());
    // θ = |H_X| exactly, and θ just above |H_X| − 1 (⌈θ⌉ = |H_X| again).
    for (const double threshold : {1.0, (p - 0.5) / p}) {
      const std::vector<RecordId> expected =
          EstimatorScan(*s.built, *ds, q, threshold);
      ASSERT_TRUE(std::binary_search(expected.begin(), expected.end(),
                                     static_cast<RecordId>(i)));
      EXPECT_EQ(CheckedSearch(*s.built, q, threshold), expected)
          << "record " << i << " t* " << threshold;
      EXPECT_EQ(CheckedSearch(*s.mapped, q, threshold), expected)
          << "mapped, record " << i << " t* " << threshold;
    }
    ++checked;
  }
  EXPECT_EQ(20u, checked);
}

TEST(GbKmvIndexTest, QueryBufferBelowThetaSkipsBufferOnlyPass) {
  // o1 = |H_Q ∩ H_X| <= |H_Q|: when |H_Q| < ⌈θ⌉ no record qualifies on the
  // buffer alone, so the search reads no buffered record beyond the ones
  // the hash postings touched. Its counters are then exactly the ScanCount:
  // one posting per shared sketch hash, one candidate per size-eligible
  // record sharing one. Each query checked has a record that only the
  // query's popcount bound rules out (K∩ = 0 and |H_X| >= ⌈θ⌉).
  auto ds = TestDataset();
  ASSERT_TRUE(ds.ok());
  GbKmvIndexOptions opts;
  opts.space_ratio = 0.15;
  opts.buffer_bits = 128;
  const BuiltAndMapped s = BuildAndMap(*ds, opts);
  const GbKmvSketcher sketcher =
      GbKmvIndexSearcher::MakeSketcher(*ds, opts).value();
  std::vector<GbKmvSketch> sketches;
  for (const Record& x : ds->records()) sketches.push_back(sketcher.Sketch(x));
  const double threshold = 0.5;
  size_t checked = 0;
  for (size_t qi = 0; qi < ds->size() && checked < 10; ++qi) {
    const Record& q = ds->record(qi);
    const GbKmvSketch& q_sketch = sketches[qi];
    const double theta = threshold * static_cast<double>(q.size());
    const size_t min_size = static_cast<size_t>(std::ceil(theta - 1e-9));
    if (q_sketch.buffer.Empty() || q_sketch.buffer.Count() >= min_size) {
      continue;
    }
    uint64_t postings = 0;
    uint64_t candidates = 0;
    bool only_query_bound_rules_out = false;
    for (size_t i = 0; i < ds->size(); ++i) {
      std::vector<uint64_t> shared;
      std::set_intersection(q_sketch.gkmv.values().begin(),
                            q_sketch.gkmv.values().end(),
                            sketches[i].gkmv.values().begin(),
                            sketches[i].gkmv.values().end(),
                            std::back_inserter(shared));
      postings += shared.size();
      const bool eligible = ds->record(i).size() >= min_size;
      if (!shared.empty() && eligible) ++candidates;
      if (shared.empty() && sketches[i].buffer.Count() >= min_size) {
        only_query_bound_rules_out = true;
      }
    }
    if (!only_query_bound_rules_out) continue;
    for (const GbKmvIndexSearcher* searcher :
         {s.built.get(), s.mapped.get()}) {
      const QueryRequest request(q, threshold);
      const QueryResponse response =
          searcher->SearchQ(request, ThreadLocalQueryContext());
      EXPECT_EQ(postings, response.stats.postings_scanned) << "query " << qi;
      EXPECT_EQ(candidates, response.stats.candidates_generated)
          << "query " << qi;
    }
    ++checked;
  }
  EXPECT_EQ(10u, checked);
}

TEST(GbKmvIndexTest, AccuracyBeatsGkmvAndKmv) {
  // Fig. 6's headline ablation: GB-KMV (cost-model buffer) beats both the
  // buffer-less G-KMV and plain KMV at equal space on skewed data, because
  // the buffer takes the heavy-hitter elements out of the sketch.
  auto ds = TestDataset(62);
  ASSERT_TRUE(ds.ok());
  const double ratio = 0.10;
  const auto queries = SampleQueries(*ds, 60, 3);
  const auto truth = ComputeGroundTruth(*ds, queries, 0.5);

  auto eval = [&](ContainmentSearcher& searcher) {
    std::vector<AccuracyMetrics> per_query;
    for (size_t i = 0; i < queries.size(); ++i) {
      per_query.push_back(ComputeAccuracy(
          searcher.Search(ds->record(queries[i]), 0.5), truth[i]));
    }
    return AverageAccuracy(per_query).f1;
  };

  GbKmvIndexOptions gb_opts;
  gb_opts.space_ratio = ratio;
  auto gb = GbKmvIndexSearcher::Create(*ds, gb_opts);
  ASSERT_TRUE(gb.ok());
  GbKmvIndexOptions gkmv_opts;
  gkmv_opts.space_ratio = ratio;
  gkmv_opts.buffer_bits = 0;
  auto gkmv = GbKmvIndexSearcher::Create(*ds, gkmv_opts);
  ASSERT_TRUE(gkmv.ok());
  auto kmv = KmvSearcher::Create(*ds, ratio);
  ASSERT_TRUE(kmv.ok());

  const double f1_gb = eval(**gb);
  const double f1_gkmv = eval(**gkmv);
  const double f1_kmv = eval(**kmv);
  EXPECT_GT(f1_gb, f1_gkmv);
  EXPECT_GT(f1_gb, f1_kmv);
  EXPECT_GT(f1_gb, 0.4);
}

TEST(GbKmvIndexTest, HigherBudgetHigherAccuracy) {
  auto ds = TestDataset(63);
  ASSERT_TRUE(ds.ok());
  const auto queries = SampleQueries(*ds, 50, 5);
  const auto truth = ComputeGroundTruth(*ds, queries, 0.5);
  double prev_f1 = -1.0;
  for (double ratio : {0.02, 0.10, 0.40}) {
    GbKmvIndexOptions opts;
    opts.space_ratio = ratio;
    auto s = GbKmvIndexSearcher::Create(*ds, opts);
    ASSERT_TRUE(s.ok());
    std::vector<AccuracyMetrics> per_query;
    for (size_t i = 0; i < queries.size(); ++i) {
      per_query.push_back(ComputeAccuracy(
          (*s)->Search(ds->record(queries[i]), 0.5), truth[i]));
    }
    const double f1 = AverageAccuracy(per_query).f1;
    EXPECT_GT(f1, prev_f1 - 0.05) << "ratio " << ratio;
    prev_f1 = std::max(prev_f1, f1);
  }
  EXPECT_GT(prev_f1, 0.75);  // generous budget -> high accuracy
}

TEST(KmvSearcherTest, TheoremOneAllocation) {
  auto ds = TestDataset();
  ASSERT_TRUE(ds.ok());
  auto s = KmvSearcher::Create(*ds, 0.10);
  ASSERT_TRUE(s.ok());
  const uint64_t budget =
      static_cast<uint64_t>(0.10 * ds->total_elements());
  EXPECT_EQ((*s)->sketch_k(), budget / ds->size());
  EXPECT_EQ((*s)->name(), "KMV");
}

TEST(KmvSearcherTest, ValidatesInput) {
  auto ds = TestDataset();
  ASSERT_TRUE(ds.ok());
  EXPECT_FALSE(KmvSearcher::Create(*ds, 0.0).ok());
  auto empty = Dataset::Create({});
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(KmvSearcher::Create(*empty, 0.1).ok());
}

TEST(KmvSearcherTest, SelfQueryFound) {
  auto ds = TestDataset();
  ASSERT_TRUE(ds.ok());
  auto s = KmvSearcher::Create(*ds, 0.3);
  ASSERT_TRUE(s.ok());
  size_t found = 0;
  for (size_t i = 0; i < 20; ++i) {
    const auto result = (*s)->Search(ds->record(i), 0.5);
    if (std::find(result.begin(), result.end(), static_cast<RecordId>(i)) !=
        result.end()) {
      ++found;
    }
  }
  EXPECT_GE(found, 18u);
}

class GbKmvThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(GbKmvThresholdSweep, ReasonableAccuracyAcrossThresholds) {
  const double threshold = GetParam();
  auto ds = TestDataset(64);
  ASSERT_TRUE(ds.ok());
  GbKmvIndexOptions opts;
  opts.space_ratio = 0.10;
  auto s = GbKmvIndexSearcher::Create(*ds, opts);
  ASSERT_TRUE(s.ok());
  const auto queries = SampleQueries(*ds, 40, 11);
  const auto truth = ComputeGroundTruth(*ds, queries, threshold);
  std::vector<AccuracyMetrics> per_query;
  for (size_t i = 0; i < queries.size(); ++i) {
    per_query.push_back(ComputeAccuracy(
        (*s)->Search(ds->record(queries[i]), threshold), truth[i]));
  }
  EXPECT_GT(AverageAccuracy(per_query).f1, 0.35) << "t*=" << threshold;
}

INSTANTIATE_TEST_SUITE_P(Thresholds, GbKmvThresholdSweep,
                         ::testing::Values(0.2, 0.5, 0.8));

}  // namespace
}  // namespace gbkmv
