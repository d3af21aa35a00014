#include "sketch/gkmv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "data/synthetic.h"

namespace gbkmv {
namespace {

Record SequentialRecord(ElementId start, size_t count) {
  Record r;
  for (size_t i = 0; i < count; ++i) r.push_back(start + static_cast<ElementId>(i));
  return r;
}

TEST(GkmvSketchTest, KeepsOnlyHashesBelowThreshold) {
  const Record r = SequentialRecord(0, 1000);
  const uint64_t tau = UnitToHashThreshold(0.1);
  const GkmvSketch s = GkmvSketch::Build(r, tau);
  for (uint64_t v : s.values()) EXPECT_LE(v, tau);
  // Expected ~10% of 1000.
  EXPECT_GT(s.size(), 50u);
  EXPECT_LT(s.size(), 200u);
}

TEST(GkmvSketchTest, MaxThresholdKeepsAll) {
  const Record r = SequentialRecord(0, 100);
  const GkmvSketch s = GkmvSketch::Build(r, ~0ULL);
  EXPECT_EQ(s.size(), 100u);
}

TEST(GkmvSketchTest, ZeroThresholdKeepsNothing) {
  const Record r = SequentialRecord(0, 100);
  const GkmvSketch s = GkmvSketch::Build(r, 0);
  EXPECT_TRUE(s.empty());
}

TEST(GkmvSketchTest, ValuesSorted) {
  const GkmvSketch s =
      GkmvSketch::Build(SequentialRecord(0, 500), UnitToHashThreshold(0.5));
  for (size_t i = 1; i < s.size(); ++i) {
    EXPECT_LT(s.values()[i - 1], s.values()[i]);
  }
}

TEST(GkmvPairTest, TheoremTwoValidSynopsis) {
  // Theorem 2: L_X ∪ L_Y with k = |L_X ∪ L_Y| is a valid KMV synopsis of
  // X ∪ Y — i.e. it equals the k smallest hashes of h(X ∪ Y).
  const Record x = SequentialRecord(0, 300);
  const Record y = SequentialRecord(150, 300);
  const uint64_t tau = UnitToHashThreshold(0.3);
  const GkmvSketch lx = GkmvSketch::Build(x, tau);
  const GkmvSketch ly = GkmvSketch::Build(y, tau);

  // Union of sketches.
  std::vector<uint64_t> sketch_union = lx.values();
  sketch_union.insert(sketch_union.end(), ly.values().begin(),
                      ly.values().end());
  std::sort(sketch_union.begin(), sketch_union.end());
  sketch_union.erase(std::unique(sketch_union.begin(), sketch_union.end()),
                     sketch_union.end());

  // All hashes of X ∪ Y, sorted.
  Record xy = x;
  xy.insert(xy.end(), y.begin(), y.end());
  xy = MakeRecord(std::move(xy));
  std::vector<uint64_t> all;
  for (ElementId e : xy) all.push_back(HashElement(e, kDefaultSketchSeed));
  std::sort(all.begin(), all.end());
  all.resize(sketch_union.size());
  EXPECT_EQ(sketch_union, all);
}

TEST(GkmvPairTest, IdenticalRecords) {
  const Record r = SequentialRecord(0, 1000);
  const GkmvSketch s = GkmvSketch::Build(r, UnitToHashThreshold(0.2));
  const GkmvPairEstimate est = EstimateGkmvPair(s, s);
  EXPECT_EQ(est.k, s.size());
  EXPECT_EQ(est.k_intersect, s.size());
  EXPECT_NEAR(est.intersection_size, est.union_size, 1e-9);
  EXPECT_NEAR(est.intersection_size, 1000.0, 300.0);
}

TEST(GkmvPairTest, DisjointRecords) {
  const GkmvSketch a =
      GkmvSketch::Build(SequentialRecord(0, 500), UnitToHashThreshold(0.3));
  const GkmvSketch b = GkmvSketch::Build(SequentialRecord(100000, 500),
                                         UnitToHashThreshold(0.3));
  const GkmvPairEstimate est = EstimateGkmvPair(a, b);
  EXPECT_EQ(est.k_intersect, 0u);
  EXPECT_DOUBLE_EQ(est.intersection_size, 0.0);
}

TEST(GkmvPairTest, EmptySketches) {
  const GkmvSketch a, b;
  const GkmvPairEstimate est = EstimateGkmvPair(a, b);
  EXPECT_EQ(est.k, 0u);
  EXPECT_DOUBLE_EQ(est.intersection_size, 0.0);
}

TEST(GkmvPairTest, ExactWithMaxThreshold) {
  const Record a = MakeRecord({1, 2, 3, 4});
  const Record b = MakeRecord({3, 4, 5});
  const GkmvPairEstimate est = EstimateGkmvPair(GkmvSketch::Build(a, ~0ULL),
                                                GkmvSketch::Build(b, ~0ULL));
  EXPECT_DOUBLE_EQ(est.intersection_size, 2.0);
  EXPECT_DOUBLE_EQ(est.union_size, 5.0);
}

TEST(GkmvPairTest, IntersectionNearTruthOverSeeds) {
  const Record a = SequentialRecord(0, 2000);
  const Record b = SequentialRecord(1000, 2000);  // true ∩ = 1000
  double sum = 0.0;
  const int trials = 150;
  for (int t = 0; t < trials; ++t) {
    const uint64_t seed = 400 + t;
    const uint64_t tau = UnitToHashThreshold(0.05);
    sum += EstimateGkmvPair(GkmvSketch::Build(a, tau, seed),
                            GkmvSketch::Build(b, tau, seed))
               .intersection_size;
  }
  EXPECT_NEAR(sum / trials, 1000.0, 100.0);
}

TEST(GkmvPairTest, ContainmentEstimate) {
  const Record q = SequentialRecord(0, 400);
  const Record x = SequentialRecord(0, 2000);  // Q ⊂ X
  double sum = 0.0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    const uint64_t tau = UnitToHashThreshold(0.1);
    sum += EstimateContainmentGkmv(GkmvSketch::Build(q, tau, 70 + t),
                                   GkmvSketch::Build(x, tau, 70 + t), q.size());
  }
  EXPECT_NEAR(sum / trials, 1.0, 0.12);
}

TEST(GlobalThresholdTest, RespectsBudget) {
  SyntheticConfig c;
  c.num_records = 300;
  c.universe_size = 5000;
  c.min_record_size = 10;
  c.max_record_size = 50;
  c.seed = 21;
  auto ds = GenerateSynthetic(c);
  ASSERT_TRUE(ds.ok());
  const uint64_t budget = ds->total_elements() / 10;
  const uint64_t tau = ComputeGlobalThreshold(*ds, budget);
  // Total kept hashes must be within the budget.
  uint64_t kept = 0;
  for (const Record& r : ds->records()) {
    kept += GkmvSketch::Build(r, tau).size();
  }
  EXPECT_LE(kept, budget);
  // And the threshold should be near-maximal: doubling it must exceed it.
  const uint64_t tau2 = ComputeGlobalThreshold(*ds, budget * 2);
  EXPECT_GT(tau2, tau);
}

TEST(GlobalThresholdTest, ZeroBudget) {
  auto ds = Dataset::Create({MakeRecord({1, 2, 3})});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ComputeGlobalThreshold(*ds, 0), 0u);
}

TEST(GlobalThresholdTest, HugeBudgetKeepsEverything) {
  auto ds = Dataset::Create({MakeRecord({1, 2, 3}), MakeRecord({2, 3, 4})});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ComputeGlobalThreshold(*ds, 1000000), ~0ULL);
}

TEST(GlobalThresholdTest, ExcludingBufferedElements) {
  auto ds = Dataset::Create({MakeRecord({1, 2, 3}), MakeRecord({1, 2, 4}),
                             MakeRecord({1, 5, 6})});
  ASSERT_TRUE(ds.ok());
  std::vector<bool> excluded(ds->universe_size(), false);
  excluded[1] = true;  // most frequent element
  // With element 1 excluded, a budget equal to the remaining occurrences
  // keeps everything else.
  const uint64_t remaining = ds->total_elements() - ds->frequency(1);
  EXPECT_EQ(ComputeGlobalThresholdExcluding(*ds, remaining, excluded), ~0ULL);
}

TEST(GlobalThresholdTest, LargerBudgetLargerThreshold) {
  SyntheticConfig c;
  c.num_records = 200;
  c.universe_size = 2000;
  c.min_record_size = 10;
  c.max_record_size = 40;
  c.seed = 22;
  auto ds = GenerateSynthetic(c);
  ASSERT_TRUE(ds.ok());
  uint64_t prev = 0;
  for (double ratio : {0.05, 0.1, 0.2, 0.5}) {
    const uint64_t tau = ComputeGlobalThreshold(
        *ds, static_cast<uint64_t>(ratio * ds->total_elements()));
    EXPECT_GE(tau, prev);
    prev = tau;
  }
}

// The selection by full sort and prefix scan that SelectWeightedThreshold
// must reproduce exactly.
uint64_t SortScanThreshold(std::vector<std::pair<uint64_t, uint64_t>> pairs,
                           uint64_t budget) {
  if (budget == 0) return 0;
  std::sort(pairs.begin(), pairs.end());
  uint64_t total = 0;
  for (const auto& pair : pairs) total += pair.second;
  if (total <= budget) return ~0ULL;
  uint64_t used = 0;
  uint64_t threshold = 0;
  for (const auto& [hash, f] : pairs) {
    if (used + f > budget) break;
    used += f;
    threshold = hash;
  }
  return threshold;
}

uint64_t Select(std::vector<std::pair<uint64_t, uint64_t>> pairs,
                uint64_t budget) {
  return SelectWeightedThreshold(pairs, budget);
}

TEST(GlobalThresholdTest, WeightedSelectionKeepsEqualHashTiesInOrder) {
  // Pair order is (hash, frequency): (5,1) (5,3) (7,2), total 6.
  const std::vector<std::pair<uint64_t, uint64_t>> pairs = {
      {7, 2}, {5, 3}, {5, 1}};
  EXPECT_EQ(0u, Select(pairs, 0));
  EXPECT_EQ(5u, Select(pairs, 1));  // the prefix ends inside the tie
  EXPECT_EQ(5u, Select(pairs, 3));
  EXPECT_EQ(5u, Select(pairs, 4));
  EXPECT_EQ(5u, Select(pairs, 5));
  EXPECT_EQ(~0ULL, Select(pairs, 6));
  EXPECT_EQ(0u, Select({{5, 3}}, 2));  // even the first pair is too heavy
  EXPECT_EQ(~0ULL, Select({}, 1));
}

TEST(GlobalThresholdTest, WeightedSelectionMatchesFullSort) {
  std::mt19937_64 rng(17);
  // Around the sorted-window cutoff (64 pairs) and well past it.
  for (const size_t n : {1, 2, 63, 64, 65, 130, 1000, 4097}) {
    for (int trial = 0; trial < 12; ++trial) {
      // Odd trials draw from a few hashes, so equal-hash ties with
      // different frequencies are common; some trials use unit weights.
      const uint64_t hash_range = trial % 2 == 1 ? n / 8 + 2 : 0;
      const uint64_t max_freq = trial % 3 == 0 ? 1 : 40;
      std::vector<std::pair<uint64_t, uint64_t>> pairs(n);
      for (auto& [hash, f] : pairs) {
        hash = hash_range == 0 ? rng() : rng() % hash_range;
        f = 1 + rng() % max_freq;
      }
      std::vector<std::pair<uint64_t, uint64_t>> sorted = pairs;
      std::sort(sorted.begin(), sorted.end());
      std::vector<uint64_t> prefix(1, 0);
      for (const auto& pair : sorted) {
        prefix.push_back(prefix.back() + pair.second);
      }
      const uint64_t total = prefix.back();
      std::vector<uint64_t> budgets = {0, 1, total - 1, total, total + 1};
      for (int k = 0; k < 6; ++k) {
        const uint64_t exact = prefix[1 + rng() % n];  // a prefix sum
        budgets.insert(budgets.end(), {exact - 1, exact, exact + 1});
        budgets.push_back(1 + rng() % total);
      }
      for (const uint64_t budget : budgets) {
        EXPECT_EQ(SortScanThreshold(pairs, budget), Select(pairs, budget))
            << "n " << n << " trial " << trial << " budget " << budget;
      }
    }
  }
}

TEST(GkmvThresholdEstimatorTest, AgreesWithOrderStatisticsForLargeK) {
  const Record a = SequentialRecord(0, 3000);
  const Record b = SequentialRecord(1500, 3000);
  const uint64_t tau = UnitToHashThreshold(0.2);
  const GkmvSketch sa = GkmvSketch::Build(a, tau);
  const GkmvSketch sb = GkmvSketch::Build(b, tau);
  const GkmvPairEstimate os = EstimateGkmvPair(sa, sb);
  const GkmvPairEstimate th = EstimateGkmvPairThreshold(sa, sb);
  // Same counting statistics, estimators within a few percent at k ~ 900.
  EXPECT_EQ(os.k, th.k);
  EXPECT_EQ(os.k_intersect, th.k_intersect);
  EXPECT_NEAR(os.intersection_size, th.intersection_size,
              0.1 * th.intersection_size + 1.0);
  EXPECT_NEAR(os.union_size, th.union_size, 0.1 * th.union_size + 1.0);
}

TEST(GkmvThresholdEstimatorTest, UnbiasedOverDraws) {
  const Record a = SequentialRecord(0, 1000);
  const Record b = SequentialRecord(400, 1000);  // true intersection 600
  double sum = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const uint64_t tau = UnitToHashThreshold(0.08);
    sum += EstimateGkmvPairThreshold(GkmvSketch::Build(a, tau, 900 + t),
                                     GkmvSketch::Build(b, tau, 900 + t))
               .intersection_size;
  }
  EXPECT_NEAR(sum / trials, 600.0, 60.0);
}

}  // namespace
}  // namespace gbkmv
