#include "sketch/gkmv.h"

#include <algorithm>

#include "common/hash.h"
#include "common/status.h"

namespace gbkmv {

GkmvSketch GkmvSketch::Build(const Record& record, uint64_t threshold,
                             uint64_t seed) {
  GkmvSketch sketch;
  sketch.threshold_ = threshold;
  for (ElementId e : record) {
    const uint64_t h = HashElement(e, seed);
    if (h <= threshold) sketch.values_.push_back(h);
  }
  std::sort(sketch.values_.begin(), sketch.values_.end());
  return sketch;
}

GkmvPairEstimate EstimateGkmvPair(const GkmvSketch& q, const GkmvSketch& x) {
  GkmvPairEstimate out;
  const std::vector<uint64_t>& a = q.values();
  const std::vector<uint64_t>& b = x.values();
  size_t i = 0, j = 0, common = 0, uni = 0;
  uint64_t max_hash = 0;
  while (i < a.size() || j < b.size()) {
    uint64_t v = 0;
    if (i < a.size() && (j >= b.size() || a[i] < b[j])) {
      v = a[i++];
    } else if (j < b.size() && (i >= a.size() || b[j] < a[i])) {
      v = b[j++];
    } else {
      v = a[i];
      ++i;
      ++j;
      ++common;
    }
    ++uni;
    max_hash = v;  // Merge emits ascending values; the last one is U(k).
  }
  out.k = uni;
  out.k_intersect = common;
  out.u_k = HashToUnit(max_hash);
  if (uni == 0) return out;
  // With the maximal threshold every element hash is kept and the sketch is
  // the full record: counts are exact.
  if (q.threshold() == ~0ULL && x.threshold() == ~0ULL) {
    out.intersection_size = static_cast<double>(common);
    out.union_size = static_cast<double>(uni);
    return out;
  }
  if (uni < 2 || out.u_k <= 0.0) return out;
  const double kd = static_cast<double>(uni);
  out.union_size = (kd - 1.0) / out.u_k;
  out.intersection_size =
      static_cast<double>(common) / kd * (kd - 1.0) / out.u_k;
  return out;
}

double EstimateContainmentGkmv(const GkmvSketch& query_sketch,
                               const GkmvSketch& record_sketch,
                               size_t query_size) {
  if (query_size == 0) return 0.0;
  const GkmvPairEstimate est = EstimateGkmvPair(query_sketch, record_sketch);
  return est.intersection_size / static_cast<double>(query_size);
}

GkmvPairEstimate EstimateGkmvPairThreshold(const GkmvSketch& q,
                                           const GkmvSketch& x) {
  GkmvPairEstimate out = EstimateGkmvPair(q, x);
  const double tau = HashToUnit(std::min(q.threshold(), x.threshold()));
  if (tau <= 0.0) return out;
  out.union_size = static_cast<double>(out.k) / tau;
  out.intersection_size = static_cast<double>(out.k_intersect) / tau;
  return out;
}

uint64_t SelectWeightedThreshold(
    std::span<std::pair<uint64_t, uint64_t>> pairs, uint64_t budget_units) {
  if (budget_units == 0) return 0;
  uint64_t total = 0;
  for (const auto& [hash, f] : pairs) {
    (void)hash;
    total += f;
  }
  if (total <= budget_units) return ~0ULL;  // Budget covers everything.
  // Invariant: [0, lo) holds the lo smallest pairs, all kept, `used` of
  // them; the kept prefix ends in [lo, hi].
  constexpr size_t kSortWindow = 64;
  size_t lo = 0;
  size_t hi = pairs.size();
  uint64_t used = 0;
  uint64_t threshold = 0;
  while (hi - lo > kSortWindow) {
    const size_t mid = lo + (hi - lo) / 2;
    std::nth_element(pairs.begin() + lo, pairs.begin() + mid,
                     pairs.begin() + hi);
    uint64_t left = 0;
    for (size_t i = lo; i <= mid; ++i) left += pairs[i].second;
    if (used + left <= budget_units) {
      used += left;
      threshold = pairs[mid].first;
      lo = mid + 1;
    } else {
      hi = mid;  // The prefix stops before the pivot.
    }
  }
  std::sort(pairs.begin() + lo, pairs.begin() + hi);
  for (size_t i = lo; i < hi; ++i) {
    if (used + pairs[i].second > budget_units) break;
    used += pairs[i].second;
    threshold = pairs[i].first;
  }
  return threshold;
}

namespace {

// Shared implementation: τ is the largest hash value such that the total
// number of kept occurrences (element frequency counted per record) stays
// within the budget.
uint64_t SelectThreshold(const Dataset& dataset, uint64_t budget_units,
                         const std::vector<bool>* is_excluded, uint64_t seed) {
  if (budget_units == 0) return 0;
  std::vector<std::pair<uint64_t, uint64_t>> hash_freq;  // (hash, frequency)
  hash_freq.reserve(dataset.num_distinct());
  const std::vector<uint64_t>& freq = dataset.frequencies();
  for (size_t e = 0; e < freq.size(); ++e) {
    if (freq[e] == 0) continue;
    if (is_excluded != nullptr && (*is_excluded)[e]) continue;
    hash_freq.emplace_back(HashElement(static_cast<ElementId>(e), seed),
                           freq[e]);
  }
  return SelectWeightedThreshold(hash_freq, budget_units);
}

}  // namespace

uint64_t ComputeGlobalThreshold(const Dataset& dataset, uint64_t budget_units,
                                uint64_t seed) {
  return SelectThreshold(dataset, budget_units, nullptr, seed);
}

uint64_t ComputeGlobalThresholdExcluding(const Dataset& dataset,
                                         uint64_t budget_units,
                                         const std::vector<bool>& is_excluded,
                                         uint64_t seed) {
  GBKMV_CHECK(is_excluded.size() >= dataset.universe_size());
  return SelectThreshold(dataset, budget_units, &is_excluded, seed);
}

}  // namespace gbkmv
