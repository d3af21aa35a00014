// G-KMV: KMV with a global hash-value threshold (§IV-A(2)).
//
// Instead of fixing k per record, a single threshold τ is chosen for the
// whole collection and every record keeps all hashes ≤ τ. For any pair this
// makes L = L_Q ∪ L_X a *valid* KMV synopsis of Q ∪ X with
//   k  = |L_Q ∪ L_X|                        (Eq. 24, Theorem 2)
//   K∩ = |L_Q ∩ L_X|
//   D̂∩ = K∩/k · (k−1)/U(k)                  (Eq. 25)
// which is a much larger k than min(k_Q, k_X), hence lower variance
// (Lemma 2 / Theorem 3).

#ifndef GBKMV_SKETCH_GKMV_H_
#define GBKMV_SKETCH_GKMV_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "data/dataset.h"
#include "data/record.h"
#include "sketch/kmv.h"

namespace gbkmv {

class GkmvSketch {
 public:
  GkmvSketch() = default;

  // Keeps all hashes of `record` that are <= `threshold`.
  static GkmvSketch Build(const Record& record, uint64_t threshold,
                          uint64_t seed = kDefaultSketchSeed);

  // Reassembles a sketch from stored parts (the flat sketch store's
  // per-record hash slice). `values` must be what a Build with `threshold`
  // produced: ascending and all <= threshold.
  static GkmvSketch FromParts(std::vector<uint64_t> values,
                              uint64_t threshold) {
    GkmvSketch sketch;
    sketch.values_ = std::move(values);
    sketch.threshold_ = threshold;
    return sketch;
  }

  const std::vector<uint64_t>& values() const { return values_; }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  uint64_t threshold() const { return threshold_; }

  size_t SpaceUnits() const { return values_.size(); }

  // Binary snapshot serialization (src/io). Defined in io/persist_data.cc.
  void SaveTo(io::Writer* out) const;
  static Result<GkmvSketch> LoadFrom(io::Reader* in);
  Status Save(const std::string& path) const;
  static Result<GkmvSketch> Load(const std::string& path);

 private:
  std::vector<uint64_t> values_;
  uint64_t threshold_ = 0;
};

struct GkmvPairEstimate {
  size_t k = 0;            // |L_Q ∪ L_X|
  size_t k_intersect = 0;  // |L_Q ∩ L_X|
  double u_k = 0.0;        // largest hash in the union (unit interval)
  double intersection_size = 0.0;  // D̂∩ (Eq. 25)
  double union_size = 0.0;        // (k−1)/U(k)
};

// Combines two G-KMV sketches built with the same threshold and seed.
GkmvPairEstimate EstimateGkmvPair(const GkmvSketch& q, const GkmvSketch& x);

// The same D̂∩ (Eq. 25) from summary counts alone, O(1): K∩, |L_Q|, |L_X|
// and each sketch's largest value give k = |L_Q| + |L_X| − K∩ and
// U(k) = max(max L_Q, max L_X). `threshold` is the τ both sketches share:
// at the maximal threshold they are the whole records and K∩ is exact, as
// in EstimateGkmvPair. The index searchers score every candidate with it;
// inline so their per-candidate loops keep it inlined.
inline double GkmvEstimateFromCounts(size_t k_intersect, size_t q_size,
                                     size_t x_size, uint64_t q_max,
                                     uint64_t x_max, uint64_t threshold) {
  if (threshold == ~0ULL) return static_cast<double>(k_intersect);
  if (q_size == 0 || x_size == 0) return 0.0;
  const size_t k = q_size + x_size - k_intersect;
  if (k < 2) return 0.0;
  const double u_k = HashToUnit(std::max(q_max, x_max));
  if (u_k <= 0.0) return 0.0;
  const double kd = static_cast<double>(k);
  return static_cast<double>(k_intersect) / kd * (kd - 1.0) / u_k;
}

// Containment Ĉ = D̂∩ / |Q| (Eq. 26).
double EstimateContainmentGkmv(const GkmvSketch& query_sketch,
                               const GkmvSketch& record_sketch,
                               size_t query_size);

// Alternative "threshold" (Bernoulli) estimator for a fixed-τ sketch:
// every hash is kept independently with probability τ, so
//   D̂∩ = K∩ / τ,  D̂∪ = k / τ.
// The paper uses the order-statistics form (Eq. 25); this variant exists
// for the ablation bench that compares the two (they agree to O(1/k), but
// the order-statistics form adapts to the realised U(k) and is what
// Theorem 2 justifies).
GkmvPairEstimate EstimateGkmvPairThreshold(const GkmvSketch& q,
                                           const GkmvSketch& x);

// The selection behind ComputeGlobalThreshold*, over one (hash, frequency)
// pair per distinct element: in ascending pair order, τ is the hash of the
// last pair of the longest prefix whose frequencies sum to <= budget_units
// (0 when even the first pair exceeds it, the maximal threshold when every
// pair fits, 0 when budget_units == 0). Pairs with equal hashes stay in
// frequency order, so a prefix may end inside such a tie. Runs a weighted
// quickselect in expected O(n) instead of sorting; reorders `pairs`.
uint64_t SelectWeightedThreshold(
    std::span<std::pair<uint64_t, uint64_t>> pairs, uint64_t budget_units);

// Chooses the largest τ such that the total sketch size over the whole
// dataset is <= budget_units (one unit per stored hash). Exact: selects the
// budget-th smallest hash over all element occurrences. Returns the maximal
// threshold when the budget covers everything and 0 when budget_units == 0.
uint64_t ComputeGlobalThreshold(const Dataset& dataset, uint64_t budget_units,
                                uint64_t seed = kDefaultSketchSeed);

// Same, but the element occurrences of `excluded` elements (buffer elements
// of GB-KMV) are ignored. `is_excluded[e]` must be valid for all element ids
// in the dataset.
uint64_t ComputeGlobalThresholdExcluding(const Dataset& dataset,
                                         uint64_t budget_units,
                                         const std::vector<bool>& is_excluded,
                                         uint64_t seed = kDefaultSketchSeed);

}  // namespace gbkmv

#endif  // GBKMV_SKETCH_GKMV_H_
