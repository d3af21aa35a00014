// GB-KMV: the paper's primary contribution (§IV-B, Algorithm 1).
//
// A GB-KMV sketch of a record has two parts:
//   * H_X — an r-bit bitmap over the r globally most frequent elements E_H
//     (exact membership of the record in E_H);
//   * L_X — a G-KMV sketch (global threshold τ) over the remaining elements.
// The intersection estimate combines the exact buffer part with the sketched
// part (Eq. 27):  |Q ∩ X|^ = |H_Q ∩ H_X| + D̂∩^{GKMV}.
//
// `GbKmvSketcher` encapsulates the whole construction: it picks the buffer
// universe from the dataset's frequency ranking, charges the buffer r/32
// element units per record (bitmap words), spends the remaining budget on
// the global threshold, and builds sketches for records and queries alike.

#ifndef GBKMV_SKETCH_GBKMV_H_
#define GBKMV_SKETCH_GBKMV_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitmap.h"
#include "common/hash.h"
#include "common/status.h"
#include "data/dataset.h"
#include "sketch/gkmv.h"

namespace gbkmv {

// One record's sketch.
struct GbKmvSketch {
  Bitmap buffer;       // H_X over the buffer universe E_H
  GkmvSketch gkmv;     // L_X over E \ E_H

  // Element units consumed: r/32 for the bitmap + one per stored hash.
  size_t SpaceUnits(size_t buffer_bits) const {
    return (buffer_bits + 31) / 32 + gkmv.SpaceUnits();
  }

  // Binary snapshot serialization (src/io). Defined in io/persist_data.cc.
  void SaveTo(io::Writer* out) const;
  static Result<GbKmvSketch> LoadFrom(io::Reader* in);
  Status Save(const std::string& path) const;
  static Result<GbKmvSketch> Load(const std::string& path);
};

struct GbKmvPairEstimate {
  size_t buffer_intersect = 0;   // |H_Q ∩ H_X| (exact)
  GkmvPairEstimate gkmv;         // sketched remainder
  double intersection_size = 0;  // Eq. 27
};

struct GbKmvOptions {
  // Total space budget in element units (hash value = 1 unit, bitmap =
  // r/32 units per record).
  uint64_t budget_units = 0;
  // Buffer width in bits (r). 0 disables the buffer (plain G-KMV).
  size_t buffer_bits = 0;
  uint64_t seed = kDefaultSketchSeed;
};

// Factory bound to a dataset: owns the buffer universe and global threshold.
class GbKmvSketcher {
 public:
  // Validates the options against the dataset: the buffer cost m·r/32 must
  // leave a non-negative G-KMV budget, and r cannot exceed the number of
  // distinct elements.
  static Result<GbKmvSketcher> Create(const Dataset& dataset,
                                      const GbKmvOptions& options);

  const GbKmvOptions& options() const { return options_; }
  uint64_t global_threshold() const { return global_threshold_; }
  size_t buffer_bits() const { return options_.buffer_bits; }
  // Width of the element->bit table (the bound dataset's universe_size()).
  size_t universe_size() const { return element_to_bit_.size(); }

  // The buffer universe E_H: element id of each buffer bit.
  const std::vector<ElementId>& buffer_elements() const {
    return buffer_elements_;
  }

  // Builds the sketch of any record (dataset record or incoming query).
  GbKmvSketch Sketch(const Record& record) const;

  // The same sketch without a GbKmvSketch: calls set_bit(bit) for every
  // buffered element of `record`, appends its kept G-KMV hashes (h <= τ) to
  // *values and sorts only the appended range. Index builds write records
  // straight into their flat store through it.
  template <typename SetBit>
  void SketchInto(const Record& record, SetBit&& set_bit,
                  std::vector<uint64_t>* values) const {
    const size_t start = values->size();
    for (ElementId e : record) {
      const int32_t bit = e < element_to_bit_.size() ? element_to_bit_[e] : -1;
      if (bit >= 0) {
        set_bit(static_cast<size_t>(bit));
        continue;
      }
      const uint64_t h = HashElement(e, options_.seed);
      if (h <= global_threshold_) values->push_back(h);
    }
    std::sort(values->begin() + static_cast<std::ptrdiff_t>(start),
              values->end());
  }

  // True when both sketchers sketch every record identically: the same
  // options, threshold, buffer universe and universe width.
  bool SameParameters(const GbKmvSketcher& other) const;

  // Pairwise intersection estimate (Eq. 27).
  static GbKmvPairEstimate EstimatePair(const GbKmvSketch& q,
                                        const GbKmvSketch& x);

  // Containment Ĉ(Q,X) = |Q∩X|^ / |Q|.
  static double EstimateContainment(const GbKmvSketch& q, const GbKmvSketch& x,
                                    size_t query_size);

  // Binary snapshot serialization (src/io). The sketcher is self-contained:
  // buffer universe, threshold and options round-trip exactly, so a loaded
  // sketcher produces bit-identical sketches. `max_universe_size` bounds the
  // stored universe width (callers pass the bound dataset's universe_size())
  // so a corrupt field cannot trigger a huge allocation. Defined in
  // io/persist_index.cc.
  void SaveTo(io::Writer* out) const;
  static Result<GbKmvSketcher> LoadFrom(io::Reader* in,
                                        size_t max_universe_size);

 private:
  GbKmvSketcher() = default;

  GbKmvOptions options_;
  uint64_t global_threshold_ = 0;
  std::vector<ElementId> buffer_elements_;
  // element id -> buffer bit, or -1 when the element is not buffered.
  std::vector<int32_t> element_to_bit_;
};

}  // namespace gbkmv

#endif  // GBKMV_SKETCH_GBKMV_H_
