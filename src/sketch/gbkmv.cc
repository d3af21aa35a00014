#include "sketch/gbkmv.h"

namespace gbkmv {

Result<GbKmvSketcher> GbKmvSketcher::Create(const Dataset& dataset,
                                            const GbKmvOptions& options) {
  if (options.budget_units == 0) {
    return Status::InvalidArgument("budget_units must be positive");
  }
  const size_t r = options.buffer_bits;
  if (r > dataset.elements_by_frequency().size()) {
    return Status::InvalidArgument(
        "buffer_bits exceeds the number of distinct elements");
  }
  const uint64_t buffer_cost =
      static_cast<uint64_t>(dataset.size()) * ((r + 31) / 32);
  if (buffer_cost > options.budget_units) {
    return Status::InvalidArgument(
        "buffer cost m*r/32 exceeds the total budget");
  }

  GbKmvSketcher sketcher;
  sketcher.options_ = options;
  sketcher.buffer_elements_.assign(dataset.elements_by_frequency().begin(),
                                   dataset.elements_by_frequency().begin() + r);
  sketcher.element_to_bit_.assign(dataset.universe_size(), -1);
  for (size_t bit = 0; bit < sketcher.buffer_elements_.size(); ++bit) {
    sketcher.element_to_bit_[sketcher.buffer_elements_[bit]] =
        static_cast<int32_t>(bit);
  }

  std::vector<bool> excluded(dataset.universe_size(), false);
  for (ElementId e : sketcher.buffer_elements_) excluded[e] = true;
  const uint64_t gkmv_budget = options.budget_units - buffer_cost;
  sketcher.global_threshold_ = ComputeGlobalThresholdExcluding(
      dataset, gkmv_budget, excluded, options.seed);
  return sketcher;
}

GbKmvSketch GbKmvSketcher::Sketch(const Record& record) const {
  std::vector<uint64_t> words((options_.buffer_bits + 63) / 64, 0);
  std::vector<uint64_t> values;
  values.reserve(record.size());  // one allocation: at most every element
  SketchInto(
      record,
      [&words](size_t bit) { words[bit >> 6] |= uint64_t{1} << (bit & 63); },
      &values);
  GbKmvSketch sketch;
  sketch.buffer = Bitmap::FromWords(options_.buffer_bits, std::move(words));
  sketch.gkmv = GkmvSketch::FromParts(std::move(values), global_threshold_);
  return sketch;
}

bool GbKmvSketcher::SameParameters(const GbKmvSketcher& other) const {
  return options_.budget_units == other.options_.budget_units &&
         options_.buffer_bits == other.options_.buffer_bits &&
         options_.seed == other.options_.seed &&
         global_threshold_ == other.global_threshold_ &&
         buffer_elements_ == other.buffer_elements_ &&
         element_to_bit_.size() == other.element_to_bit_.size();
}

GbKmvPairEstimate GbKmvSketcher::EstimatePair(const GbKmvSketch& q,
                                              const GbKmvSketch& x) {
  GbKmvPairEstimate out;
  out.buffer_intersect = Bitmap::IntersectCount(q.buffer, x.buffer);
  out.gkmv = EstimateGkmvPair(q.gkmv, x.gkmv);
  out.intersection_size =
      static_cast<double>(out.buffer_intersect) + out.gkmv.intersection_size;
  return out;
}

double GbKmvSketcher::EstimateContainment(const GbKmvSketch& q,
                                          const GbKmvSketch& x,
                                          size_t query_size) {
  if (query_size == 0) return 0.0;
  return EstimatePair(q, x).intersection_size /
         static_cast<double>(query_size);
}

}  // namespace gbkmv
