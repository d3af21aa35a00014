#include "index/dynamic_index.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "sketch/gkmv.h"
#include "storage/query_context.h"

namespace gbkmv {

Result<std::unique_ptr<DynamicGbKmvIndex>> DynamicGbKmvIndex::Create(
    const Dataset& initial, const DynamicGbKmvOptions& options) {
  if (options.budget_units == 0) {
    return Status::InvalidArgument("budget_units must be positive");
  }
  if (options.shrink_fill <= 0.0 || options.shrink_fill > 1.0) {
    return Status::InvalidArgument("shrink_fill must be in (0, 1]");
  }
  if (options.buffer_bits > 0 &&
      options.buffer_bits > initial.elements_by_frequency().size()) {
    return Status::InvalidArgument(
        "buffer_bits exceeds the initial dataset's distinct elements");
  }

  std::unique_ptr<DynamicGbKmvIndex> index(new DynamicGbKmvIndex());
  index->options_ = options;
  index->buffer_elements_.assign(
      initial.elements_by_frequency().begin(),
      initial.elements_by_frequency().begin() + options.buffer_bits);
  index->RebuildBufferMap(initial.universe_size());

  for (const Record& r : initial.records()) {
    if (!IsNormalized(r)) {
      return Status::InvalidArgument("initial dataset has unnormalised records");
    }
  }
  for (const Record& r : initial.records()) index->Insert(r);
  index->Compact();
  return index;
}

void DynamicGbKmvIndex::Compact() {
  if (!delta_.empty()) CompactPostings();
}

void DynamicGbKmvIndex::RebuildBufferMap(size_t universe_size) {
  size_t needed = universe_size;
  for (ElementId e : buffer_elements_) {
    needed = std::max<size_t>(needed, static_cast<size_t>(e) + 1);
  }
  element_to_bit_.assign(needed, -1);
  for (size_t bit = 0; bit < buffer_elements_.size(); ++bit) {
    element_to_bit_[buffer_elements_[bit]] = static_cast<int32_t>(bit);
  }
}

GbKmvSketch DynamicGbKmvIndex::MakeSketch(const Record& record) const {
  GbKmvSketch sketch;
  sketch.buffer = Bitmap(options_.buffer_bits);
  Record non_buffered;
  non_buffered.reserve(record.size());
  for (ElementId e : record) {
    const int32_t bit =
        e < element_to_bit_.size() ? element_to_bit_[e] : -1;
    if (bit >= 0) {
      sketch.buffer.Set(static_cast<size_t>(bit));
    } else {
      non_buffered.push_back(e);
    }
  }
  sketch.gkmv = GkmvSketch::Build(non_buffered, threshold_, options_.seed);
  return sketch;
}

RecordId DynamicGbKmvIndex::Insert(Record record) {
  GBKMV_CHECK(IsNormalized(record));
  const RecordId id = static_cast<RecordId>(records_.size());
  GbKmvSketch sketch = MakeSketch(record);
  used_units_ += sketch.SpaceUnits(options_.buffer_bits);
  for (uint64_t h : sketch.gkmv.values()) delta_.emplace_back(h, id);
  records_.push_back(std::move(record));
  sketches_.push_back(std::move(sketch));
  if (used_units_ > options_.budget_units) {
    Shrink();  // re-sketches everything, which compacts as a side effect
  } else if (delta_.size() >
             std::max<size_t>(256, hash_postings_.num_postings() / 8)) {
    CompactPostings();
  }
  return id;
}

void DynamicGbKmvIndex::CompactPostings() {
  hash_postings_ = FlatHashPostings::Build([this](const auto& fn) {
    for (size_t i = 0; i < sketches_.size(); ++i) {
      for (uint64_t h : sketches_[i].gkmv.values()) {
        fn(h, static_cast<RecordId>(i));
      }
    }
  });
  delta_.clear();
}

void DynamicGbKmvIndex::Shrink() {
  const uint64_t target_total = std::max<uint64_t>(
      1, static_cast<uint64_t>(options_.shrink_fill *
                               static_cast<double>(options_.budget_units)));

  // If the bitmaps alone outgrow the target (the record count keeps rising
  // under a fixed budget), halve the buffer width until they fit in at most
  // half the target; the freed elements fall back into the G-KMV pool.
  auto bitmap_cost = [this]() {
    return static_cast<uint64_t>(records_.size()) *
           ((options_.buffer_bits + 31) / 32);
  };
  while (options_.buffer_bits > 0 && bitmap_cost() > target_total / 2) {
    options_.buffer_bits /= 2;
    buffer_elements_.resize(options_.buffer_bits);
    RebuildBufferMap(element_to_bit_.size());
  }

  // Choose the largest τ' whose kept-hash volume fits the remaining
  // allowance. Hashes are recomputed from the records so a buffer-width
  // change is handled by the same path as a plain truncation.
  const uint64_t hash_allowance = target_total - bitmap_cost();
  std::vector<uint64_t> all_hashes;
  all_hashes.reserve(used_units_);
  for (const Record& r : records_) {
    for (ElementId e : r) {
      const int32_t bit = e < element_to_bit_.size() ? element_to_bit_[e] : -1;
      if (bit >= 0) continue;
      const uint64_t h = HashElement(e, options_.seed);
      if (h <= threshold_) all_hashes.push_back(h);
    }
  }
  std::sort(all_hashes.begin(), all_hashes.end());
  if (all_hashes.size() > hash_allowance) {
    // Cut strictly below the first dropped value (equal hashes mean the
    // same element across records and must share fate).
    const uint64_t first_dropped = all_hashes[hash_allowance];
    threshold_ =
        std::min(threshold_, first_dropped == 0 ? 0 : first_dropped - 1);
  }

  // Re-sketch everything under the new τ / buffer width.
  used_units_ = 0;
  for (size_t i = 0; i < records_.size(); ++i) {
    sketches_[i] = MakeSketch(records_[i]);
    used_units_ += sketches_[i].SpaceUnits(options_.buffer_bits);
  }
  CompactPostings();
}

Status DynamicGbKmvIndex::Rebuild() {
  Result<Dataset> dataset = Dataset::Create(records_, "dynamic-rebuild");
  if (!dataset.ok()) return dataset.status();
  const size_t r = std::min<size_t>(options_.buffer_bits,
                                    dataset->elements_by_frequency().size());
  buffer_elements_.assign(dataset->elements_by_frequency().begin(),
                          dataset->elements_by_frequency().begin() + r);
  RebuildBufferMap(dataset->universe_size());

  threshold_ = ~0ULL;
  used_units_ = 0;
  std::vector<Record> records = std::move(records_);
  records_.clear();
  sketches_.clear();
  delta_.clear();
  hash_postings_ = FlatHashPostings();
  for (Record& rec : records) Insert(std::move(rec));
  Compact();
  return Status::OK();
}

QueryResponse DynamicGbKmvIndex::SearchQ(const QueryRequest& request,
                                         QueryContext& ctx) const {
  QueryResponse response;
  const Record& query = *request.record;
  if (query.empty() || records_.empty()) return response;
  const size_t q = query.size();
  const double theta = request.threshold * static_cast<double>(q);
  const double inv_q = 1.0 / static_cast<double>(q);
  const size_t min_size = static_cast<size_t>(std::ceil(theta - 1e-9));

  const GbKmvSketch query_sketch = MakeSketch(query);
  const std::vector<uint64_t>& q_hashes = query_sketch.gkmv.values();
  const uint64_t q_max = q_hashes.empty() ? 0 : q_hashes.back();

  HitCollector collector(request, ctx, &response);
  ctx.Begin(records_.size());
  if (q_hashes.size() < QueryContext::kSaturated) {
    for (uint64_t h : q_hashes) {
      const std::span<const RecordId> row = hash_postings_.Find(h);
      response.stats.postings_scanned += row.size();
      ctx.BumpRowUnchecked(row);
    }
  } else {
    for (uint64_t h : q_hashes) {
      const std::span<const RecordId> row = hash_postings_.Find(h);
      response.stats.postings_scanned += row.size();
      ctx.BumpRow(row);
    }
  }
  // Pairs inserted since the last compaction: one linear scan of the delta
  // log, matching each pair against the (sorted) query hash set.
  response.stats.postings_scanned += delta_.size();
  for (const auto& [h, id] : delta_) {
    if (std::binary_search(q_hashes.begin(), q_hashes.end(), h)) ctx.Bump(id);
  }
  auto score = [&](RecordId id) -> double {
    const GbKmvSketch& x = sketches_[id];
    const size_t o1 = Bitmap::IntersectCount(query_sketch.buffer, x.buffer);
    const uint64_t x_max = x.gkmv.empty() ? 0 : x.gkmv.values().back();
    const double est =
        static_cast<double>(o1) +
        GkmvEstimateFromCounts(ctx.CountOf(id), q_hashes.size(),
                               x.gkmv.size(), q_max, x_max, threshold_);
    const double cap =
        static_cast<double>(std::min<size_t>(q, records_[id].size()));
    return std::min(est, cap);
  };
  if (min_size == 0) {
    // θ ≈ 0: every record qualifies, scored by its estimate (the static
    // index's rule) — also one sharing neither a hash nor a buffer bit.
    for (size_t i = 0; i < records_.size(); ++i) {
      const RecordId id = static_cast<RecordId>(i);
      collector.Add(id, score(id) * inv_q);
    }
    response.stats.candidates_generated += records_.size();
    collector.Finish();
    return response;
  }
  size_t size_pruned = 0;
  for (RecordId id : ctx.touched()) {
    if (records_[id].size() < min_size) {
      ++size_pruned;
      continue;
    }
    const double estimate = score(id);
    if (estimate >= theta - 1e-9) collector.Add(id, estimate * inv_q);
  }
  response.stats.candidates_generated += ctx.touched().size() - size_pruned;
  // Buffer-only qualifiers (K∩ = 0). Touched records are skipped: they were
  // fully scored above with est >= o1, so any buffer-only qualifier among
  // them is already collected.
  if (!query_sketch.buffer.Empty()) {
    size_t skipped = 0;
    for (size_t i = 0; i < sketches_.size(); ++i) {
      if (records_[i].size() < min_size ||
          ctx.CountOf(static_cast<uint32_t>(i)) > 0) {
        ++skipped;
        continue;
      }
      const size_t o1 =
          Bitmap::IntersectCount(query_sketch.buffer, sketches_[i].buffer);
      if (static_cast<double>(o1) >= theta - 1e-9) {
        collector.Add(static_cast<RecordId>(i),
                      static_cast<double>(o1) * inv_q);
      }
    }
    // Bitmap reads, not postings; one entry per examined record
    // (batch-counted, same accounting as the static index).
    const size_t examined = sketches_.size() - skipped;
    response.stats.candidates_generated += examined;
    response.stats.postings_scanned += examined;
  }
  collector.Finish();
  return response;
}

double DynamicGbKmvIndex::EstimateContainment(const Record& query,
                                              RecordId id) const {
  if (query.empty()) return 0.0;
  const GbKmvSketch query_sketch = MakeSketch(query);
  const GbKmvPairEstimate est =
      GbKmvSketcher::EstimatePair(query_sketch, sketches_[id]);
  const double cap =
      static_cast<double>(std::min<size_t>(query.size(), records_[id].size()));
  return std::min(est.intersection_size, cap) /
         static_cast<double>(query.size());
}

}  // namespace gbkmv
