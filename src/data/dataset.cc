#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/hash.h"
#include "common/power_law.h"

namespace gbkmv {

Result<Dataset> Dataset::Create(std::vector<Record> records, std::string name) {
  for (size_t i = 0; i < records.size(); ++i) {
    if (!IsNormalized(records[i])) {
      return Status::InvalidArgument("record " + std::to_string(i) +
                                     " is not sorted/unique");
    }
  }
  return CreateFromNormalized(std::move(records), std::move(name));
}

Result<Dataset> Dataset::CreateFromNormalized(std::vector<Record> records,
                                              std::string name) {
  Dataset ds;
  ds.name_ = std::move(name);
  ds.records_ = std::move(records);
  for (const Record& r : ds.records_) ds.total_elements_ += r.size();
  return ds;
}

Dataset::FrequencyTables Dataset::DeriveFrequencyTables() const {
  FrequencyTables t;
  ElementId max_id = 0;
  bool any = false;
  for (const Record& r : records_) {
    if (!r.empty()) {
      max_id = std::max(max_id, r.back());
      any = true;
    }
  }
  t.frequency.assign(any ? static_cast<size_t>(max_id) + 1 : 0, 0);
  for (const Record& r : records_) {
    for (ElementId e : r) ++t.frequency[e];
  }
  t.num_distinct = static_cast<size_t>(
      std::count_if(t.frequency.begin(), t.frequency.end(),
                    [](uint64_t f) { return f > 0; }));

  t.by_frequency.resize(t.frequency.size());
  std::iota(t.by_frequency.begin(), t.by_frequency.end(), 0);
  std::stable_sort(t.by_frequency.begin(), t.by_frequency.end(),
                   [&t](ElementId a, ElementId b) {
                     return t.frequency[a] > t.frequency[b];
                   });
  // Drop zero-frequency tail so the buffer never wastes bits on unseen ids.
  while (!t.by_frequency.empty() &&
         t.frequency[t.by_frequency.back()] == 0) {
    t.by_frequency.pop_back();
  }

  t.prefix_freq.resize(t.by_frequency.size() + 1, 0);
  t.prefix_freq_sq.resize(t.by_frequency.size() + 1, 0.0);
  for (size_t i = 0; i < t.by_frequency.size(); ++i) {
    const uint64_t f = t.frequency[t.by_frequency[i]];
    const double fd = static_cast<double>(f);
    t.prefix_freq[i + 1] = t.prefix_freq[i] + f;
    t.prefix_freq_sq[i + 1] = t.prefix_freq_sq[i] + fd * fd;
  }
  return t;
}

uint64_t FingerprintRecords(const std::vector<Record>& records) {
  // Order-dependent chain over record boundaries and element ids; two
  // datasets collide only with ~2^-64 probability, which is enough to catch
  // a snapshot being re-bound to the wrong dataset.
  uint64_t h = SplitMix64(0x6462736574ULL ^ records.size());
  for (const Record& r : records) {
    h = Mix64(h ^ SplitMix64(r.size()));
    for (ElementId e : r) h = Mix64(h ^ e);
  }
  return h;
}

uint64_t Dataset::Fingerprint() const {
  return fingerprint_.Get([this] { return FingerprintRecords(records_); });
}

uint64_t Dataset::TopFrequencySum(size_t r) const {
  const FrequencyTables& t = tables();
  r = std::min(r, t.by_frequency.size());
  return t.prefix_freq[r];
}

double Dataset::FrequencySecondMoment() const {
  if (total_elements_ == 0) return 0.0;
  const double n2 = static_cast<double>(total_elements_) *
                    static_cast<double>(total_elements_);
  return tables().prefix_freq_sq.back() / n2;
}

double Dataset::TopFrequencySecondMoment(size_t r) const {
  if (total_elements_ == 0) return 0.0;
  const FrequencyTables& t = tables();
  r = std::min(r, t.by_frequency.size());
  const double n2 = static_cast<double>(total_elements_) *
                    static_cast<double>(total_elements_);
  return t.prefix_freq_sq[r] / n2;
}

const DatasetStats& Dataset::stats() const {
  return stats_.Get([this] { return DeriveStats(); });
}

DatasetStats Dataset::DeriveStats() const {
  const FrequencyTables& t = tables();
  DatasetStats s;
  s.num_records = records_.size();
  s.num_distinct = t.num_distinct;
  s.total_elements = total_elements_;
  if (!records_.empty()) {
    s.min_record_size = records_[0].size();
    s.max_record_size = records_[0].size();
    for (const Record& r : records_) {
      s.min_record_size = std::min(s.min_record_size, r.size());
      s.max_record_size = std::max(s.max_record_size, r.size());
    }
    s.avg_record_size = static_cast<double>(total_elements_) /
                        static_cast<double>(records_.size());
  }
  // α1: fit over element frequencies; α2: fit over record sizes.
  std::vector<uint64_t> freqs;
  freqs.reserve(t.num_distinct);
  for (uint64_t f : t.frequency) {
    if (f > 0) freqs.push_back(f);
  }
  s.alpha_element_freq = FitPowerLawExponent(freqs, 1);
  std::vector<uint64_t> sizes;
  sizes.reserve(records_.size());
  for (const Record& r : records_) sizes.push_back(r.size());
  const uint64_t size_xmin = s.min_record_size > 0 ? s.min_record_size : 1;
  s.alpha_record_size = FitPowerLawExponent(sizes, size_xmin);
  return s;
}

}  // namespace gbkmv
