// Dataset: an immutable collection of records plus the global statistics the
// GB-KMV machinery needs (element frequencies, frequency ranking, total
// element count N, power-law exponents).

#ifndef GBKMV_DATA_DATASET_H_
#define GBKMV_DATA_DATASET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/record.h"

namespace gbkmv {

namespace io {
class Reader;
class Writer;
}  // namespace io

// Summary statistics in the shape of the paper's Table II.
struct DatasetStats {
  size_t num_records = 0;         // m
  size_t num_distinct = 0;        // n (elements with frequency > 0)
  uint64_t total_elements = 0;    // N = Σ |X_i|
  double avg_record_size = 0.0;
  size_t min_record_size = 0;
  size_t max_record_size = 0;
  double alpha_element_freq = 0.0;  // α1 (MLE fit)
  double alpha_record_size = 0.0;   // α2 (MLE fit)
};

class Dataset {
 public:
  Dataset() = default;

  // Takes ownership of `records`; every record must be normalised
  // (sorted unique) — validated here, `InvalidArgument` otherwise. The
  // frequency statistics are derived lazily on first use (see below).
  static Result<Dataset> Create(std::vector<Record> records,
                                std::string name = "dataset");

  // Like Create but skips the per-record normalisation check: for callers
  // that assemble records from sources that are themselves normalised
  // datasets (e.g. the compaction path gathering a union of shard
  // datasets), where re-validating every element is pure overhead. Feeding
  // it an unnormalised record is undefined behaviour downstream — when in
  // doubt, use Create.
  static Result<Dataset> CreateFromNormalized(std::vector<Record> records,
                                              std::string name = "dataset");

  const std::string& name() const { return name_; }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const Record& record(size_t i) const { return records_[i]; }
  const std::vector<Record>& records() const { return records_; }

  // Total number of element occurrences, N = Σ|X_i|.
  uint64_t total_elements() const { return total_elements_; }

  // The frequency accessors below derive their tables on first use (the
  // element-frequency count plus the by-frequency sort are the dominant
  // cost of dataset construction, and index builds that reuse a pinned
  // sketcher — compaction merges, the open shard's per-ingest fold — never
  // need them). Derivation runs exactly once even when first accesses race
  // (std::call_once), so a shared dataset may be read from any thread, as
  // may stats() and Fingerprint().

  // Largest element id + 1 (ids are dense but may have gaps with freq 0).
  size_t universe_size() const { return tables().frequency.size(); }

  // Number of elements with frequency > 0.
  size_t num_distinct() const { return tables().num_distinct; }

  // Frequency of element `e` (0 for unseen ids).
  uint64_t frequency(ElementId e) const {
    const std::vector<uint64_t>& f = tables().frequency;
    return e < f.size() ? f[e] : 0;
  }
  const std::vector<uint64_t>& frequencies() const {
    return tables().frequency;
  }

  // Element ids sorted by decreasing frequency (ties by id); the first r
  // entries are the GB-KMV buffer universe E_H.
  const std::vector<ElementId>& elements_by_frequency() const {
    return tables().by_frequency;
  }

  // Σ of the top-r frequencies (N1 in §IV-C6). r is clamped to num_distinct.
  uint64_t TopFrequencySum(size_t r) const;

  // Σ f_i² over *all* elements divided by N² (fn2 in the paper's analysis).
  double FrequencySecondMoment() const;

  // Σ f_i² over the top-r elements divided by N² (fr2).
  double TopFrequencySecondMoment(size_t r) const;

  // Full Table II-style stats (fits power-law exponents on demand; cached).
  const DatasetStats& stats() const;

  // Order-dependent 64-bit content hash of the records (name excluded).
  // Snapshots of derived structures store it so a reloaded index can verify
  // it is being re-bound to the same dataset it was built from. Computed
  // once and cached (the dataset is immutable after Create).
  uint64_t Fingerprint() const;

  // Binary snapshot serialization (src/io). SaveTo writes name + records;
  // LoadFrom re-derives the statistics through Create, so a loaded dataset
  // is indistinguishable from a freshly created one. Defined in
  // io/persist_data.cc.
  void SaveTo(io::Writer* out) const;
  static Result<Dataset> LoadFrom(io::Reader* in);
  Status Save(const std::string& path) const;
  static Result<Dataset> Load(const std::string& path);

 private:
  // A block derived from the records on first use, exactly once even when
  // first uses race. A copy takes the source's value when it is already
  // derived and derives its own on demand otherwise (std::once_flag is
  // neither copyable nor movable, hence the indirection).
  template <typename T>
  class Lazy {
   public:
    Lazy() = default;
    Lazy(const Lazy& other) { CopyFrom(other); }
    // noexcept so containers of Datasets move rather than copy them.
    Lazy(Lazy&& other) noexcept {
      if (other.ready_.load(std::memory_order_acquire)) {
        Get([&other] { return std::move(other.value_); });
      }
    }
    Lazy& operator=(const Lazy& other) {
      if (this != &other) {
        once_ = std::make_unique<std::once_flag>();
        ready_.store(false, std::memory_order_relaxed);
        value_ = T{};
        CopyFrom(other);
      }
      return *this;
    }

    template <typename Derive>
    const T& Get(const Derive& derive) const {
      std::call_once(*once_, [&] {
        value_ = derive();
        ready_.store(true, std::memory_order_release);
      });
      return value_;
    }

   private:
    void CopyFrom(const Lazy& other) {
      if (other.ready_.load(std::memory_order_acquire)) {
        Get([&other] { return other.value_; });
      }
    }

    std::unique_ptr<std::once_flag> once_ = std::make_unique<std::once_flag>();
    mutable T value_{};
    mutable std::atomic<bool> ready_{false};
  };

  struct FrequencyTables {
    std::vector<uint64_t> frequency;
    std::vector<ElementId> by_frequency;
    std::vector<uint64_t> prefix_freq;   // prefix sums over by_frequency
    std::vector<double> prefix_freq_sq;  // prefix sums of f²
    size_t num_distinct = 0;
  };

  // Counts elements and sorts the universe by frequency.
  FrequencyTables DeriveFrequencyTables() const;
  DatasetStats DeriveStats() const;
  const FrequencyTables& tables() const {
    return tables_.Get([this] { return DeriveFrequencyTables(); });
  }

  std::string name_;
  std::vector<Record> records_;
  uint64_t total_elements_ = 0;
  Lazy<FrequencyTables> tables_;
  Lazy<DatasetStats> stats_;
  Lazy<uint64_t> fingerprint_;
};

// The fingerprint of a raw record sequence (what Dataset::Fingerprint
// caches); used by self-contained indexes that own their records directly.
uint64_t FingerprintRecords(const std::vector<Record>& records);

}  // namespace gbkmv

#endif  // GBKMV_DATA_DATASET_H_
