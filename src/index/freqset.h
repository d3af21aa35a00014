// FrequentSet-style exact containment search.
//
// Stand-in for the inverted-list exact method of Agrawal et al. (SIGMOD
// 2010) used as the second exact comparator in §V-F: a ScanCount over the
// query's posting lists with the overlap threshold θ = ⌈t*·|Q|⌉, with a
// cheap frequency-ordered early-termination heuristic (rare tokens first, so
// the counter array stays sparse for selective queries). Unlike PPjoin* it
// has no prefix/positional filtering — its per-query cost grows with the
// total posting volume of the query, which is exactly the behaviour
// Fig. 19(b) contrasts against GB-KMV. Hit scores are exact containment
// |Q∩X|/|Q|, read off the ScanCount counters at no extra scan cost.

#ifndef GBKMV_INDEX_FREQSET_H_
#define GBKMV_INDEX_FREQSET_H_

#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "data/dataset.h"
#include "index/inverted_index.h"
#include "index/searcher.h"

namespace gbkmv {

namespace io {
class SnapshotReader;
}  // namespace io

class FreqSetSearcher : public ContainmentSearcher {
 public:
  // A non-null pool shards the inverted-index build (byte-identical result).
  // `store` selects the posting backend: kFlat (fastest scans, default) or
  // kCompressed (delta + bit-packed blocks, a fraction of the footprint);
  // results are bit-identical either way.
  explicit FreqSetSearcher(const Dataset& dataset, ThreadPool* pool = nullptr,
                           PostingStoreKind store = PostingStoreKind::kFlat);

  // Safe for concurrent callers with distinct QueryContext arenas.
  QueryResponse SearchQ(const QueryRequest& request,
                        QueryContext& ctx) const override;
  std::string name() const override { return "FreqSet"; }
  uint64_t SpaceUnits() const override { return index_.SpaceUnits(); }
  // Paper measure: one unit per posting entry (= total elements).
  uint64_t BudgetSpaceUnits() const override {
    return index_.TotalPostings();
  }
  bool exact() const override { return true; }
  size_t num_records() const { return num_records_; }

  // Snapshot round-trip (docs/snapshot_format.md "freqset-index"). v3
  // stores the posting payload in the aligned-array encoding for either
  // backend, so no load rebuilds anything; v1/v2 snapshots rebuild the flat
  // backend from the dataset on read. LoadMapped serves the postings
  // straight out of a validated v3 view (no dataset, no copies) — the
  // caller keeps the backing mapping alive for the searcher's lifetime; a
  // mapped searcher cannot Save (FailedPrecondition) because the dataset
  // did not travel with it.
  static constexpr char kSnapshotKind[] = "freqset-index";
  Status SaveSnapshot(const std::string& path) const override {
    return Save(path);
  }
  Status Save(const std::string& path) const;
  static Result<std::unique_ptr<FreqSetSearcher>> LoadFrom(
      const io::SnapshotReader& snapshot, const Dataset& dataset);
  static Result<std::unique_ptr<FreqSetSearcher>> Load(const std::string& path,
                                                       const Dataset& dataset);
  static Result<std::unique_ptr<FreqSetSearcher>> LoadMapped(
      const io::SnapshotReader& snapshot);

 private:
  FreqSetSearcher(const Dataset* dataset, size_t num_records,
                  InvertedIndex index)
      : dataset_(dataset),
        num_records_(num_records),
        index_(std::move(index)) {}

  const Dataset* dataset_;  // null for mapped (dataset-free) loads
  size_t num_records_;
  InvertedIndex index_;
};

}  // namespace gbkmv

#endif  // GBKMV_INDEX_FREQSET_H_
