// GB-KMV containment-similarity search (Algorithm 2 + the §IV-B
// implementation notes).
//
// Build: every record's sketch (buffer bitmap + G-KMV hash set) written
// straight into a flat store, an inverted index over the G-KMV hash values,
// and a buffer popcount order (the records with a non-empty buffer, by
// ascending |H_X|) for the buffer-only pass.
//
// Query (threshold t*, θ = t*·|Q|):
//   * records with |X| < θ are pruned outright (a record smaller than the
//     required overlap can never qualify — the paper's per-partition size
//     lower bound, applied at its finest granularity);
//   * K∩ per record comes from a ScanCount over the query's sketch hashes
//     (the paper's PPjoin*-style "K∩ ≥ o" candidate generation);
//   * |H_Q ∩ H_X| comes from a bitmap AND over the scored records;
//   * a record with K∩ = 0 scores exactly o1 = |H_Q ∩ H_X|, and
//     o1 <= min(|H_Q|, |H_X|): the buffer-only pass runs only when
//     |H_Q| >= ⌈θ⌉, and then only over the suffix of the popcount order
//     with |H_X| >= ⌈θ⌉ (|H_X| <= |X|, so this bound implies the size one);
//   * the G-KMV estimator needs only (K∩, |L_Q|, |L_X|, max hash), all O(1)
//     per candidate: k = |L_Q|+|L_X|−K∩ and U(k) = max(max L_Q, max L_X),
//     so every candidate is scored exactly as Eq. 27 with no re-merge.
// Records whose estimate reaches θ are returned; at θ = 0 that is every
// record, scored by its estimate.

#ifndef GBKMV_INDEX_GBKMV_INDEX_H_
#define GBKMV_INDEX_GBKMV_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "index/searcher.h"
#include "sketch/cost_model.h"
#include "sketch/gbkmv.h"
#include "storage/flat_hash_postings.h"

namespace gbkmv {

class ThreadPool;

namespace io {
class Reader;
class SnapshotReader;
}  // namespace io

struct GbKmvIndexOptions {
  // Space budget as a fraction of the dataset's total elements N
  // (the paper's "SpaceUsed"; default 10%). Ignored if budget_units > 0.
  double space_ratio = 0.10;
  uint64_t budget_units = 0;

  // Buffer width r in bits. kAutoBuffer asks the cost model (§IV-C6);
  // 0 disables the buffer (G-KMV behaviour).
  static constexpr size_t kAutoBuffer = ~size_t{0};
  size_t buffer_bits = kAutoBuffer;

  CostModelOptions cost_model;
  uint64_t seed = kDefaultSketchSeed;

  // Build parallelism: sketches are built in record chunks placed in record
  // order, so the result is byte-identical to a sequential build for any
  // value. 0 = DefaultThreads(), 1 = serial.
  size_t num_threads = 0;
};

class GbKmvIndexSearcher : public ContainmentSearcher {
 public:
  // Builds sketches for every record. `dataset` must outlive the searcher.
  static Result<std::unique_ptr<GbKmvIndexSearcher>> Create(
      const Dataset& dataset, const GbKmvIndexOptions& options);

  // Resolves the options against `dataset` (budget from space_ratio, buffer
  // width from the cost model) and builds the sketcher alone — the global
  // threshold τ and buffer universe E_H without any per-record sketches.
  // This is what Create derives internally; the sharded service
  // (src/serve) calls it once on the FULL dataset and then hands the result
  // to CreateWithSketcher per shard, so every shard sketches records with
  // identical global parameters.
  static Result<GbKmvSketcher> MakeSketcher(const Dataset& dataset,
                                            const GbKmvIndexOptions& options);

  // Builds a searcher over `dataset` (a shard) with an externally supplied
  // sketcher instead of deriving one. Because GbKmvSketcher::Sketch is a
  // pure per-record function of (τ, E_H, seed), a record's sketch — and
  // therefore every pairwise containment estimate involving it — is
  // identical whether the record lives in a shard or in the single full
  // index the sketcher was derived from (the bit-identical sharding
  // invariant, docs/sharding.md). The searcher shares `sketcher`: the
  // sharded service hands every shard it builds its one global sketcher.
  static Result<std::unique_ptr<GbKmvIndexSearcher>> CreateWithSketcher(
      const Dataset& dataset, std::shared_ptr<const GbKmvSketcher> sketcher,
      size_t num_threads = 0);

  // One immutable source of an index-level merge: a searcher plus an
  // optional tombstone mask (deleted != null and (*deleted)[i] != 0 drops
  // local row i).
  struct MergeSource {
    const GbKmvIndexSearcher* searcher = nullptr;
    const std::vector<uint8_t>* deleted = nullptr;
  };

  // Index-level shard merge (docs/sharding.md "Shard lifecycle"):
  // concatenates the sources' flat sketch stores in order, skipping
  // tombstoned rows, and rebuilds only the derived query structures (buffer
  // popcount order + hash postings, deterministic count/scatter passes over
  // the concatenated rows) — no record is ever re-sketched. `dataset` must
  // hold exactly the surviving records in merge order (source order,
  // ascending local id within a source) and must outlive the searcher.
  // Because a record's flat row is a pure function of (record, sketcher),
  // the merged searcher answers bit-identically — hits, scores, stats —
  // to CreateWithSketcher over `dataset` with the shared sketcher, and it
  // shares the first source's sketcher. All sources must share the first
  // source's sketcher parameters (buffer width, global threshold);
  // InvalidArgument otherwise, and InvalidArgument when every row is
  // tombstoned (an index cannot be empty — the caller drops the shard
  // instead).
  static Result<std::unique_ptr<GbKmvIndexSearcher>> Merge(
      std::span<const MergeSource> sources, const Dataset& dataset);

  // Safe for concurrent callers with distinct QueryContext arenas. Hit
  // scores are the Eq. 27 estimate (buffer overlap + G-KMV term, clamped by
  // min(|Q|, |X|)) divided by |Q| — the very value the threshold test uses.
  QueryResponse SearchQ(const QueryRequest& request,
                        QueryContext& ctx) const override;
  std::string name() const override {
    return chosen_buffer_bits_ > 0 ? "GB-KMV" : "G-KMV";
  }
  // Full resident storage: sketches + the flat hash-posting index
  // (docs/snapshot_format.md has the per-method formula).
  uint64_t SpaceUnits() const override {
    return space_units_ + hash_postings_.SpaceUnits();
  }
  // Sketch payload alone, the paper's budget measure (<= the space budget).
  uint64_t BudgetSpaceUnits() const override { return space_units_; }

  // Containment estimate for a single record (Eq. 27 over stored sketches).
  double EstimateContainment(const Record& query, RecordId id) const;

  size_t num_records() const { return record_sizes_.size(); }
  size_t chosen_buffer_bits() const { return chosen_buffer_bits_; }
  uint64_t global_threshold() const { return sketcher_->global_threshold(); }
  const GbKmvSketcher& sketcher() const { return *sketcher_; }

  // Flat sketch store slices (id < num_records()): record `id`'s buffer
  // bitmap words and its ascending G-KMV hash values.
  std::span<const uint64_t> BufferWordsOf(RecordId id) const {
    return buffer_words_.subspan(size_t{id} * words_per_record_,
                                 words_per_record_);
  }
  std::span<const uint64_t> HashesOf(RecordId id) const {
    return hashes_.subspan(hash_offsets_[id],
                           hash_offsets_[id + 1] - hash_offsets_[id]);
  }

  // Replaces this searcher's sketcher with `sketcher` when the two sketch
  // every record identically (GbKmvSketcher::SameParameters), so a loaded
  // shard can drop its file's copy for the service's one. Returns false,
  // changing nothing, when they differ.
  bool ShareSketcher(std::shared_ptr<const GbKmvSketcher> sketcher);

  // Snapshot persistence (src/io; defined in io/persist_index.cc). The
  // snapshot embeds the dataset and the flat sketch payload, so a reloaded
  // searcher returns byte-identical Search() results without re-sketching.
  // Format version 3 lays the payload out as 64-byte-aligned flat arrays;
  // LoadMapped serves them straight out of a validated v3 view (no dataset,
  // no copies) with the caller keeping the backing mapping alive — a mapped
  // searcher cannot Save (FailedPrecondition; copy the snapshot file
  // instead).
  static constexpr char kSnapshotKind[] = "gbkmv-index";
  Status Save(const std::string& path) const;
  Status SaveSnapshot(const std::string& path) const override {
    return Save(path);
  }
  // `dataset` must be the dataset the snapshot was built from (verified by
  // fingerprint) and must outlive the searcher.
  static Result<std::unique_ptr<GbKmvIndexSearcher>> Load(
      const std::string& path, const Dataset& dataset);
  static Result<std::unique_ptr<GbKmvIndexSearcher>> LoadFrom(
      const io::SnapshotReader& snapshot, const Dataset& dataset);
  static Result<std::unique_ptr<GbKmvIndexSearcher>> LoadMapped(
      const io::SnapshotReader& snapshot);

 private:
  explicit GbKmvIndexSearcher(const Dataset* dataset) : dataset_(dataset) {}

  // Shared v3 load path (io/persist_index.cc): reads the aligned flat
  // sketch store; `dataset` is null for mapped (dataset-free) loads and
  // `borrow` serves the arrays from the reader's buffer in place.
  static Result<std::unique_ptr<GbKmvIndexSearcher>> LoadAligned(
      io::Reader* in, const Dataset* dataset, bool borrow);

  // Flattens legacy-loaded (v1/v2 snapshot) per-record sketches into the
  // flat arrays (Corruption when a stored sketch disagrees with the
  // sketcher's global threshold).
  Status AdoptSketches(const std::vector<GbKmvSketch>& sketches);

  // Points the flat-store spans at the owned vectors.
  void AliasOwnedStore();

  // Builds the derived query structures (buffer popcount order and, unless
  // `rebuild_postings` is false because a snapshot already supplied them,
  // the flat hash postings) from the flat sketch store; shared by Create
  // and the loaders. Deterministic for any thread count.
  void BuildQueryStructures(bool rebuild_postings = true);

  const Dataset* dataset_;  // null for mapped (dataset-free) loads
  // Shared with every searcher built or merged from the same sketcher;
  // loaded searchers own the one their snapshot carries until a
  // ShareSketcher swaps it for an equal shared one.
  std::shared_ptr<const GbKmvSketcher> sketcher_;
  size_t chosen_buffer_bits_ = 0;
  uint64_t space_units_ = 0;  // sketch payload (bitmaps + stored hashes)

  // Flat sketch store (docs/architecture.md "Borrowed memory"): all
  // per-record sketch state in four flat arrays read through spans that
  // either alias the owned vectors or point into a mapped v3 snapshot.
  // Every bitmap is exactly words_per_record_ words wide; every stored hash
  // is <= sketch_threshold_ (== sketcher_->global_threshold()).
  size_t words_per_record_ = 0;
  uint64_t sketch_threshold_ = 0;
  std::vector<uint32_t> owned_record_sizes_;
  std::vector<uint64_t> owned_buffer_words_;
  std::vector<uint64_t> owned_hash_offsets_;
  std::vector<uint64_t> owned_hashes_;
  std::span<const uint32_t> record_sizes_;   // |X| per record id
  std::span<const uint64_t> buffer_words_;   // m * words_per_record_
  std::span<const uint64_t> hash_offsets_;   // m + 1 row starts
  std::span<const uint64_t> hashes_;         // concatenated G-KMV values

  // Records with a non-empty buffer bitmap (the only ones the buffer-only
  // pass can return) by ascending buffer popcount, ascending id within one
  // popcount, + the parallel popcounts for binary search.
  std::vector<RecordId> buffered_by_popcount_;
  std::vector<uint32_t> buffered_popcounts_;
  // G-KMV hash value -> records containing it (flat CSR + open addressing).
  FlatHashPostings hash_postings_;
};

// Plain-KMV baseline searcher (§IV-A(1)): every record gets a size-⌊b/m⌋ KMV
// sketch (the optimal allocation of Theorem 1) and queries are scored with
// the classic pairwise estimator (Eqs. 8–10) against all size-eligible
// records.
class KmvSearcher : public ContainmentSearcher {
 public:
  // num_threads: sketch-build parallelism (0 = DefaultThreads(), 1 = serial;
  // byte-identical output either way).
  static Result<std::unique_ptr<KmvSearcher>> Create(
      const Dataset& dataset, double space_ratio,
      uint64_t seed = kDefaultSketchSeed, size_t num_threads = 0);

  // Hit scores are the clamped pairwise estimate (Eqs. 8–10) over |Q|.
  QueryResponse SearchQ(const QueryRequest& request,
                        QueryContext& ctx) const override;
  std::string name() const override { return "KMV"; }
  uint64_t SpaceUnits() const override { return space_units_; }

  size_t sketch_k() const { return k_; }

 private:
  explicit KmvSearcher(const Dataset& dataset) : dataset_(dataset) {}

  const Dataset& dataset_;
  size_t k_ = 0;
  uint64_t seed_ = 0;
  uint64_t space_units_ = 0;
  std::vector<KmvSketch> sketches_;
  std::vector<uint32_t> record_sizes_;
};

}  // namespace gbkmv

#endif  // GBKMV_INDEX_GBKMV_INDEX_H_
