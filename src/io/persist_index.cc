// Snapshot serialization of the heavyweight searchers and the GbKmvSketcher
// factory. Layouts are documented in docs/snapshot_format.md.
//
// Design rules shared by all three searchers:
//   * the expensive state (per-record sketches / signatures, thresholds,
//     buffer universes) is stored verbatim, so a reloaded index answers
//     Search() byte-identically to the original;
//   * derived query accelerators (inverted hash postings, the buffer
//     popcount order, banding bucket tables) are rebuilt deterministically
//     on load — they are pure functions of the stored state and compress
//     poorly;
//   * dataset-bound searchers store the dataset fingerprint and verify it
//     against the dataset they are re-attached to (InvalidArgument on
//     mismatch); all structural damage surfaces as Corruption before any
//     searcher state is exposed to the caller.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "index/dynamic_index.h"
#include "index/freqset.h"
#include "index/gbkmv_index.h"
#include "index/lsh_ensemble.h"
#include "index/minhash_lsh.h"
#include "io/serializer.h"
#include "io/snapshot.h"
#include "sketch/gbkmv.h"
#include "storage/compressed_posting_store.h"

namespace gbkmv {

namespace {

// Sanity cap on the stored universe width of snapshots whose sketcher is
// not bounded by an embedded dataset (self-contained dynamic indexes, and
// static shards carrying the sharded service's global sketcher): 2^28
// element ids (a 1 GiB id->bit map) is far above any realistic universe but
// keeps a corrupt 64-bit field from triggering a multi-terabyte allocation.
constexpr uint64_t kMaxSelfContainedUniverse = 1ULL << 28;

// Validates the meta section of a dataset-bound searcher snapshot.
Status CheckMeta(const io::SnapshotReader& snapshot, const std::string& kind,
                 const Dataset& dataset) {
  Result<io::SnapshotMeta> meta = io::ReadSnapshotMeta(snapshot);
  if (!meta.ok()) return meta.status();
  if (meta->kind != kind) {
    return Status::InvalidArgument("snapshot holds a '" + meta->kind +
                                   "', expected '" + kind + "'");
  }
  if (meta->fingerprint != dataset.Fingerprint()) {
    return Status::InvalidArgument(
        "snapshot was built from a different dataset (fingerprint mismatch)");
  }
  return Status::OK();
}

}  // namespace

// --- GbKmvSketcher --------------------------------------------------------

void GbKmvSketcher::SaveTo(io::Writer* out) const {
  out->PutU64(options_.budget_units);
  out->PutU64(options_.buffer_bits);
  out->PutU64(options_.seed);
  out->PutU64(global_threshold_);
  out->PutVecU32(buffer_elements_);
  out->PutU64(element_to_bit_.size());
}

Result<GbKmvSketcher> GbKmvSketcher::LoadFrom(io::Reader* in,
                                              size_t max_universe_size) {
  GbKmvSketcher sketcher;
  uint64_t buffer_bits = 0;
  uint64_t universe_size = 0;
  GBKMV_RETURN_IF_ERROR(in->GetU64(&sketcher.options_.budget_units));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&buffer_bits));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&sketcher.options_.seed));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&sketcher.global_threshold_));
  GBKMV_RETURN_IF_ERROR(in->GetVecU32(&sketcher.buffer_elements_));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&universe_size));
  sketcher.options_.buffer_bits = static_cast<size_t>(buffer_bits);
  if (sketcher.buffer_elements_.size() != sketcher.options_.buffer_bits) {
    return Status::Corruption("buffer universe size does not match r");
  }
  if (universe_size > max_universe_size) {
    return Status::Corruption("stored universe size exceeds the dataset's");
  }
  for (ElementId e : sketcher.buffer_elements_) {
    if (e >= universe_size) {
      return Status::Corruption("buffer element outside the universe");
    }
  }
  sketcher.element_to_bit_.assign(static_cast<size_t>(universe_size), -1);
  for (size_t bit = 0; bit < sketcher.buffer_elements_.size(); ++bit) {
    int32_t& slot = sketcher.element_to_bit_[sketcher.buffer_elements_[bit]];
    if (slot != -1) {
      return Status::Corruption("duplicate element in buffer universe");
    }
    slot = static_cast<int32_t>(bit);
  }
  return sketcher;
}

// --- GbKmvIndexSearcher ---------------------------------------------------

Status GbKmvIndexSearcher::Save(const std::string& path) const {
  if (dataset_ == nullptr) {
    return Status::FailedPrecondition(
        "mapped gbkmv searcher cannot save (no dataset attached); copy the "
        "source snapshot file instead");
  }
  io::SnapshotWriter snapshot;
  io::WriteSnapshotMeta(&snapshot, kSnapshotKind, dataset_->Fingerprint());
  dataset_->SaveTo(snapshot.AddSection(io::kSectionDataset));
  io::Writer* out = snapshot.AddSection(io::kSectionIndex);
  sketcher_->SaveTo(out);
  out->PutU64(chosen_buffer_bits_);
  out->PutU64(space_units_);
  // Format version 3: the flat sketch store (record sizes, bitmap word
  // arena, hash CSR) and the hash postings travel as 64-byte-aligned flat
  // arrays, so a mapped load serves all of them in place. Every layout here
  // is a pure function of the sketches — byte-identical for any build
  // thread count.
  out->PutU64(num_records());
  out->PutU64(words_per_record_);
  out->PutU64(sketch_threshold_);
  out->PutU32Array(record_sizes_.data(), record_sizes_.size());
  out->PutU64Array(buffer_words_.data(), buffer_words_.size());
  out->PutU64Array(hash_offsets_.data(), hash_offsets_.size());
  out->PutU64Array(hashes_.data(), hashes_.size());
  hash_postings_.SaveToAligned(out);
  return snapshot.WriteTo(path);
}

// Shared v3 load path of the GB-KMV index: `dataset` is the bound dataset
// for copying loads (null for mapped, dataset-free loads), `borrow` serves
// the flat arrays from the reader's buffer in place.
Result<std::unique_ptr<GbKmvIndexSearcher>> GbKmvIndexSearcher::LoadAligned(
    io::Reader* in, const Dataset* dataset, bool borrow) {
  std::unique_ptr<GbKmvIndexSearcher> s(new GbKmvIndexSearcher(dataset));
  // The sketcher may span a wider universe than this dataset: a shard
  // snapshot of the sharded service (src/serve) stores the GLOBAL sketcher
  // next to its shard-local dataset. The bound is purely an allocation
  // guard, so cap at the self-contained sanity limit instead of the
  // dataset's own width.
  Result<GbKmvSketcher> sketcher = GbKmvSketcher::LoadFrom(
      in, dataset == nullptr
              ? kMaxSelfContainedUniverse
              : std::max<size_t>(dataset->universe_size(),
                                 kMaxSelfContainedUniverse));
  if (!sketcher.ok()) return sketcher.status();
  s->sketcher_ =
      std::make_shared<const GbKmvSketcher>(std::move(sketcher.value()));

  uint64_t chosen_buffer_bits = 0;
  uint64_t num_records = 0;
  uint64_t words_per_record = 0;
  GBKMV_RETURN_IF_ERROR(in->GetU64(&chosen_buffer_bits));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&s->space_units_));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&num_records));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&words_per_record));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&s->sketch_threshold_));
  s->chosen_buffer_bits_ = static_cast<size_t>(chosen_buffer_bits);
  s->words_per_record_ = static_cast<size_t>(words_per_record);
  if (dataset != nullptr && num_records != dataset->size()) {
    return Status::Corruption("sketch count does not match dataset size");
  }
  if (s->words_per_record_ != (s->chosen_buffer_bits_ + 63) / 64) {
    return Status::Corruption("sketch bitmap width does not match r");
  }
  if (s->sketch_threshold_ != s->sketcher_->global_threshold()) {
    return Status::Corruption("sketch threshold disagrees with the sketcher");
  }

  if (borrow) {
    GBKMV_RETURN_IF_ERROR(in->GetU32Span(&s->record_sizes_));
    GBKMV_RETURN_IF_ERROR(in->GetU64Span(&s->buffer_words_));
    GBKMV_RETURN_IF_ERROR(in->GetU64Span(&s->hash_offsets_));
    GBKMV_RETURN_IF_ERROR(in->GetU64Span(&s->hashes_));
  } else {
    GBKMV_RETURN_IF_ERROR(in->GetU32Array(&s->owned_record_sizes_));
    GBKMV_RETURN_IF_ERROR(in->GetU64Array(&s->owned_buffer_words_));
    GBKMV_RETURN_IF_ERROR(in->GetU64Array(&s->owned_hash_offsets_));
    GBKMV_RETURN_IF_ERROR(in->GetU64Array(&s->owned_hashes_));
    s->AliasOwnedStore();
  }

  // Shape checks before any slice accessor is trusted.
  const size_t m = static_cast<size_t>(num_records);
  if (s->record_sizes_.size() != m) {
    return Status::Corruption("record size array does not match record count");
  }
  if (dataset != nullptr) {
    for (size_t i = 0; i < m; ++i) {
      if (s->record_sizes_[i] != dataset->record(i).size()) {
        return Status::Corruption(
            "stored record sizes disagree with the dataset");
      }
    }
  }
  if (s->buffer_words_.size() != m * s->words_per_record_) {
    return Status::Corruption("bitmap arena does not match record count");
  }
  // Bits past r in a record's last word would silently inflate every
  // popcount; reject them up front.
  const size_t tail_bits = s->chosen_buffer_bits_ % 64;
  if (tail_bits != 0 && s->words_per_record_ > 0) {
    const uint64_t tail_mask = ~uint64_t{0} << tail_bits;
    for (size_t i = 0; i < m; ++i) {
      if ((s->BufferWordsOf(static_cast<RecordId>(i)).back() & tail_mask) !=
          0) {
        return Status::Corruption("bitmap has bits beyond the buffer width");
      }
    }
  }
  if (s->hash_offsets_.size() != m + 1 || s->hash_offsets_.front() != 0 ||
      s->hash_offsets_.back() != s->hashes_.size()) {
    return Status::Corruption("hash offsets malformed");
  }
  for (size_t i = 1; i < s->hash_offsets_.size(); ++i) {
    if (s->hash_offsets_[i] < s->hash_offsets_[i - 1]) {
      return Status::Corruption("hash offsets not monotone");
    }
  }
  // Per-record hash rows must be what GkmvSketch::Build produces: strictly
  // ascending values, all within the global threshold.
  for (size_t i = 0; i < m; ++i) {
    const std::span<const uint64_t> row =
        s->HashesOf(static_cast<RecordId>(i));
    for (size_t k = 0; k < row.size(); ++k) {
      if (row[k] > s->sketch_threshold_ ||
          (k > 0 && row[k] <= row[k - 1])) {
        return Status::Corruption("stored sketch hashes malformed");
      }
    }
  }
  const uint64_t space_check =
      uint64_t{m} * ((s->chosen_buffer_bits_ + 31) / 32) + s->hashes_.size();
  if (space_check != s->space_units_) {
    return Status::Corruption("stored space units disagree with sketches");
  }

  Result<FlatHashPostings> postings =
      FlatHashPostings::LoadFromAligned(in, m, borrow);
  if (!postings.ok()) return postings.status();
  if (postings->num_postings() != s->hashes_.size()) {
    return Status::Corruption("stored hash postings disagree with the "
                              "sketches");
  }
  s->hash_postings_ = std::move(postings.value());
  s->BuildQueryStructures(/*rebuild_postings=*/false);
  return s;
}

Result<std::unique_ptr<GbKmvIndexSearcher>> GbKmvIndexSearcher::LoadFrom(
    const io::SnapshotReader& snapshot, const Dataset& dataset) {
  GBKMV_RETURN_IF_ERROR(CheckMeta(snapshot, kSnapshotKind, dataset));
  if (snapshot.version() >= 3) {
    Result<io::Reader> section = snapshot.Section(io::kSectionIndex);
    if (!section.ok()) return section.status();
    return LoadAligned(&section.value(), &dataset, /*borrow=*/false);
  }
  Result<io::Reader> section = snapshot.Section(io::kSectionIndex);
  if (!section.ok()) return section.status();
  io::Reader* in = &section.value();

  std::unique_ptr<GbKmvIndexSearcher> s(new GbKmvIndexSearcher(&dataset));
  // See LoadAligned for the universe bound rationale.
  Result<GbKmvSketcher> sketcher = GbKmvSketcher::LoadFrom(
      in, std::max<size_t>(dataset.universe_size(),
                           kMaxSelfContainedUniverse));
  if (!sketcher.ok()) return sketcher.status();
  s->sketcher_ =
      std::make_shared<const GbKmvSketcher>(std::move(sketcher.value()));

  uint64_t chosen_buffer_bits = 0;
  uint64_t num_sketches = 0;
  GBKMV_RETURN_IF_ERROR(in->GetU64(&chosen_buffer_bits));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&s->space_units_));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&num_sketches));
  s->chosen_buffer_bits_ = static_cast<size_t>(chosen_buffer_bits);
  if (num_sketches != dataset.size()) {
    return Status::Corruption("sketch count does not match dataset size");
  }
  std::vector<GbKmvSketch> sketches;
  sketches.reserve(dataset.size());
  s->owned_record_sizes_.reserve(dataset.size());
  uint64_t space_check = 0;
  for (size_t i = 0; i < dataset.size(); ++i) {
    Result<GbKmvSketch> sketch = GbKmvSketch::LoadFrom(in);
    if (!sketch.ok()) return sketch.status();
    if (sketch->buffer.num_bits() != s->chosen_buffer_bits_) {
      return Status::Corruption("sketch bitmap width does not match r");
    }
    space_check += sketch->SpaceUnits(s->chosen_buffer_bits_);
    sketches.push_back(std::move(sketch.value()));
    s->owned_record_sizes_.push_back(
        static_cast<uint32_t>(dataset.record(i).size()));
  }
  if (space_check != s->space_units_) {
    return Status::Corruption("stored space units disagree with sketches");
  }
  GBKMV_RETURN_IF_ERROR(s->AdoptSketches(sketches));
  if (snapshot.version() >= 2) {
    // The flat posting store is stored verbatim; validate its structure and
    // that its payload agrees with the sketches it must have come from.
    Result<FlatHashPostings> postings =
        FlatHashPostings::LoadFrom(in, dataset.size());
    if (!postings.ok()) return postings.status();
    if (postings->num_postings() != s->hashes_.size()) {
      return Status::Corruption(
          "stored hash postings disagree with the sketches");
    }
    s->hash_postings_ = std::move(postings.value());
    s->BuildQueryStructures(/*rebuild_postings=*/false);
  } else {
    // Version-1 snapshot: convert on read by rebuilding the flat postings
    // from the sketches (what the v1 writer expected every load to do).
    s->BuildQueryStructures();
  }
  return s;
}

Result<std::unique_ptr<GbKmvIndexSearcher>> GbKmvIndexSearcher::LoadMapped(
    const io::SnapshotReader& snapshot) {
  Result<io::SnapshotMeta> meta = io::ReadSnapshotMeta(snapshot);
  if (!meta.ok()) return meta.status();
  if (meta->kind != kSnapshotKind) {
    return Status::InvalidArgument("snapshot holds a '" + meta->kind +
                                   "', expected '" +
                                   std::string(kSnapshotKind) + "'");
  }
  if (snapshot.version() < 3) {
    return Status::FailedPrecondition(
        "gbkmv snapshot predates v3; use the copying loader");
  }
  Result<io::Reader> section = snapshot.Section(io::kSectionIndex);
  if (!section.ok()) return section.status();
  // Borrow only when the reader is a view over caller-owned memory (a
  // mapped snapshot); an owning reader's buffer dies with it, so copy.
  return LoadAligned(&section.value(), nullptr, snapshot.borrowed());
}

Result<std::unique_ptr<GbKmvIndexSearcher>> GbKmvIndexSearcher::Load(
    const std::string& path, const Dataset& dataset) {
  Result<io::SnapshotReader> snapshot = io::SnapshotReader::Open(path);
  if (!snapshot.ok()) return snapshot.status();
  return LoadFrom(*snapshot, dataset);
}

// --- DynamicGbKmvIndex ----------------------------------------------------

Status DynamicGbKmvIndex::Save(const std::string& path) const {
  io::SnapshotWriter snapshot;
  // Self-contained (the records travel inside the index section), but the
  // fingerprint of the stored records is recorded anyway so the registry's
  // dataset re-binding overload can verify a match.
  io::WriteSnapshotMeta(&snapshot, kSnapshotKind,
                        FingerprintRecords(records_));
  io::Writer* out = snapshot.AddSection(io::kSectionIndex);
  out->PutU64(options_.budget_units);
  out->PutU64(options_.buffer_bits);
  out->PutDouble(options_.shrink_fill);
  out->PutU64(options_.seed);
  out->PutU64(threshold_);
  out->PutU64(used_units_);
  out->PutVecU32(buffer_elements_);
  out->PutU64(element_to_bit_.size());
  out->PutU64(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    out->PutVecU32(records_[i]);
    sketches_[i].SaveTo(out);
  }
  return snapshot.WriteTo(path);
}

Result<std::unique_ptr<DynamicGbKmvIndex>> DynamicGbKmvIndex::LoadFrom(
    const io::SnapshotReader& snapshot) {
  Result<io::SnapshotMeta> meta = io::ReadSnapshotMeta(snapshot);
  if (!meta.ok()) return meta.status();
  if (meta->kind != kSnapshotKind) {
    return Status::InvalidArgument("snapshot holds a '" + meta->kind +
                                   "', expected '" +
                                   std::string(kSnapshotKind) + "'");
  }
  Result<io::Reader> section = snapshot.Section(io::kSectionIndex);
  if (!section.ok()) return section.status();
  io::Reader* in = &section.value();

  std::unique_ptr<DynamicGbKmvIndex> index(new DynamicGbKmvIndex());
  uint64_t buffer_bits = 0;
  uint64_t universe_size = 0;
  uint64_t num_records = 0;
  GBKMV_RETURN_IF_ERROR(in->GetU64(&index->options_.budget_units));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&buffer_bits));
  GBKMV_RETURN_IF_ERROR(in->GetDouble(&index->options_.shrink_fill));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&index->options_.seed));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&index->threshold_));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&index->used_units_));
  GBKMV_RETURN_IF_ERROR(in->GetVecU32(&index->buffer_elements_));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&universe_size));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&num_records));
  index->options_.buffer_bits = static_cast<size_t>(buffer_bits);
  if (index->options_.budget_units == 0) {
    return Status::Corruption("dynamic index snapshot has zero budget");
  }
  if (index->options_.shrink_fill <= 0.0 ||
      index->options_.shrink_fill > 1.0) {
    return Status::Corruption("dynamic index shrink_fill out of range");
  }
  if (index->buffer_elements_.size() != index->options_.buffer_bits) {
    return Status::Corruption("buffer universe size does not match r");
  }
  if (universe_size > kMaxSelfContainedUniverse) {
    return Status::Corruption("stored universe size is implausibly large");
  }
  for (ElementId e : index->buffer_elements_) {
    if (e >= universe_size) {
      return Status::Corruption("buffer element outside the universe");
    }
  }
  // Every record costs at least its 8-byte count prefix.
  if (num_records > in->remaining() / 8) {
    return Status::Corruption("record count exceeds remaining data");
  }
  index->RebuildBufferMap(static_cast<size_t>(universe_size));
  // A duplicated buffer element would have had its earlier bit silently
  // overwritten by the map rebuild; detect that instead of resuming with
  // sketches inconsistent with the persisted ones.
  for (size_t bit = 0; bit < index->buffer_elements_.size(); ++bit) {
    if (index->element_to_bit_[index->buffer_elements_[bit]] !=
        static_cast<int32_t>(bit)) {
      return Status::Corruption("duplicate element in buffer universe");
    }
  }

  index->records_.reserve(static_cast<size_t>(num_records));
  index->sketches_.reserve(static_cast<size_t>(num_records));
  uint64_t space_check = 0;
  for (uint64_t i = 0; i < num_records; ++i) {
    Record record;
    GBKMV_RETURN_IF_ERROR(in->GetVecU32(&record));
    if (!IsNormalized(record)) {
      return Status::Corruption("stored record is not sorted/unique");
    }
    Result<GbKmvSketch> sketch = GbKmvSketch::LoadFrom(in);
    if (!sketch.ok()) return sketch.status();
    if (sketch->buffer.num_bits() != index->options_.buffer_bits) {
      return Status::Corruption("sketch bitmap width does not match r");
    }
    space_check += sketch->SpaceUnits(index->options_.buffer_bits);
    index->records_.push_back(std::move(record));
    index->sketches_.push_back(std::move(sketch.value()));
  }
  if (space_check != index->used_units_) {
    return Status::Corruption("stored used units disagree with sketches");
  }
  index->CompactPostings();
  return index;
}

Result<std::unique_ptr<DynamicGbKmvIndex>> DynamicGbKmvIndex::Load(
    const std::string& path) {
  Result<io::SnapshotReader> snapshot = io::SnapshotReader::Open(path);
  if (!snapshot.ok()) return snapshot.status();
  return LoadFrom(*snapshot);
}

// --- FreqSetSearcher ------------------------------------------------------

Status FreqSetSearcher::Save(const std::string& path) const {
  if (dataset_ == nullptr) {
    return Status::FailedPrecondition(
        "mapped freqset searcher cannot save (no dataset attached); copy the "
        "source snapshot file instead");
  }
  io::SnapshotWriter snapshot;
  io::WriteSnapshotMeta(&snapshot, kSnapshotKind, dataset_->Fingerprint());
  dataset_->SaveTo(snapshot.AddSection(io::kSectionDataset));
  io::Writer* out = snapshot.AddSection(io::kSectionIndex);
  // Format version 3: the full posting payload travels in the aligned-array
  // encoding for either backend, so loads deserialize (or map in place)
  // instead of rebuilding. The layout is deterministic, so the bytes are
  // identical to a fresh build anyway.
  index_.SaveToAligned(out);
  return snapshot.WriteTo(path);
}

Result<std::unique_ptr<FreqSetSearcher>> FreqSetSearcher::LoadFrom(
    const io::SnapshotReader& snapshot, const Dataset& dataset) {
  GBKMV_RETURN_IF_ERROR(CheckMeta(snapshot, kSnapshotKind, dataset));
  Result<io::Reader> section = snapshot.Section(io::kSectionIndex);
  if (!section.ok()) return section.status();
  io::Reader* in = &section.value();

  if (snapshot.version() >= 3) {
    Result<InvertedIndex> index =
        InvertedIndex::LoadFromAligned(in, /*borrow=*/false);
    if (!index.ok()) return index.status();
    if (index->num_records() != dataset.size()) {
      return Status::Corruption(
          "freqset snapshot: record count does not match the dataset");
    }
    return std::unique_ptr<FreqSetSearcher>(new FreqSetSearcher(
        &dataset, dataset.size(), std::move(index.value())));
  }

  // Version 1/2: only the compressed arena traveled; the flat backend is a
  // pure function of the dataset and rebuilds on read (what the old writer
  // expected every load to do).
  uint8_t kind = 0;
  GBKMV_RETURN_IF_ERROR(in->GetU8(&kind));
  if (kind == static_cast<uint8_t>(PostingStoreKind::kFlat)) {
    return std::unique_ptr<FreqSetSearcher>(new FreqSetSearcher(
        &dataset, dataset.size(),
        InvertedIndex(dataset, nullptr, PostingStoreKind::kFlat)));
  }
  if (kind != static_cast<uint8_t>(PostingStoreKind::kCompressed)) {
    return Status::Corruption("freqset snapshot: unknown posting-store kind");
  }
  CompressedPostingStore store;
  GBKMV_RETURN_IF_ERROR(store.LoadFrom(in));
  Result<InvertedIndex> index =
      InvertedIndex::FromCompressed(dataset, std::move(store));
  if (!index.ok()) return index.status();
  return std::unique_ptr<FreqSetSearcher>(new FreqSetSearcher(
      &dataset, dataset.size(), std::move(index.value())));
}

Result<std::unique_ptr<FreqSetSearcher>> FreqSetSearcher::LoadMapped(
    const io::SnapshotReader& snapshot) {
  Result<io::SnapshotMeta> meta = io::ReadSnapshotMeta(snapshot);
  if (!meta.ok()) return meta.status();
  if (meta->kind != kSnapshotKind) {
    return Status::InvalidArgument("snapshot holds a '" + meta->kind +
                                   "', expected '" +
                                   std::string(kSnapshotKind) + "'");
  }
  if (snapshot.version() < 3) {
    return Status::FailedPrecondition(
        "freqset snapshot predates v3; use the copying loader");
  }
  Result<io::Reader> section = snapshot.Section(io::kSectionIndex);
  if (!section.ok()) return section.status();
  // Borrow only when the reader itself is a view over caller-owned memory
  // (a mapped snapshot); an owning reader's buffer dies with it, so copy.
  Result<InvertedIndex> index = InvertedIndex::LoadFromAligned(
      &section.value(), /*borrow=*/snapshot.borrowed());
  if (!index.ok()) return index.status();
  const size_t num_records = index->num_records();
  return std::unique_ptr<FreqSetSearcher>(new FreqSetSearcher(
      nullptr, num_records, std::move(index.value())));
}

Result<std::unique_ptr<FreqSetSearcher>> FreqSetSearcher::Load(
    const std::string& path, const Dataset& dataset) {
  Result<io::SnapshotReader> snapshot = io::SnapshotReader::Open(path);
  if (!snapshot.ok()) return snapshot.status();
  return LoadFrom(*snapshot, dataset);
}

// --- LshEnsembleSearcher --------------------------------------------------

Status LshEnsembleSearcher::Save(const std::string& path) const {
  io::SnapshotWriter snapshot;
  io::WriteSnapshotMeta(&snapshot, kSnapshotKind, dataset_.Fingerprint());
  dataset_.SaveTo(snapshot.AddSection(io::kSectionDataset));
  io::Writer* out = snapshot.AddSection(io::kSectionIndex);
  out->PutU64(options_.num_hashes);
  out->PutU64(options_.num_partitions);
  out->PutU64(options_.seed);
  out->PutU64(signatures_.size());
  for (const MinHashSignature& sig : signatures_) sig.SaveTo(out);
  out->PutU64(partitions_.size());
  for (const Partition& part : partitions_) {
    out->PutU64(part.upper_bound);
    out->PutVecU32(part.ids);
  }
  return snapshot.WriteTo(path);
}

Result<std::unique_ptr<LshEnsembleSearcher>> LshEnsembleSearcher::LoadFrom(
    const io::SnapshotReader& snapshot, const Dataset& dataset) {
  GBKMV_RETURN_IF_ERROR(CheckMeta(snapshot, kSnapshotKind, dataset));
  Result<io::Reader> section = snapshot.Section(io::kSectionIndex);
  if (!section.ok()) return section.status();
  io::Reader* in = &section.value();

  LshEnsembleOptions options;
  uint64_t num_hashes = 0;
  uint64_t num_partitions = 0;
  GBKMV_RETURN_IF_ERROR(in->GetU64(&num_hashes));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&num_partitions));
  GBKMV_RETURN_IF_ERROR(in->GetU64(&options.seed));
  options.num_hashes = static_cast<size_t>(num_hashes);
  options.num_partitions = static_cast<size_t>(num_partitions);
  if (options.num_hashes == 0 || options.num_partitions == 0) {
    return Status::Corruption("LSH ensemble snapshot has zero hashes");
  }

  std::unique_ptr<LshEnsembleSearcher> searcher(
      new LshEnsembleSearcher(dataset, options));
  uint64_t num_signatures = 0;
  GBKMV_RETURN_IF_ERROR(in->GetU64(&num_signatures));
  if (num_signatures != dataset.size()) {
    return Status::Corruption("signature count does not match dataset size");
  }
  searcher->signatures_.reserve(dataset.size());
  for (uint64_t i = 0; i < num_signatures; ++i) {
    Result<MinHashSignature> sig = MinHashSignature::LoadFrom(in);
    if (!sig.ok()) return sig.status();
    if (sig->size() != options.num_hashes) {
      return Status::Corruption("signature size does not match num_hashes");
    }
    searcher->signatures_.push_back(std::move(sig.value()));
  }

  uint64_t part_count = 0;
  GBKMV_RETURN_IF_ERROR(in->GetU64(&part_count));
  const std::vector<size_t> rows = DefaultRowChoices(options.num_hashes);
  std::vector<bool> assigned(dataset.size(), false);
  size_t assigned_count = 0;
  for (uint64_t p = 0; p < part_count; ++p) {
    Partition part;
    uint64_t upper_bound = 0;
    GBKMV_RETURN_IF_ERROR(in->GetU64(&upper_bound));
    GBKMV_RETURN_IF_ERROR(in->GetVecU32(&part.ids));
    part.upper_bound = static_cast<size_t>(upper_bound);
    std::vector<MinHashSignature> sigs;
    sigs.reserve(part.ids.size());
    size_t max_member_size = 0;
    for (RecordId id : part.ids) {
      if (id >= searcher->signatures_.size()) {
        return Status::Corruption("partition references unknown record id");
      }
      if (assigned[id]) {
        return Status::Corruption("record assigned to two partitions");
      }
      assigned[id] = true;
      ++assigned_count;
      max_member_size = std::max(max_member_size, dataset.record(id).size());
      sigs.push_back(searcher->signatures_[id]);
    }
    // A wrong upper bound silently breaks the per-partition threshold
    // transformation (Eq. 13) and drops candidates; it is fully determined
    // by the members, so verify rather than trust.
    if (part.upper_bound != max_member_size) {
      return Status::Corruption("partition upper bound does not match its "
                                "members");
    }
    part.index = std::make_unique<MinHashLshIndex>(sigs, part.ids,
                                                   options.num_hashes, rows);
    searcher->partitions_.push_back(std::move(part));
  }
  if (assigned_count != dataset.size()) {
    return Status::Corruption("partitions do not cover every record");
  }
  return searcher;
}

Result<std::unique_ptr<LshEnsembleSearcher>> LshEnsembleSearcher::Load(
    const std::string& path, const Dataset& dataset) {
  Result<io::SnapshotReader> snapshot = io::SnapshotReader::Open(path);
  if (!snapshot.ok()) return snapshot.status();
  return LoadFrom(*snapshot, dataset);
}

}  // namespace gbkmv
