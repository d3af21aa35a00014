#include "index/gbkmv_index.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "sketch/parallel_build.h"
#include "storage/query_context.h"

namespace gbkmv {

Result<GbKmvSketcher> GbKmvIndexSearcher::MakeSketcher(
    const Dataset& dataset, const GbKmvIndexOptions& options) {
  if (dataset.empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  uint64_t budget = options.budget_units;
  if (budget == 0) {
    if (options.space_ratio <= 0.0) {
      return Status::InvalidArgument("space_ratio must be positive");
    }
    budget = static_cast<uint64_t>(
        options.space_ratio * static_cast<double>(dataset.total_elements()));
  }
  if (budget == 0) {
    return Status::InvalidArgument("budget resolves to zero units");
  }
  size_t buffer_bits = options.buffer_bits;
  if (buffer_bits == GbKmvIndexOptions::kAutoBuffer) {
    buffer_bits = ChooseBufferSize(dataset, budget, options.cost_model);
  }
  GbKmvOptions sk_options;
  sk_options.budget_units = budget;
  sk_options.buffer_bits = buffer_bits;
  sk_options.seed = options.seed;
  return GbKmvSketcher::Create(dataset, sk_options);
}

Result<std::unique_ptr<GbKmvIndexSearcher>> GbKmvIndexSearcher::Create(
    const Dataset& dataset, const GbKmvIndexOptions& options) {
  Result<GbKmvSketcher> sketcher = MakeSketcher(dataset, options);
  if (!sketcher.ok()) return sketcher.status();
  return CreateWithSketcher(
      dataset, std::make_shared<const GbKmvSketcher>(std::move(*sketcher)),
      options.num_threads);
}

Result<std::unique_ptr<GbKmvIndexSearcher>>
GbKmvIndexSearcher::CreateWithSketcher(
    const Dataset& dataset, std::shared_ptr<const GbKmvSketcher> sketcher,
    size_t num_threads) {
  if (dataset.empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  std::unique_ptr<GbKmvIndexSearcher> s(new GbKmvIndexSearcher(&dataset));
  const size_t buffer_bits = sketcher->buffer_bits();
  s->chosen_buffer_bits_ = buffer_bits;
  s->sketcher_ = std::move(sketcher);

  // Every record is sketched straight into the flat store: its bitmap into
  // its own pre-sized slot, its hash count into offsets[i + 1] (turned into
  // row starts by the prefix sum below), its hashes into the store (serial)
  // or into its chunk's vector. Chunks are concatenated in chunk order,
  // which is record order, so the bytes are the same for any thread count.
  const GbKmvSketcher& sketcher_ref = *s->sketcher_;
  const size_t m = dataset.size();
  const size_t words = (buffer_bits + 63) / 64;
  s->words_per_record_ = words;
  s->sketch_threshold_ = sketcher_ref.global_threshold();
  s->owned_record_sizes_.resize(m);
  s->owned_buffer_words_.assign(m * words, 0);
  s->owned_hash_offsets_.assign(m + 1, 0);
  const auto sketch_rows = [&](size_t begin, size_t end,
                               std::vector<uint64_t>* hashes) {
    for (size_t i = begin; i < end; ++i) {
      const Record& record = dataset.record(i);
      uint64_t* slot = s->owned_buffer_words_.data() + i * words;
      const size_t before = hashes->size();
      sketcher_ref.SketchInto(
          record,
          [slot](size_t bit) { slot[bit >> 6] |= uint64_t{1} << (bit & 63); },
          hashes);
      s->owned_record_sizes_[i] = static_cast<uint32_t>(record.size());
      s->owned_hash_offsets_[i + 1] = hashes->size() - before;
    }
  };
  const std::unique_ptr<ThreadPool> pool = MakeBuildPool(num_threads, m);
  if (pool == nullptr) {
    sketch_rows(0, m, &s->owned_hashes_);
  } else {
    const size_t grain = std::max<size_t>(1, m / (8 * pool->num_threads()));
    std::vector<std::vector<uint64_t>> chunk_hashes((m + grain - 1) / grain);
    pool->ParallelFor(0, m, grain,
                      [&](size_t begin, size_t end, size_t chunk) {
                        sketch_rows(begin, end, &chunk_hashes[chunk]);
                      });
    size_t total = 0;
    for (const std::vector<uint64_t>& part : chunk_hashes) total += part.size();
    s->owned_hashes_.reserve(total);
    for (const std::vector<uint64_t>& part : chunk_hashes) {
      s->owned_hashes_.insert(s->owned_hashes_.end(), part.begin(), part.end());
    }
  }
  for (size_t i = 0; i < m; ++i) {
    s->owned_hash_offsets_[i + 1] += s->owned_hash_offsets_[i];
  }
  s->space_units_ = uint64_t{m} * ((buffer_bits + 31) / 32) +
                    s->owned_hashes_.size();
  s->AliasOwnedStore();
  s->BuildQueryStructures();
  return s;
}

Result<std::unique_ptr<GbKmvIndexSearcher>> GbKmvIndexSearcher::Merge(
    std::span<const MergeSource> sources, const Dataset& dataset) {
  if (sources.empty()) {
    return Status::InvalidArgument("merge needs at least one source");
  }
  for (const MergeSource& src : sources) {
    if (src.searcher == nullptr) {
      return Status::InvalidArgument("null merge source");
    }
    // An empty mask means "no tombstones" (callers size masks lazily).
    if (src.deleted != nullptr && !src.deleted->empty() &&
        src.deleted->size() != src.searcher->num_records()) {
      return Status::InvalidArgument(
          "tombstone mask size disagrees with its shard");
    }
  }
  const GbKmvIndexSearcher& first = *sources[0].searcher;
  size_t survivors = 0;
  size_t total_hashes = 0;
  for (const MergeSource& src : sources) {
    const GbKmvIndexSearcher& s = *src.searcher;
    if (s.chosen_buffer_bits_ != first.chosen_buffer_bits_ ||
        s.words_per_record_ != first.words_per_record_ ||
        s.sketch_threshold_ != first.sketch_threshold_) {
      return Status::InvalidArgument(
          "merge sources disagree on sketcher parameters");
    }
    for (size_t i = 0; i < s.num_records(); ++i) {
      if (src.deleted != nullptr && i < src.deleted->size() &&
          (*src.deleted)[i] != 0) {
        continue;
      }
      ++survivors;
      total_hashes += s.HashesOf(static_cast<RecordId>(i)).size();
    }
  }
  if (survivors == 0) {
    return Status::InvalidArgument("every merge row is tombstoned");
  }
  if (dataset.size() != survivors) {
    return Status::InvalidArgument(
        "survivor dataset size disagrees with the merge sources");
  }

  std::unique_ptr<GbKmvIndexSearcher> merged(
      new GbKmvIndexSearcher(&dataset));
  merged->chosen_buffer_bits_ = first.chosen_buffer_bits_;
  merged->sketcher_ = first.sketcher_;
  merged->words_per_record_ = first.words_per_record_;
  merged->sketch_threshold_ = first.sketch_threshold_;
  merged->owned_record_sizes_.reserve(survivors);
  merged->owned_buffer_words_.reserve(survivors * first.words_per_record_);
  merged->owned_hash_offsets_.reserve(survivors + 1);
  merged->owned_hash_offsets_.push_back(0);
  merged->owned_hashes_.reserve(total_hashes);
  const uint64_t buffer_units = (first.chosen_buffer_bits_ + 31) / 32;
  for (const MergeSource& src : sources) {
    const GbKmvIndexSearcher& s = *src.searcher;
    for (size_t i = 0; i < s.num_records(); ++i) {
      if (src.deleted != nullptr && i < src.deleted->size() &&
          (*src.deleted)[i] != 0) {
        continue;
      }
      const RecordId id = static_cast<RecordId>(i);
      const size_t row = merged->owned_record_sizes_.size();
      if (dataset.record(row).size() != s.record_sizes_[id]) {
        return Status::InvalidArgument(
            "survivor dataset rows disagree with the merge sources");
      }
      merged->owned_record_sizes_.push_back(s.record_sizes_[id]);
      const std::span<const uint64_t> words = s.BufferWordsOf(id);
      merged->owned_buffer_words_.insert(merged->owned_buffer_words_.end(),
                                         words.begin(), words.end());
      const std::span<const uint64_t> values = s.HashesOf(id);
      merged->owned_hashes_.insert(merged->owned_hashes_.end(),
                                   values.begin(), values.end());
      merged->owned_hash_offsets_.push_back(merged->owned_hashes_.size());
      merged->space_units_ += buffer_units + values.size();
    }
  }
  merged->AliasOwnedStore();
  merged->BuildQueryStructures();
  return merged;
}

bool GbKmvIndexSearcher::ShareSketcher(
    std::shared_ptr<const GbKmvSketcher> sketcher) {
  if (!sketcher_->SameParameters(*sketcher)) return false;
  sketcher_ = std::move(sketcher);
  return true;
}

Status GbKmvIndexSearcher::AdoptSketches(
    const std::vector<GbKmvSketch>& sketches) {
  const size_t m = sketches.size();
  words_per_record_ = (chosen_buffer_bits_ + 63) / 64;
  sketch_threshold_ = sketcher_->global_threshold();
  owned_buffer_words_.clear();
  owned_buffer_words_.reserve(m * words_per_record_);
  owned_hash_offsets_.assign(1, 0);
  owned_hash_offsets_.reserve(m + 1);
  owned_hashes_.clear();
  for (const GbKmvSketch& sketch : sketches) {
    const std::span<const uint64_t> words = sketch.buffer.words();
    GBKMV_CHECK(words.size() == words_per_record_);
    owned_buffer_words_.insert(owned_buffer_words_.end(), words.begin(),
                               words.end());
    // The flat store keeps ONE threshold; a stored sketch disagreeing with
    // the sketcher it travels with could not have been built by it.
    if (sketch.gkmv.threshold() != sketch_threshold_) {
      return Status::Corruption(
          "sketch threshold disagrees with the sketcher");
    }
    const std::vector<uint64_t>& values = sketch.gkmv.values();
    owned_hashes_.insert(owned_hashes_.end(), values.begin(), values.end());
    owned_hash_offsets_.push_back(owned_hashes_.size());
  }
  AliasOwnedStore();
  return Status::OK();
}

void GbKmvIndexSearcher::AliasOwnedStore() {
  record_sizes_ = std::span<const uint32_t>(owned_record_sizes_);
  buffer_words_ = std::span<const uint64_t>(owned_buffer_words_);
  hash_offsets_ = std::span<const uint64_t>(owned_hash_offsets_);
  hashes_ = std::span<const uint64_t>(owned_hashes_);
}

void GbKmvIndexSearcher::BuildQueryStructures(bool rebuild_postings) {
  const size_t m = num_records();
  if (rebuild_postings) {
    // Enumerating in record order makes the flat layout a pure function of
    // the sketches — byte-identical for any build thread count.
    hash_postings_ = FlatHashPostings::Build([this, m](const auto& fn) {
      for (size_t i = 0; i < m; ++i) {
        for (uint64_t h : HashesOf(static_cast<RecordId>(i))) {
          fn(h, static_cast<RecordId>(i));
        }
      }
    });
  }
  // Buffer popcount order: a stable counting sort over the popcount
  // buckets, O(m + r). A bitmap of words_per_record_ words holds at most
  // that many * 64 bits, which bounds the buckets even for a mapped store.
  // Records with an empty buffer (bucket 0) are left out.
  auto popcount_of = [this](RecordId id) {
    uint32_t n = 0;
    for (uint64_t w : BufferWordsOf(id)) n += std::popcount(w);
    return n;
  };
  // next[c] is the first slot of popcount c (after the prefix sum below).
  std::vector<size_t> next(words_per_record_ * 64 + 2, 0);
  for (RecordId id = 0; id < m; ++id) ++next[popcount_of(id) + 1];
  for (size_t c = 1; c < next.size(); ++c) next[c] += next[c - 1];
  const size_t unbuffered = next[1];
  buffered_by_popcount_.resize(m - unbuffered);
  buffered_popcounts_.resize(m - unbuffered);
  for (RecordId id = 0; id < m; ++id) {
    const uint32_t c = popcount_of(id);
    if (c == 0) continue;
    const size_t slot = next[c]++ - unbuffered;
    buffered_by_popcount_[slot] = id;
    buffered_popcounts_[slot] = c;
  }
}

QueryResponse GbKmvIndexSearcher::SearchQ(const QueryRequest& request,
                                          QueryContext& ctx) const {
  QueryResponse response;
  const Record& query = *request.record;
  if (query.empty()) return response;
  const size_t q = query.size();
  const double theta = request.threshold * static_cast<double>(q);
  const double inv_q = 1.0 / static_cast<double>(q);
  // Partition lower bound: |X| >= ⌈θ⌉ is necessary for |Q∩X| >= θ.
  const uint32_t min_size =
      static_cast<uint32_t>(std::ceil(theta - 1e-9));

  // Stage timers record into the thread-local span sink installed around a
  // traced shard search, and cost a thread-local load otherwise
  // (obs/trace.h). They never touch the response.
  obs::StageTimer sketch_timer(obs::Stage::kSketch);
  const GbKmvSketch query_sketch = sketcher_->Sketch(query);
  sketch_timer.Stop();
  const std::vector<uint64_t>& q_hashes = query_sketch.gkmv.values();
  const size_t q_sketch_size = q_hashes.size();
  const uint64_t q_max = q_hashes.empty() ? 0 : q_hashes.back();

  HitCollector collector(request, ctx, &response);

  // ScanCount over the sketch-hash inverted index -> exact K∩ per record.
  // K∩ <= |L_Q|, so the guard-free bump applies for any realistic sketch.
  obs::StageTimer scan_timer(obs::Stage::kScan);
  ctx.Begin(num_records());
  if (q_sketch_size < QueryContext::kSaturated) {
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
  scan_timer.Stop();

  obs::StageTimer refine_timer(obs::Stage::kRefine);
  const bool query_buffer_empty = query_sketch.buffer.Empty();
  const std::span<const uint64_t> q_words = query_sketch.buffer.words();
  auto score = [&](RecordId id, size_t k_intersect) -> double {
    const size_t o1 =
        query_buffer_empty
            ? 0
            : Bitmap::IntersectCountWords(q_words, BufferWordsOf(id));
    const std::span<const uint64_t> x_hashes = HashesOf(id);
    const uint64_t x_max = x_hashes.empty() ? 0 : x_hashes.back();
    const double d_hat = GkmvEstimateFromCounts(
        k_intersect, q_sketch_size, x_hashes.size(), q_max, x_max,
        sketch_threshold_);
    // The true intersection cannot exceed either set size; both are known
    // exactly, so clamp the noisy sketch estimate (cuts false positives at
    // high thresholds without affecting recall).
    const double cap = static_cast<double>(
        std::min<size_t>(q, record_sizes_[id]));
    return std::min(static_cast<double>(o1) + d_hat, cap);
  };

  if (min_size == 0) {
    // θ ≈ 0: estimates are never negative, so every record qualifies, as in
    // every exact method. Each is scored by its estimate — 0 for a record
    // sharing neither a sketch hash nor a buffer bit with the query.
    for (size_t i = 0; i < num_records(); ++i) {
      const RecordId id = static_cast<RecordId>(i);
      collector.Add(id, score(id, ctx.CountOf(id)) * inv_q);
    }
    response.stats.candidates_generated += num_records();
    collector.Finish();
    refine_timer.Stop();
    return response;
  }

  // Records with sketch-hash overlap. Stats are batch-counted (touched
  // minus pruned) — a per-candidate increment in this loop is measurable.
  size_t size_pruned = 0;
  for (RecordId id : ctx.touched()) {
    const size_t k_intersect = ctx.CountOf(id);
    if (record_sizes_[id] < min_size) {
      ++size_pruned;
      continue;
    }
    const double estimate = score(id, k_intersect);
    if (estimate >= theta - 1e-9) collector.Add(id, estimate * inv_q);
  }
  response.stats.candidates_generated += ctx.touched().size() - size_pruned;

  // Records that can qualify on the buffer alone (K∩ = 0) score exactly
  // o1 = |H_Q ∩ H_X| and need o1 >= min_size; o1 <= min(|H_Q|, |H_X|), so
  // the pass runs only when |H_Q| reaches min_size, and then over the suffix
  // of the popcount order whose |H_X| does. Touched records are skipped —
  // they were fully scored above, and their score is >= o1, so any
  // buffer-only qualifier among them is already collected.
  if (query_sketch.buffer.Count() >= min_size) {
    const auto begin_it = std::lower_bound(
        buffered_popcounts_.begin(), buffered_popcounts_.end(), min_size);
    const size_t begin_pos =
        static_cast<size_t>(begin_it - buffered_popcounts_.begin());
    size_t skipped = 0;  // already scored through the hash postings
    for (size_t pos = begin_pos; pos < buffered_by_popcount_.size(); ++pos) {
      const RecordId id = buffered_by_popcount_[pos];
      if (ctx.CountOf(id) > 0) {
        ++skipped;
        continue;
      }
      const size_t o1 =
          Bitmap::IntersectCountWords(q_words, BufferWordsOf(id));
      if (o1 >= min_size) collector.Add(id, static_cast<double>(o1) * inv_q);
    }
    // The buffer pass reads stored bitmaps, not postings; count one index
    // entry per examined record so the work is visible in the stats
    // (batch-counted: the per-record increments cost in this loop).
    const size_t examined =
        buffered_by_popcount_.size() - begin_pos - skipped;
    response.stats.candidates_generated += examined;
    response.stats.postings_scanned += examined;
  }

  collector.Finish();
  refine_timer.Stop();
  return response;
}

double GbKmvIndexSearcher::EstimateContainment(const Record& query,
                                               RecordId id) const {
  if (query.empty()) return 0.0;
  const GbKmvSketch query_sketch = sketcher_->Sketch(query);
  // Cold path (tests / diagnostics): reassemble the record's sketch from
  // its flat-store slices and run the full pair estimator.
  const std::span<const uint64_t> words = BufferWordsOf(id);
  const std::span<const uint64_t> values = HashesOf(id);
  GbKmvSketch x;
  x.buffer = Bitmap::FromWords(
      chosen_buffer_bits_,
      std::vector<uint64_t>(words.begin(), words.end()));
  x.gkmv = GkmvSketch::FromParts(
      std::vector<uint64_t>(values.begin(), values.end()), sketch_threshold_);
  const double raw =
      GbKmvSketcher::EstimatePair(query_sketch, x).intersection_size;
  const double cap =
      static_cast<double>(std::min<size_t>(query.size(), record_sizes_[id]));
  return std::min(raw, cap) / static_cast<double>(query.size());
}

Result<std::unique_ptr<KmvSearcher>> KmvSearcher::Create(const Dataset& dataset,
                                                         double space_ratio,
                                                         uint64_t seed,
                                                         size_t num_threads) {
  if (dataset.empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (space_ratio <= 0.0) {
    return Status::InvalidArgument("space_ratio must be positive");
  }
  std::unique_ptr<KmvSearcher> s(new KmvSearcher(dataset));
  const uint64_t budget = static_cast<uint64_t>(
      space_ratio * static_cast<double>(dataset.total_elements()));
  s->k_ = std::max<size_t>(1, budget / dataset.size());  // Theorem 1: ⌊b/m⌋
  s->seed_ = seed;
  const std::unique_ptr<ThreadPool> pool =
      MakeBuildPool(num_threads, dataset.size());
  s->sketches_ = BuildKmvSketchesParallel(dataset, s->k_, seed, pool.get());
  s->record_sizes_.reserve(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    s->space_units_ += s->sketches_[i].SpaceUnits();
    s->record_sizes_.push_back(static_cast<uint32_t>(dataset.record(i).size()));
  }
  return s;
}

QueryResponse KmvSearcher::SearchQ(const QueryRequest& request,
                                   QueryContext& ctx) const {
  QueryResponse response;
  const Record& query = *request.record;
  if (query.empty()) return response;
  const size_t q = query.size();
  const double theta = request.threshold * static_cast<double>(q);
  const double inv_q = 1.0 / static_cast<double>(q);
  const uint32_t min_size = static_cast<uint32_t>(std::ceil(theta - 1e-9));
  const KmvSketch query_sketch = KmvSketch::Build(query, k_, seed_);
  HitCollector collector(request, ctx, &response);
  for (size_t i = 0; i < sketches_.size(); ++i) {
    if (record_sizes_[i] < min_size) continue;
    ++response.stats.candidates_generated;
    // "Postings" of the pairwise estimators: stored sketch values merged.
    response.stats.postings_scanned +=
        query_sketch.size() + sketches_[i].size();
    const KmvPairEstimate est = EstimateKmvPair(query_sketch, sketches_[i]);
    const double cap =
        static_cast<double>(std::min<uint32_t>(q, record_sizes_[i]));
    const double estimate = std::min(est.intersection_size, cap);
    if (estimate >= theta - 1e-9) {
      collector.Add(static_cast<RecordId>(i), estimate * inv_q);
    }
  }
  collector.Finish();
  return response;
}

}  // namespace gbkmv
