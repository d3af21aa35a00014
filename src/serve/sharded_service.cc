#include "serve/sharded_service.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/timer.h"
#include "index/brute_force.h"
#include "index/dynamic_index.h"
#include "index/freqset.h"
#include "index/gbkmv_index.h"
#include "index/minhash_lsh.h"
#include "index/ppjoin.h"
#include "index/searcher_registry.h"
#include "io/mmap_snapshot.h"
#include "io/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/merge.h"
#include "serve/partitioner.h"

namespace gbkmv {
namespace serve {

namespace {

// Serving-layer metrics (docs/observability.md). Everything here is
// passive: timestamps and counter bumps around the existing control flow,
// never inside it, so responses stay bit-identical with metrics or tracing
// in any state.
struct ServeMetrics {
  obs::Counter* queries = nullptr;
  obs::Counter* batches = nullptr;
  obs::Histogram* latency_ns = nullptr;
  obs::Histogram* shard_search_ns = nullptr;
  obs::Histogram* fanout_width = nullptr;
  obs::Counter* ingests = nullptr;
  obs::Counter* deletes = nullptr;
  obs::Counter* tombstones_purged = nullptr;
  obs::Counter* promotions = nullptr;
  obs::Counter* compactions = nullptr;
  obs::Histogram* compaction_ns = nullptr;
  obs::Counter* shard_activations = nullptr;
  obs::Counter* shard_evictions = nullptr;
  obs::Gauge* resident_shards = nullptr;
  obs::Gauge* resident_shard_bytes = nullptr;
};

const ServeMetrics& Metrics() {
  static const ServeMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::GlobalMetrics();
    ServeMetrics m;
    m.queries = registry.GetCounter("gbkmv_serve_queries_total");
    m.batches = registry.GetCounter("gbkmv_serve_batches_total");
    m.latency_ns = registry.GetHistogram("gbkmv_serve_latency_ns");
    m.shard_search_ns =
        registry.GetHistogram("gbkmv_serve_shard_search_ns");
    m.fanout_width = registry.GetHistogram("gbkmv_serve_fanout_width");
    m.ingests = registry.GetCounter("gbkmv_serve_ingests_total");
    m.deletes = registry.GetCounter("gbkmv_serve_deletes_total");
    m.tombstones_purged =
        registry.GetCounter("gbkmv_serve_tombstones_purged_total");
    m.promotions = registry.GetCounter("gbkmv_serve_promotions_total");
    m.compactions = registry.GetCounter("gbkmv_serve_compactions_total");
    m.compaction_ns = registry.GetHistogram("gbkmv_serve_compaction_ns");
    m.shard_activations =
        registry.GetCounter("gbkmv_serve_shard_activations_total");
    m.shard_evictions =
        registry.GetCounter("gbkmv_serve_shard_evictions_total");
    m.resident_shards = registry.GetGauge("gbkmv_serve_resident_shards");
    m.resident_shard_bytes =
        registry.GetGauge("gbkmv_serve_resident_shard_bytes");
    return m;
  }();
  return metrics;
}

// Canonical parser-accepted spelling per method (core/containment.h), the
// form the manifest stores so a newer binary can still parse it.
const char* MethodToken(SearchMethod method) {
  switch (method) {
    case SearchMethod::kGbKmv: return "gb-kmv";
    case SearchMethod::kGKmv: return "g-kmv";
    case SearchMethod::kKmv: return "kmv";
    case SearchMethod::kLshEnsemble: return "lsh-e";
    case SearchMethod::kMinHashLsh: return "minhash-lsh";
    case SearchMethod::kAsymmetricMinHash: return "a-mh";
    case SearchMethod::kPPJoin: return "ppjoin";
    case SearchMethod::kFreqSet: return "freqset";
    case SearchMethod::kBruteForce: return "brute-force";
  }
  return "gb-kmv";
}

bool MethodSupportsSharding(SearchMethod method) {
  switch (method) {
    case SearchMethod::kGbKmv:
    case SearchMethod::kGKmv:
    case SearchMethod::kFreqSet:
    case SearchMethod::kPPJoin:
    case SearchMethod::kBruteForce:
    case SearchMethod::kMinHashLsh:
      return true;
    // Per-record state these methods derive from the dataset cannot be
    // pinned globally yet: KMV's Theorem-1 sketch size ⌊b/m⌋, LSH-E's
    // equal-depth partition boundaries, A-MH's padding width.
    case SearchMethod::kKmv:
    case SearchMethod::kLshEnsemble:
    case SearchMethod::kAsymmetricMinHash:
      return false;
  }
  return false;
}

std::string ShardFileName(size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%03zu.snap", index);
  return buf;
}

// Persists a shard whose authoritative bytes already live in `from` (an
// inactive or mapped shard) by copying the snapshot file. Saving a service
// into the directory it was loaded from degenerates to a no-op.
Status CopySnapshotFile(const std::string& from, const std::string& to) {
  std::error_code ec;
  if (std::filesystem::equivalent(from, to, ec)) return Status::OK();
  ec.clear();
  std::filesystem::copy_file(
      from, to, std::filesystem::copy_options::overwrite_existing, ec);
  if (ec) {
    return Status::IOError("cannot copy shard snapshot " + from + " to " +
                           to + ": " + ec.message());
  }
  return Status::OK();
}

// Reads the embedded dataset back out of a shard snapshot (a mapped or
// evicted shard's resident payload has no Dataset to reuse).
Result<Dataset> LoadDatasetFromSnapshotFile(const std::string& path) {
  Result<std::string> kind = ReadSearcherSnapshotKind(path);
  if (!kind.ok()) return kind.status();
  if (*kind == "dataset") return Dataset::Load(path);
  Result<io::SnapshotReader> snapshot = io::SnapshotReader::Open(path);
  if (!snapshot.ok()) return snapshot.status();
  Result<io::Reader> section = snapshot->Section(io::kSectionDataset);
  if (!section.ok()) return section.status();
  return Dataset::LoadFrom(&section.value());
}

// Manifest v1/v2 only: the rows of a saved ingest shard (a
// DynamicGbKmvIndex snapshot), in insertion order — which is global-id
// order.
Result<std::vector<Record>> LoadLegacyIngestRows(const std::string& path) {
  Result<std::unique_ptr<DynamicGbKmvIndex>> index =
      DynamicGbKmvIndex::Load(path);
  if (!index.ok()) return index.status();
  std::vector<Record> rows;
  rows.reserve((*index)->size());
  for (size_t i = 0; i < (*index)->size(); ++i) {
    const Record& row = (*index)->record(static_cast<RecordId>(i));
    if (row.empty() || !IsNormalized(row)) {
      return Status::Corruption("legacy ingest shard holds an invalid record");
    }
    rows.push_back(row);
  }
  return rows;
}

}  // namespace

Result<std::unique_ptr<ShardedContainmentService>>
ShardedContainmentService::Build(const Dataset& dataset,
                                 const SearcherConfig& config) {
  if (dataset.empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (!MethodSupportsSharding(config.method)) {
    return Status::InvalidArgument(
        std::string("method '") + MethodToken(config.method) +
        "' derives per-record parameters from the whole dataset and is not "
        "supported by the sharded service (docs/sharding.md)");
  }

  std::unique_ptr<ShardedContainmentService> service(
      new ShardedContainmentService(config));
  service->next_global_id_ = static_cast<RecordId>(dataset.size());
  const size_t num_shards = std::max<size_t>(1, config.sharded.num_shards);

  if (config.method == SearchMethod::kGbKmv ||
      config.method == SearchMethod::kGKmv) {
    GbKmvIndexOptions options;
    options.space_ratio = config.space_ratio;
    options.buffer_bits = config.method == SearchMethod::kGKmv
                              ? 0
                              : config.buffer_bits;
    options.seed = config.seed;
    Result<GbKmvSketcher> sketcher =
        GbKmvIndexSearcher::MakeSketcher(dataset, options);
    if (!sketcher.ok()) return sketcher.status();
    service->global_sketcher_ =
        std::make_unique<GbKmvSketcher>(std::move(sketcher.value()));
  }
  if (config.method == SearchMethod::kMinHashLsh) {
    for (const Record& r : dataset.records()) {
      service->minhash_size_hint_ =
          std::max(service->minhash_size_hint_, r.size());
    }
  }

  const std::vector<std::vector<RecordId>> partition =
      PartitionDataset(dataset, num_shards, config.sharded.partitioner);

  // One build task per shard; shard-level parallelism via the shared pool,
  // inner builds serial (the per-shard result is byte-identical for any
  // split of the parallelism, docs/parallelism.md).
  const size_t threads =
      config.num_threads == 0 ? DefaultThreads() : config.num_threads;
  std::vector<Shard> shards(partition.size());
  std::vector<Status> statuses(partition.size());
  const auto build_shard = [&](size_t k, size_t inner_threads) {
    std::vector<Record> records;
    records.reserve(partition[k].size());
    for (RecordId id : partition[k]) records.push_back(dataset.record(id));
    Result<std::shared_ptr<ActiveShard>> active = service->BuildShard(
        std::move(records), dataset.name() + "/shard-" + std::to_string(k),
        inner_threads);
    if (!active.ok()) {
      statuses[k] = active.status();
      return;
    }
    shards[k].active = std::move(active.value());
    shards[k].global_ids = partition[k];
  };
  if (partition.size() > 1 && threads > 1) {
    ThreadPool pool(std::min(threads, partition.size()));
    std::vector<std::future<void>> futures;
    futures.reserve(partition.size());
    for (size_t k = 0; k < partition.size(); ++k) {
      futures.push_back(pool.Submit([&build_shard, k] { build_shard(k, 1); }));
    }
    for (std::future<void>& f : futures) f.get();
  } else {
    for (size_t k = 0; k < partition.size(); ++k) {
      build_shard(k, config.num_threads);
    }
  }
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }

  service->shards_ = std::move(shards);
  service->base_shard_count_ = service->shards_.size();
  return service;
}

ShardedContainmentService::~ShardedContainmentService() {
  (void)WaitForBackgroundWork();
}

Result<std::unique_ptr<ContainmentSearcher>>
ShardedContainmentService::BuildShardSearcher(const Dataset& shard_dataset,
                                              size_t num_threads) const {
  switch (config_.method) {
    case SearchMethod::kGbKmv:
    case SearchMethod::kGKmv: {
      Result<std::unique_ptr<GbKmvIndexSearcher>> s =
          GbKmvIndexSearcher::CreateWithSketcher(shard_dataset,
                                                 *global_sketcher_,
                                                 num_threads);
      if (!s.ok()) return s.status();
      return std::unique_ptr<ContainmentSearcher>(std::move(s.value()));
    }
    case SearchMethod::kFreqSet: {
      const std::unique_ptr<ThreadPool> pool =
          MakeBuildPool(num_threads, shard_dataset.size());
      return std::unique_ptr<ContainmentSearcher>(
          std::make_unique<FreqSetSearcher>(shard_dataset, pool.get()));
    }
    case SearchMethod::kPPJoin: {
      const std::unique_ptr<ThreadPool> pool =
          MakeBuildPool(num_threads, shard_dataset.size());
      return std::unique_ptr<ContainmentSearcher>(
          std::make_unique<PPJoinSearcher>(shard_dataset, pool.get()));
    }
    case SearchMethod::kBruteForce:
      return std::unique_ptr<ContainmentSearcher>(
          std::make_unique<BruteForceSearcher>(shard_dataset));
    case SearchMethod::kMinHashLsh: {
      MinHashLshOptions options;
      options.num_hashes = config_.lshe_num_hashes;
      options.seed = config_.seed;
      options.num_threads = num_threads;
      options.max_record_size_hint = minhash_size_hint_;
      Result<std::unique_ptr<MinHashLshSearcher>> s =
          MinHashLshSearcher::Create(shard_dataset, options);
      if (!s.ok()) return s.status();
      return std::unique_ptr<ContainmentSearcher>(std::move(s.value()));
    }
    default:
      return Status::InvalidArgument("method not supported by the sharded "
                                     "service");
  }
}

Result<std::shared_ptr<ShardedContainmentService::ActiveShard>>
ShardedContainmentService::BuildShard(
    std::vector<Record> records, std::string name, size_t num_threads,
    std::span<const MergeInput> sources) const {
  // Rows come from validated datasets or from MakeRecord; skip the
  // per-element re-validation.
  Result<Dataset> dataset =
      Dataset::CreateFromNormalized(std::move(records), std::move(name));
  if (!dataset.ok()) return dataset.status();
  auto active = std::make_shared<ActiveShard>();
  active->dataset = std::make_unique<Dataset>(std::move(dataset.value()));
  // GB-KMV/G-KMV sources merge at the index level: their flat rows are
  // concatenated under the pinned sketcher, so nothing is re-sketched and
  // the union's frequency tables are never derived.
  std::vector<GbKmvIndexSearcher::MergeSource> flat;
  for (const MergeInput& source : sources) {
    const auto* searcher = dynamic_cast<const GbKmvIndexSearcher*>(
        source.active->searcher.get());
    if (searcher == nullptr) {
      flat.clear();
      break;
    }
    flat.push_back({searcher, source.deleted});
  }
  if (!flat.empty()) {
    Result<std::unique_ptr<GbKmvIndexSearcher>> merged =
        GbKmvIndexSearcher::Merge(flat, *active->dataset);
    if (!merged.ok()) return merged.status();
    active->searcher = std::move(merged.value());
    return active;
  }
  Result<std::unique_ptr<ContainmentSearcher>> searcher =
      BuildShardSearcher(*active->dataset, num_threads);
  if (!searcher.ok()) return searcher.status();
  active->searcher = std::move(searcher.value());
  return active;
}

Result<const Dataset*> ShardedContainmentService::ShardRows(
    const Shard& shard, const ActiveShard& active,
    std::unique_ptr<Dataset>* reread) {
  const Dataset* dataset = active.dataset.get();
  if (dataset == nullptr) {
    Result<Dataset> loaded = LoadDatasetFromSnapshotFile(shard.snapshot_path);
    if (!loaded.ok()) return loaded.status();
    *reread = std::make_unique<Dataset>(std::move(loaded.value()));
    dataset = reread->get();
  }
  if (dataset->size() != shard.global_ids.size()) {
    return Status::Corruption("shard dataset size disagrees with its "
                              "global-id map");
  }
  return dataset;
}

QueryResponse ShardedContainmentService::Serve(const QueryRequest& request,
                                               size_t num_threads) {
  return BatchServe(std::span<const QueryRequest>(&request, 1),
                    num_threads)[0];
}

namespace {

// Post-pass over the timestamps BatchServe captured: per-query serve
// latency samples, plus (when tracing) one assembled QueryTrace per
// sampled or slow query. `origin` carries BatchServe's Origin enum as raw
// bytes (0 = cache hit, 1 = computed, 2 = duplicate).
void RecordServeObservations(
    std::span<const QueryRequest> requests,
    const std::vector<QueryResponse>& results,
    std::span<const uint8_t> origin, const std::vector<size_t>& pending,
    const std::vector<uint64_t>& serve_start,
    const std::vector<uint64_t>& lookup_end,
    const std::vector<uint64_t>& finish_ns,
    const std::vector<uint64_t>& fill_start,
    const std::vector<uint8_t>& sampled, size_t num_live,
    const std::vector<uint64_t>& task_start,
    const std::vector<uint64_t>& task_end,
    const std::vector<std::vector<obs::TraceSpan>>& task_spans,
    const std::vector<uint64_t>& merge_start,
    const std::vector<uint64_t>& merge_end, bool metrics_on, bool tracing) {
  constexpr uint8_t kCacheHit = 0;
  constexpr uint8_t kComputed = 1;
  // pending[qi] -> qi, for computed requests.
  std::unordered_map<size_t, size_t> pending_pos;
  pending_pos.reserve(pending.size());
  for (size_t qi = 0; qi < pending.size(); ++qi) {
    pending_pos.emplace(pending[qi], qi);
  }
  const ServeMetrics& metrics = Metrics();
  obs::Tracer& tracer = obs::GlobalTracer();
  const uint64_t slow_ns = tracer.slow_query_ns();
  // The network server hands down per-request parse/queue spans through a
  // thread-local source (obs/trace.h); nullptr everywhere else.
  const obs::BatchSpanSource* batch_source = obs::CurrentBatchSpanSource();
  const size_t S = num_live;
  for (size_t i = 0; i < requests.size(); ++i) {
    const std::vector<obs::ServerSpan>* server_spans =
        batch_source != nullptr ? batch_source->SpansFor(i) : nullptr;
    // Traces (but not the serve latency metric) re-base onto the earliest
    // server span, so queue wait is part of the recorded total and the
    // slow-query threshold sees what the client saw.
    uint64_t base = serve_start[i];
    if (server_spans != nullptr) {
      for (const obs::ServerSpan& span : *server_spans) {
        base = std::min(base, span.start_ns);
      }
    }
    const uint64_t serve_ns =
        finish_ns[i] > serve_start[i] ? finish_ns[i] - serve_start[i] : 0;
    if (metrics_on) metrics.latency_ns->Record(serve_ns);
    if (!tracing) continue;
    const uint64_t total_ns = finish_ns[i] > base ? finish_ns[i] - base : 0;
    const bool is_sampled = sampled[i] != 0;
    if (!is_sampled && !(slow_ns > 0 && total_ns >= slow_ns)) continue;

    obs::QueryTrace trace;
    trace.start_ns = base;
    trace.total_ns = total_ns;
    trace.threshold = requests[i].threshold;
    trace.num_hits = static_cast<uint32_t>(results[i].hits.size());
    trace.shards_queried = results[i].stats.shards_queried;
    trace.cache_hit = origin[i] != kComputed;
    trace.sampled = is_sampled;
    const auto relative = [base](uint64_t ts) {
      return ts > base ? ts - base : 0;
    };
    const auto push = [&trace](obs::TraceSpan span) {
      if (trace.spans.size() < obs::QueryTrace::kMaxSpans) {
        trace.spans.push_back(span);
      }
    };
    if (server_spans != nullptr) {
      for (const obs::ServerSpan& span : *server_spans) {
        push({span.stage, -1, relative(span.start_ns),
              span.end_ns > span.start_ns ? span.end_ns - span.start_ns
                                          : 0});
      }
    }
    push({obs::Stage::kCacheLookup, -1, relative(serve_start[i]),
          lookup_end[i] - serve_start[i]});
    if (origin[i] == kComputed && S > 0) {
      const size_t qi = pending_pos.at(i);
      uint64_t first_start = UINT64_MAX;
      uint64_t last_end = 0;
      for (size_t s = 0; s < S; ++s) {
        first_start = std::min(first_start, task_start[qi * S + s]);
        last_end = std::max(last_end, task_end[qi * S + s]);
      }
      push({obs::Stage::kFanout, -1, relative(first_start),
            last_end - first_start});
      for (size_t s = 0; s < S; ++s) {
        const size_t task = qi * S + s;
        push({obs::Stage::kShardSearch, static_cast<int32_t>(s),
              relative(task_start[task]),
              task_end[task] - task_start[task]});
        if (is_sampled && task < task_spans.size()) {
          for (const obs::TraceSpan& span : task_spans[task]) push(span);
        }
      }
      push({obs::Stage::kMerge, -1, relative(merge_start[qi]),
            merge_end[qi] - merge_start[qi]});
    }
    if (origin[i] != kCacheHit && fill_start[i] != 0) {
      push({obs::Stage::kCacheFill, -1, relative(fill_start[i]),
            finish_ns[i] - fill_start[i]});
    }
    tracer.Record(std::move(trace));
  }
}

// Drops hits whose local row is tombstoned (mask may be shorter than the
// shard; rows past the end are live). Every dropped hit was a qualifying
// candidate of the unpurged index, so candidates_refined goes down with it
// — the qualifying count a purged index would report. The surviving hits
// and scores are exactly the purged index's: a row's score depends only on
// its own sketch and the query.
void FilterTombstonedHits(const std::vector<uint8_t>& deleted,
                          QueryResponse* response) {
  size_t kept = 0;
  for (const QueryHit& hit : response->hits) {
    if (hit.id < deleted.size() && deleted[hit.id] != 0) continue;
    response->hits[kept++] = hit;
  }
  response->stats.candidates_refined -= response->hits.size() - kept;
  response->hits.resize(kept);
}

// Tombstone mask -> ascending deleted local ids (the manifest v2 wire
// encoding; empty mask -> empty vector).
std::vector<uint32_t> DeletedLocalIds(const std::vector<uint8_t>& mask) {
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] != 0) ids.push_back(static_cast<uint32_t>(i));
  }
  return ids;
}

}  // namespace

std::vector<QueryResponse> ShardedContainmentService::BatchServe(
    std::span<const QueryRequest> requests, size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreads();
  std::vector<QueryResponse> results(requests.size());
  if (requests.empty()) return results;

  // The shared lock spans lookup, fan-out, merge AND cache fill: a mutation
  // (unique lock) therefore cannot interleave between a response being
  // computed and it being cached, so Clear() under the unique lock is
  // guaranteed to see — and drop — every stale entry.
  std::shared_lock<std::shared_mutex> lock(state_mutex_);

  struct Live {
    const ContainmentSearcher* searcher;
    std::span<const RecordId> ids;
    // Tombstone mask of the shard; null when it has none. Stable for the
    // whole batch: Delete writes masks under the unique lock only.
    const std::vector<uint8_t>* deleted = nullptr;
  };
  std::vector<Live> live;
  live.reserve(shards_.size());
  // Pin every shard for the whole batch: activation happens here (first
  // query after Load or after an eviction), and the pins keep each payload
  // alive even if a later activation in this very loop evicts it from the
  // resident set. An activation failure means the snapshot file vanished or
  // was corrupted underneath a live service — fatal, because there is no
  // per-response error channel and serving without the shard would
  // silently drop its records.
  std::vector<std::shared_ptr<ActiveShard>> pins;
  pins.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    Result<std::shared_ptr<ActiveShard>> active = PinShard(shard);
    GBKMV_CHECK(active.ok());
    live.push_back({active.value()->searcher.get(), shard.global_ids,
                    shard.num_deleted > 0 ? &shard.deleted : nullptr});
    pins.push_back(std::move(active.value()));
  }

  // Observability (docs/observability.md). Everything below is passive:
  // when `timing` is off the serve path runs exactly as before; when on,
  // timestamps are captured around the existing calls and never influence
  // them, so responses are bit-identical in every mode. Sampling decisions
  // happen in the serial pass, in request order, so which queries get
  // traced is deterministic too.
  const ServeMetrics& metrics = Metrics();
  const bool metrics_on = obs::GlobalMetrics().enabled();
  obs::Tracer& tracer = obs::GlobalTracer();
  const bool tracing = tracer.active();
  const bool timing = metrics_on || tracing;
  if (metrics_on) {
    metrics.batches->Add(1);
    metrics.queries->Add(requests.size());
  }
  std::vector<uint64_t> serve_start, lookup_end, finish_ns;
  std::vector<uint8_t> sampled;
  if (timing) {
    serve_start.resize(requests.size(), 0);
    lookup_end.resize(requests.size(), 0);
    finish_ns.resize(requests.size(), 0);
    sampled.assign(requests.size(), 0);
  }

  // Serial cache pass in request order, so the hit/miss/eviction stream —
  // and with it every response — is identical for any worker thread count.
  // Requests identical to an earlier one in the batch are not recomputed:
  // they take the first occurrence's response through the cache in the
  // fill pass below, exactly as back-to-back Serve calls would.
  enum class Origin : uint8_t { kCacheHit, kComputed, kDuplicate };
  std::vector<Origin> origin(requests.size(), Origin::kCacheHit);
  std::vector<size_t> pending;           // unique misses, first occurrences
  std::vector<size_t> dup_of(requests.size(), 0);
  std::unordered_map<uint64_t, std::vector<size_t>> first_by_hash;
  pending.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (timing) {
      serve_start[i] = MonotonicNanos();
      if (tracing) sampled[i] = tracer.ShouldSample() ? 1 : 0;
    }
    // Duplicate of an earlier MISS: sequentially its lookup would happen
    // after the twin's insert (a hit, counted in the fill pass), so it
    // must not touch the cache — and not count a miss — here. Duplicates
    // of earlier HITS fall through to Lookup and count their hit now,
    // exactly like sequential calls.
    const uint64_t hash = HashQueryRequest(requests[i]);
    std::vector<size_t>& chain = first_by_hash[hash];
    bool duplicate = false;
    for (size_t j : chain) {
      if (EquivalentRequests(requests[j], requests[i])) {
        origin[i] = Origin::kDuplicate;
        dup_of[i] = j;
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      if (cache_.Lookup(requests[i], &results[i])) {
        if (timing) lookup_end[i] = finish_ns[i] = MonotonicNanos();
        continue;
      }
      origin[i] = Origin::kComputed;
      chain.push_back(i);
      pending.push_back(i);
    }
    if (timing) lookup_end[i] = MonotonicNanos();
  }

  const size_t S = live.size();
  std::vector<uint64_t> task_start, task_end, merge_start, merge_end;
  std::vector<std::vector<obs::TraceSpan>> task_spans;
  if (!pending.empty() && S > 0) {
    std::vector<QueryResponse> partial(pending.size() * S);
    // A shard with live tombstones is searched without per-shard top-k
    // truncation (a tombstoned hit must not consume a top-k slot) and with
    // scores on, so the global merge can still rank; its tombstoned hits
    // are dropped right after the search. Clean shards keep the original
    // request — their per-shard truncation stays globally safe because
    // tombstones elsewhere only remove competitors.
    bool any_tombstones = false;
    for (const Live& l : live) any_tombstones |= l.deleted != nullptr;
    std::vector<QueryRequest> untruncated;
    if (any_tombstones) {
      untruncated.reserve(pending.size());
      for (size_t qi = 0; qi < pending.size(); ++qi) {
        QueryRequest modified = requests[pending[qi]];
        if (modified.top_k > 0) {
          modified.top_k = 0;
          modified.want_scores = true;
        }
        untruncated.push_back(modified);
      }
    }
    if (timing) {
      task_start.resize(pending.size() * S, 0);
      task_end.resize(pending.size() * S, 0);
      merge_start.resize(pending.size(), 0);
      merge_end.resize(pending.size(), 0);
      if (tracing) task_spans.resize(pending.size() * S);
      if (metrics_on) {
        for (size_t qi = 0; qi < pending.size(); ++qi) {
          metrics.fanout_width->Record(S);
        }
      }
    }
    const auto run_task = [&](size_t task) {
      const size_t qi = task / S;
      const size_t s = task % S;
      const std::vector<uint8_t>* deleted = live[s].deleted;
      const QueryRequest& request =
          deleted != nullptr ? untruncated[qi] : requests[pending[qi]];
      if (!timing) {
        partial[task] =
            live[s].searcher->SearchQ(request, ThreadLocalQueryContext());
        if (deleted != nullptr) {
          FilterTombstonedHits(*deleted, &partial[task]);
        }
        return;
      }
      task_start[task] = MonotonicNanos();
      if (tracing && sampled[pending[qi]] != 0) {
        // Sampled query: capture the searcher-internal stages too.
        obs::SpanSink sink(serve_start[pending[qi]],
                           static_cast<int32_t>(s));
        obs::ScopedSpanSink install(&sink);
        partial[task] =
            live[s].searcher->SearchQ(request, ThreadLocalQueryContext());
        task_spans[task] = sink.Take();
      } else {
        partial[task] =
            live[s].searcher->SearchQ(request, ThreadLocalQueryContext());
      }
      if (deleted != nullptr) {
        FilterTombstonedHits(*deleted, &partial[task]);
      }
      task_end[task] = MonotonicNanos();
      if (metrics_on) {
        metrics.shard_search_ns->Record(task_end[task] - task_start[task]);
      }
    };
    const auto merge_one = [&](size_t qi) {
      if (timing) merge_start[qi] = MonotonicNanos();
      std::vector<ShardPartial> parts(S);
      for (size_t s = 0; s < S; ++s) {
        parts[s] = {&partial[qi * S + s], live[s].ids};
      }
      results[pending[qi]] =
          MergeShardResponses(requests[pending[qi]], parts);
      if (timing) {
        merge_end[qi] = MonotonicNanos();
        finish_ns[pending[qi]] = merge_end[qi];
      }
    };
    const size_t total_tasks = pending.size() * S;
    if (num_threads == 1) {
      for (size_t t = 0; t < total_tasks; ++t) run_task(t);
      for (size_t qi = 0; qi < pending.size(); ++qi) merge_one(qi);
    } else {
      // Grain 1 over the (query, shard) grid: shard costs are uneven and a
      // single query's fan-out should spread over the workers (that is the
      // latency win sharding buys; bench/shard_scaling.cc).
      const std::shared_ptr<ThreadPool> pool = ServingPool(num_threads);
      pool->ParallelFor(0, total_tasks, 1,
                        [&](size_t begin, size_t end, size_t /*chunk*/) {
                          for (size_t t = begin; t < end; ++t) run_task(t);
                        });
      pool->ParallelFor(0, pending.size(), 1,
                        [&](size_t begin, size_t end, size_t /*chunk*/) {
                          for (size_t qi = begin; qi < end; ++qi) {
                            merge_one(qi);
                          }
                        });
    }
  }

  // Serial fill pass, again in request order: computed responses insert,
  // duplicates re-look-up (a hit now that their twin has filled — the same
  // touch/insert sequence sequential Serve calls produce).
  std::vector<uint64_t> fill_start;
  if (timing) fill_start.resize(requests.size(), 0);
  for (size_t i = 0; i < requests.size(); ++i) {
    if (timing && origin[i] != Origin::kCacheHit) {
      fill_start[i] = MonotonicNanos();
    }
    switch (origin[i]) {
      case Origin::kCacheHit:
        break;
      case Origin::kComputed:
        cache_.Insert(requests[i], results[i]);
        break;
      case Origin::kDuplicate:
        if (!cache_.Lookup(requests[i], &results[i])) {
          // Cache disabled (or the twin's entry already evicted): the
          // deterministic recompute sequential serving would do yields
          // exactly the first occurrence's response.
          results[i] = results[dup_of[i]];
          cache_.Insert(requests[i], results[i]);
        }
        break;
    }
    if (timing && origin[i] != Origin::kCacheHit) {
      finish_ns[i] = MonotonicNanos();
    }
  }

  if (timing) {
    RecordServeObservations(
        requests, results,
        std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(origin.data()), origin.size()),
        pending, serve_start, lookup_end, finish_ns, fill_start, sampled, S,
        task_start, task_end, task_spans, merge_start, merge_end,
        metrics_on, tracing);
  }
  return results;
}

std::shared_ptr<ThreadPool> ShardedContainmentService::ServingPool(
    size_t num_threads) {
  std::lock_guard<std::mutex> lock(serving_pool_mutex_);
  if (serving_pool_ == nullptr || serving_pool_threads_ != num_threads) {
    serving_pool_ = std::make_shared<ThreadPool>(num_threads);
    serving_pool_threads_ = num_threads;
  }
  return serving_pool_;
}

size_t ShardedContainmentService::SealRows() const {
  return config_.sharded.auto_promote_records > 0
             ? config_.sharded.auto_promote_records
             : kDefaultSealRows;
}

Result<RecordId> ShardedContainmentService::Ingest(Record record) {
  Record normalised = MakeRecord(std::move(record));
  if (normalised.empty()) {
    return Status::InvalidArgument("cannot ingest an empty record");
  }
  // Sketch the row once, outside the lock, as a one-row shard.
  Result<std::shared_ptr<ActiveShard>> row =
      BuildShard({normalised}, "open", 1);
  if (!row.ok()) return row.status();

  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  const RecordId global_id = next_global_id_;
  if (!has_open_shard_) {
    Shard open;
    open.active = std::move(row.value());
    open.global_ids.push_back(global_id);
    shards_.push_back(std::move(open));
    has_open_shard_ = true;
  } else {
    // Fold the row in with compaction's builder. No masks are passed:
    // tombstones carry forward unpurged, so the mask stays aligned.
    Shard& open = shards_.back();
    Result<std::shared_ptr<ActiveShard>> pinned = PinShard(open);
    if (!pinned.ok()) return pinned.status();
    std::unique_ptr<Dataset> reread;
    Result<const Dataset*> rows = ShardRows(open, **pinned, &reread);
    if (!rows.ok()) return rows.status();
    std::vector<Record> records = (*rows)->records();
    records.push_back(std::move(normalised));
    const MergeInput sources[] = {{pinned.value().get(), nullptr},
                                  {row.value().get(), nullptr}};
    Result<std::shared_ptr<ActiveShard>> folded =
        BuildShard(std::move(records), "open", 1, sources);
    if (!folded.ok()) return folded.status();
    {
      std::lock_guard<std::mutex> resident(resident_mutex_);
      open.active = std::move(folded.value());
      // Built in memory now: permanently resident, saved from memory.
      open.snapshot_path.clear();
      UpdateResidentGaugesLocked();
    }
    open.global_ids.push_back(global_id);
    if (!open.deleted.empty()) open.deleted.push_back(0);
  }
  ++next_global_id_;
  Metrics().ingests->Add(1);
  // Any insert can change any query's answer: full invalidation
  // (docs/sharding.md).
  cache_.Clear();
  if (shards_.back().global_ids.size() >= SealRows()) SealLocked();
  return global_id;
}

Result<MutationResult> ShardedContainmentService::Delete(RecordId id) {
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  MutationResult result;
  result.kind = MutationKind::kDelete;
  result.id = id;
  if (id >= next_global_id_) {
    return Status::NotFound("record " + std::to_string(id) +
                            " was never ingested");
  }
  // Every shard holds ascending global ids, so one binary search per shard
  // locates the local row.
  for (Shard& shard : shards_) {
    const auto it =
        std::lower_bound(shard.global_ids.begin(), shard.global_ids.end(), id);
    if (it == shard.global_ids.end() || *it != id) continue;
    const size_t local = static_cast<size_t>(it - shard.global_ids.begin());
    // Masks are sized lazily, on the shard's first tombstone.
    if (shard.deleted.empty()) shard.deleted.assign(shard.global_ids.size(), 0);
    if (shard.deleted[local] != 0) {
      result.noop = true;
      return result;
    }
    shard.deleted[local] = 1;
    ++shard.num_deleted;
    Metrics().deletes->Add(1);
    // A tombstone narrows answers everywhere: full invalidation, exactly
    // like Ingest.
    cache_.Clear();
    MaybeScheduleCompactionLocked();
    return result;
  }
  // A valid id that no live row carries was purged by an earlier merge
  // (double delete across a compaction).
  return Status::NotFound("record " + std::to_string(id) +
                          " was already purged");
}

bool ShardedContainmentService::SealLocked() {
  if (!has_open_shard_) return false;
  has_open_shard_ = false;
  Metrics().promotions->Add(1);
  MaybeScheduleCompactionLocked();
  return true;
}

Status ShardedContainmentService::Promote() {
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  SealLocked();
  return Status::OK();
}

std::pair<size_t, size_t>
ShardedContainmentService::PickCompactionRangeLocked() const {
  // Only sealed shards are candidates: the open shard is replaced by every
  // Ingest, so it must never sit inside a range a compaction captured.
  const size_t sealed = SealedCountLocked();
  // Tiered trigger first: the maximal newest-first suffix run of promoted
  // shards where each older shard is at most tier_ratio times the rows
  // accumulated so far — the LSM "merge shards of similar size" rule, with
  // newly promoted (small) shards absorbing into their elders.
  const double ratio = config_.sharded.compaction_tier_ratio;
  const size_t min_run =
      std::max<size_t>(2, config_.sharded.compaction_min_shards);
  if (ratio > 0.0 && sealed >= base_shard_count_ + min_run) {
    size_t lo = sealed - 1;
    double run = static_cast<double>(shards_[lo].global_ids.size());
    while (lo > base_shard_count_ &&
           static_cast<double>(shards_[lo - 1].global_ids.size()) <=
               ratio * run) {
      --lo;
      run += static_cast<double>(shards_[lo].global_ids.size());
    }
    if (sealed - lo >= min_run) return {lo, sealed};
  }
  // Purge trigger: rewrite the shard with the highest tombstone fraction
  // once it crosses the threshold (single-shard "merge", any sealed shard).
  const double purge = config_.sharded.tombstone_purge_threshold;
  if (purge > 0.0) {
    size_t best = sealed;
    double best_fraction = 0.0;
    for (size_t s = 0; s < sealed; ++s) {
      const size_t rows = shards_[s].global_ids.size();
      if (rows == 0 || shards_[s].num_deleted == 0) continue;
      const double fraction = static_cast<double>(shards_[s].num_deleted) /
                              static_cast<double>(rows);
      if (fraction + 1e-12 >= purge && fraction > best_fraction) {
        best = s;
        best_fraction = fraction;
      }
    }
    if (best < sealed) return {best, best + 1};
  }
  return {0, 0};
}

void ShardedContainmentService::MaybeScheduleCompactionLocked() {
  if (compaction_in_flight_.load(std::memory_order_relaxed)) return;
  const auto [lo, hi] = PickCompactionRangeLocked();
  if (hi <= lo) return;
  if (compaction_in_flight_.exchange(true)) return;
  if (background_pool_ == nullptr) {
    background_pool_ = std::make_unique<ThreadPool>(1);
  }
  // The captured range stays valid until the task runs: Ingest only
  // replaces or appends the open shard past it, concurrent compactions are
  // excluded by the token, and Compact joins background_task_ first.
  background_task_ = background_pool_->Submit([this, lo = lo, hi = hi] {
    size_t purged = 0;
    const Status status = DoCompactRange(lo, hi, &purged);
    {
      std::unique_lock<std::shared_mutex> inner(state_mutex_);
      if (!status.ok() && background_status_.ok()) {
        background_status_ = status;
      }
    }
    compaction_in_flight_.store(false);
  });
}

Status ShardedContainmentService::DoCompactRange(size_t lo, size_t hi,
                                                 size_t* purged_out) {
  if (hi <= lo) return Status::OK();
  const WallTimer timer;

  // Phase A (shared lock): pin the sources, capture their tombstone masks,
  // and collect the surviving records + global ids in source order.
  // Promoted global-id ranges are contiguous and appended in increasing
  // order — and a single-shard purge keeps its own order — so the
  // surviving concatenation stays ascending (the merge invariant).
  std::vector<std::shared_ptr<ActiveShard>> pins;
  std::vector<std::vector<uint8_t>> captured;  // masks at capture time
  std::vector<std::vector<uint32_t>> remap;    // local -> merged row
  std::vector<Record> records;
  std::vector<RecordId> ids;
  size_t purged = 0;
  {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    GBKMV_CHECK(hi <= SealedCountLocked());
    for (size_t s = lo; s < hi; ++s) {
      const Shard& shard = shards_[s];
      Result<std::shared_ptr<ActiveShard>> pin = PinShard(shard);
      if (!pin.ok()) return pin.status();
      std::unique_ptr<Dataset> reread;
      Result<const Dataset*> rows = ShardRows(shard, **pin, &reread);
      if (!rows.ok()) return rows.status();
      const Dataset* dataset = rows.value();
      captured.push_back(shard.deleted);
      std::vector<uint32_t>& map = remap.emplace_back(
          shard.global_ids.size(), std::numeric_limits<uint32_t>::max());
      for (size_t i = 0; i < shard.global_ids.size(); ++i) {
        if (i < shard.deleted.size() && shard.deleted[i] != 0) {
          ++purged;
          continue;
        }
        map[i] = static_cast<uint32_t>(records.size());
        records.push_back(dataset->record(i));
        ids.push_back(shard.global_ids[i]);
      }
      pins.push_back(std::move(pin.value()));
    }
  }

  // Phase B (unlocked — queries proceed throughout): build the merged
  // payload; the pins keep every source searcher alive for the copy.
  std::shared_ptr<ActiveShard> merged_payload;
  if (!records.empty()) {
    std::vector<MergeInput> sources;
    sources.reserve(pins.size());
    for (size_t k = 0; k < pins.size(); ++k) {
      sources.push_back({pins[k].get(), &captured[k]});
    }
    Result<std::shared_ptr<ActiveShard>> built = BuildShard(
        std::move(records), "compacted", config_.num_threads, sources);
    if (!built.ok()) return built.status();
    merged_payload = std::move(built.value());
  }

  // Phase C (unique lock): swap the range for the merged shard. Ingest may
  // have replaced or appended the open shard past `hi` meanwhile — it stays
  // at the tail untouched — and deletes may have tombstoned source
  // rows after the capture: those rows survived the purge, so their
  // tombstones remap onto the merged shard.
  {
    std::unique_lock<std::shared_mutex> lock(state_mutex_);
    Shard merged;
    merged.global_ids = std::move(ids);
    merged.active = std::move(merged_payload);
    for (size_t k = 0; k < remap.size(); ++k) {
      const Shard& source = shards_[lo + k];
      for (size_t i = 0; i < source.deleted.size(); ++i) {
        if (source.deleted[i] == 0) continue;
        if (i < captured[k].size() && captured[k][i] != 0) continue;
        const uint32_t row = remap[k][i];
        GBKMV_CHECK(row != std::numeric_limits<uint32_t>::max());
        if (merged.deleted.empty()) {
          merged.deleted.assign(merged.global_ids.size(), 0);
        }
        merged.deleted[row] = 1;
        ++merged.num_deleted;
      }
    }
    const bool in_base = hi <= base_shard_count_;
    shards_.erase(shards_.begin() + lo, shards_.begin() + hi);
    if (merged.active != nullptr) {
      shards_.insert(shards_.begin() + lo, std::move(merged));
    } else if (in_base) {
      // A fully tombstoned base shard vanishes outright.
      --base_shard_count_;
    }
    cache_.Clear();
  }
  Metrics().compactions->Add(1);
  Metrics().compaction_ns->Record(timer.ElapsedNanos());
  Metrics().tombstones_purged->Add(purged);
  if (purged_out != nullptr) *purged_out = purged;
  return Status::OK();
}

Status ShardedContainmentService::Compact(const CompactOptions& options) {
  MutationResult result;
  return CompactInternal(options, &result);
}

Status ShardedContainmentService::CompactInternal(
    const CompactOptions& options, MutationResult* result) {
  result->kind = MutationKind::kCompact;
  result->noop = true;
  // Join background work but do not let an old failure veto this
  // compaction (the stored status stays readable via
  // WaitForBackgroundWork).
  JoinBackgroundTask();
  if (compaction_in_flight_.exchange(true)) {
    return Status::FailedPrecondition("a compaction is already in flight");
  }
  size_t lo = 0;
  size_t hi = 0;
  {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    if (options.all) {
      lo = base_shard_count_;
      hi = SealedCountLocked();
      // One promoted shard is only worth rewriting when it has tombstones
      // to purge; zero promoted shards is always a no-op.
      if (hi - lo < 2 && (hi == lo || shards_[lo].num_deleted == 0)) {
        hi = lo;
      }
    } else {
      std::tie(lo, hi) = PickCompactionRangeLocked();
    }
  }
  Status status = Status::OK();
  if (hi > lo) {
    result->noop = false;
    result->shards_merged = hi - lo;
    status = DoCompactRange(lo, hi, &result->tombstones_purged);
  }
  compaction_in_flight_.store(false);
  return status;
}

Result<MutationResult> ShardedContainmentService::Apply(
    const MutationRequest& request) {
  switch (request.kind) {
    case MutationKind::kIngest: {
      Result<RecordId> id = Ingest(request.record);
      if (!id.ok()) return id.status();
      MutationResult result;
      result.kind = MutationKind::kIngest;
      result.id = *id;
      return result;
    }
    case MutationKind::kDelete:
      return Delete(request.id);
    case MutationKind::kPromote: {
      MutationResult result;
      result.kind = MutationKind::kPromote;
      std::unique_lock<std::shared_mutex> lock(state_mutex_);
      result.noop = !SealLocked();
      return result;
    }
    case MutationKind::kCompact: {
      MutationResult result;
      if (Status status = CompactInternal(request.compact, &result);
          !status.ok()) {
        return status;
      }
      return result;
    }
  }
  return Status::InvalidArgument("unknown mutation kind");
}

void ShardedContainmentService::JoinBackgroundTask() {
  std::future<void> pending;
  {
    std::unique_lock<std::shared_mutex> lock(state_mutex_);
    pending = std::move(background_task_);
  }
  // get() outside the lock: background tasks need the lock to finish.
  if (pending.valid()) pending.get();
}

Status ShardedContainmentService::WaitForBackgroundWork() {
  JoinBackgroundTask();
  // Consume-once: report the stored status and reset it, so one failed
  // background task is surfaced exactly once instead of failing every
  // later wait.
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  return std::exchange(background_status_, Status::OK());
}

size_t ShardedContainmentService::num_shards() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return SealedCountLocked();
}

size_t ShardedContainmentService::size() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.global_ids.size();
  return total;
}

size_t ShardedContainmentService::num_tombstones() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.num_deleted;
  return total;
}

size_t ShardedContainmentService::ingest_size() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return has_open_shard_ ? shards_.back().global_ids.size() : 0;
}

uint64_t ShardedContainmentService::SpaceUnits() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  uint64_t total = 0;
  // Resident storage only: an evicted shard's payload lives on disk, which
  // is the point of the resident-shard budget.
  std::lock_guard<std::mutex> resident(resident_mutex_);
  for (const Shard& shard : shards_) {
    if (shard.active != nullptr) total += shard.active->searcher->SpaceUnits();
  }
  return total;
}

std::string ShardedContainmentService::method_name() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  {
    std::lock_guard<std::mutex> resident(resident_mutex_);
    for (const Shard& shard : shards_) {
      if (shard.active != nullptr) return shard.active->searcher->name();
    }
  }
  return MethodToken(config_.method);
}

ShardView ShardedContainmentService::shard(size_t i) const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  GBKMV_CHECK(i < shards_.size());
  // Activates the shard if evicted. The view is NOT pinned: it stays valid
  // only until the next mutation or eviction (introspection only).
  Result<std::shared_ptr<ActiveShard>> active = PinShard(shards_[i]);
  GBKMV_CHECK(active.ok());
  return {active.value()->searcher.get(), shards_[i].global_ids};
}

Status ShardedContainmentService::Save(const std::string& dir) const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory " + dir + ": " +
                           ec.message());
  }

  io::SnapshotWriter manifest;
  io::WriteSnapshotMeta(&manifest, io::kShardedManifestKind, 0);
  io::Writer* out = manifest.AddSection(io::kSectionManifest);
  out->PutU32(kManifestVersion);
  out->PutString(MethodToken(config_.method));
  out->PutU8(static_cast<uint8_t>(config_.sharded.partitioner));
  out->PutDouble(config_.space_ratio);
  out->PutU64(static_cast<uint64_t>(config_.buffer_bits));
  out->PutU64(config_.lshe_num_hashes);
  out->PutU64(config_.lshe_num_partitions);
  out->PutU64(config_.seed);
  out->PutU64(config_.sharded.cache_capacity);
  out->PutU64(config_.sharded.auto_promote_records);
  out->PutU64(minhash_size_hint_);
  out->PutU64(next_global_id_);
  out->PutU64(base_shard_count_);
  // Manifest v2: lifecycle policy knobs, so a reloaded service keeps
  // compacting the way it was configured to (caller overrides win on
  // Load; see Load's knob resolution).
  out->PutDouble(config_.sharded.compaction_tier_ratio);
  out->PutU64(config_.sharded.compaction_min_shards);
  out->PutDouble(config_.sharded.tombstone_purge_threshold);
  const bool has_sketcher = global_sketcher_ != nullptr;
  out->PutBool(has_sketcher);
  if (has_sketcher) {
    // Bound for the element->bit table on load. Shards without a resident
    // dataset (mapped or evicted) contribute nothing, so floor the bound at
    // the sketcher's own table width — the value Load must accept.
    uint64_t universe = global_sketcher_->universe_size();
    {
      std::lock_guard<std::mutex> resident(resident_mutex_);
      for (const Shard& shard : shards_) {
        const Dataset* dataset =
            shard.active != nullptr ? shard.active->dataset.get() : nullptr;
        universe = std::max<uint64_t>(
            universe, dataset != nullptr ? dataset->universe_size() : 0);
      }
    }
    out->PutU64(universe);
    global_sketcher_->SaveTo(out);
  }

  out->PutU64(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::string filename = ShardFileName(s);
    out->PutString(filename);
    out->PutVecU32(shards_[s].global_ids);
    // Manifest v2: live tombstones as sorted deleted LOCAL ids, so a
    // reload keeps serving the un-deleted view (the snapshot payload
    // still holds every row; the purge happens at merge time, not here).
    out->PutVecU32(DeletedLocalIds(shards_[s].deleted));
    const std::string path = dir + "/" + filename;
    std::shared_ptr<ActiveShard> active;
    {
      std::lock_guard<std::mutex> resident(resident_mutex_);
      active = shards_[s].active;
    }
    // Methods with snapshot support persist the built index; the rest
    // persist their shard dataset and rebuild (deterministically) on load.
    // Shards whose authoritative bytes already sit in a snapshot file —
    // evicted, or resident but mapped (a mapped searcher cannot Save) —
    // are persisted by copying that file.
    Status saved = active != nullptr ? active->searcher->SaveSnapshot(path)
                                     : Status::FailedPrecondition("evicted");
    if (saved.code() == StatusCode::kFailedPrecondition) {
      if (!shards_[s].snapshot_path.empty()) {
        saved = CopySnapshotFile(shards_[s].snapshot_path, path);
      } else {
        saved = active->dataset->Save(path);
      }
    }
    if (!saved.ok()) return saved;
  }

  // Manifest v3: whether the last shard is the open one, so a reload keeps
  // folding Ingest into it (and ingest_size() survives the round trip).
  out->PutBool(has_open_shard_);

  return manifest.WriteTo(dir + "/manifest.snap");
}

Result<std::unique_ptr<ShardedContainmentService>>
ShardedContainmentService::Load(const std::string& dir,
                                const ServiceOptions& options) {
  Result<io::SnapshotReader> manifest =
      io::SnapshotReader::Open(dir + "/manifest.snap");
  if (!manifest.ok()) return manifest.status();
  Result<io::SnapshotMeta> meta = io::ReadSnapshotMeta(*manifest);
  if (!meta.ok()) return meta.status();
  if (meta->kind != io::kShardedManifestKind) {
    return Status::InvalidArgument("snapshot holds a '" + meta->kind +
                                   "', expected '" +
                                   io::kShardedManifestKind + "'");
  }
  Result<io::Reader> section = manifest->Section(io::kSectionManifest);
  if (!section.ok()) return section.status();
  io::Reader* in = &section.value();

  uint32_t version = 0;
  if (Status s = in->GetU32(&version); !s.ok()) return s;
  if (version == 0 || version > kManifestVersion) {
    return Status::InvalidArgument("unsupported manifest version " +
                                   std::to_string(version));
  }
  std::string method_token;
  if (Status s = in->GetString(&method_token); !s.ok()) return s;
  Result<SearchMethod> method = ParseSearchMethod(method_token);
  if (!method.ok()) return method.status();

  SearcherConfig config;
  config.method = *method;
  uint8_t partitioner = 0;
  uint64_t buffer_bits = 0;
  uint64_t cache_capacity = 0;
  uint64_t auto_promote = 0;
  uint64_t minhash_hint = 0;
  uint64_t next_global_id = 0;
  uint64_t base_shard_count = 0;
  uint64_t lshe_hashes = 0;
  uint64_t lshe_partitions = 0;
  if (Status s = in->GetU8(&partitioner); !s.ok()) return s;
  if (Status s = in->GetDouble(&config.space_ratio); !s.ok()) return s;
  if (Status s = in->GetU64(&buffer_bits); !s.ok()) return s;
  if (Status s = in->GetU64(&lshe_hashes); !s.ok()) return s;
  if (Status s = in->GetU64(&lshe_partitions); !s.ok()) return s;
  if (Status s = in->GetU64(&config.seed); !s.ok()) return s;
  if (Status s = in->GetU64(&cache_capacity); !s.ok()) return s;
  if (Status s = in->GetU64(&auto_promote); !s.ok()) return s;
  if (version < 3) {
    // The retired separate ingest shard's sketch budget; unused now.
    uint64_t legacy_budget_units = 0;
    if (Status s = in->GetU64(&legacy_budget_units); !s.ok()) return s;
  }
  if (Status s = in->GetU64(&minhash_hint); !s.ok()) return s;
  if (Status s = in->GetU64(&next_global_id); !s.ok()) return s;
  if (Status s = in->GetU64(&base_shard_count); !s.ok()) return s;
  double manifest_tier_ratio = 0.0;
  uint64_t manifest_min_shards = 0;
  double manifest_purge = 0.0;
  if (version >= 2) {
    if (Status s = in->GetDouble(&manifest_tier_ratio); !s.ok()) return s;
    if (Status s = in->GetU64(&manifest_min_shards); !s.ok()) return s;
    if (Status s = in->GetDouble(&manifest_purge); !s.ok()) return s;
  }
  if (partitioner > static_cast<uint8_t>(ShardPartitioner::kSizeStratified)) {
    return Status::Corruption("manifest has an unknown partitioner id");
  }
  config.buffer_bits = static_cast<size_t>(buffer_bits);
  config.lshe_num_hashes = static_cast<size_t>(lshe_hashes);
  config.lshe_num_partitions = static_cast<size_t>(lshe_partitions);
  config.sharded.partitioner = static_cast<ShardPartitioner>(partitioner);
  config.sharded.cache_capacity = static_cast<size_t>(cache_capacity);
  config.sharded.auto_promote_records = static_cast<size_t>(auto_promote);
  // Serve-time knobs, not index parameters: resident budgets come from the
  // caller, never the manifest. Lifecycle policy knobs: a non-zero caller
  // value wins, otherwise the manifest's (v1 manifests carry none, so the
  // caller's — including the all-zero "policy off" default — stands).
  config.sharded.max_resident_shards = options.max_resident_shards;
  config.sharded.max_resident_bytes = options.max_resident_bytes;
  config.sharded.compaction_tier_ratio = options.compaction_tier_ratio > 0.0
                                             ? options.compaction_tier_ratio
                                             : manifest_tier_ratio;
  config.sharded.tombstone_purge_threshold =
      options.tombstone_purge_threshold > 0.0
          ? options.tombstone_purge_threshold
          : manifest_purge;
  // min_shards travels with the tier ratio: the caller configuring the
  // policy owns it, otherwise the manifest's value (when it has one).
  config.sharded.compaction_min_shards =
      options.compaction_tier_ratio > 0.0 || manifest_min_shards == 0
          ? options.compaction_min_shards
          : static_cast<size_t>(manifest_min_shards);
  const bool lazy =
      options.max_resident_shards > 0 || options.max_resident_bytes > 0;

  std::unique_ptr<ShardedContainmentService> service(
      new ShardedContainmentService(config));
  service->minhash_size_hint_ = static_cast<size_t>(minhash_hint);
  service->next_global_id_ = static_cast<RecordId>(next_global_id);

  bool has_sketcher = false;
  if (Status s = in->GetBool(&has_sketcher); !s.ok()) return s;
  if (has_sketcher) {
    uint64_t universe = 0;
    if (Status s = in->GetU64(&universe); !s.ok()) return s;
    Result<GbKmvSketcher> sketcher =
        GbKmvSketcher::LoadFrom(in, static_cast<size_t>(universe));
    if (!sketcher.ok()) return sketcher.status();
    service->global_sketcher_ =
        std::make_unique<GbKmvSketcher>(std::move(sketcher.value()));
  }

  // A manifest deleted-local-id list -> the shard's tombstone mask.
  const auto decode_tombstones = [](const std::vector<uint32_t>& ids,
                                    const std::string& filename,
                                    Shard* shard) {
    if (!ids.empty()) shard->deleted.assign(shard->global_ids.size(), 0);
    for (const uint32_t local : ids) {
      if (local >= shard->global_ids.size()) {
        return Status::Corruption("manifest tombstones a local id past "
                                  "shard " + filename + "'s row count");
      }
      if (shard->deleted[local] == 0) {
        shard->deleted[local] = 1;
        ++shard->num_deleted;
      }
    }
    return Status::OK();
  };

  uint64_t num_shards = 0;
  if (Status s = in->GetU64(&num_shards); !s.ok()) return s;
  service->shards_.reserve(num_shards);
  for (uint64_t k = 0; k < num_shards; ++k) {
    std::string filename;
    Shard shard;
    if (Status s = in->GetString(&filename); !s.ok()) return s;
    if (Status s = in->GetVecU32(&shard.global_ids); !s.ok()) return s;
    if (version >= 2) {
      std::vector<uint32_t> deleted_ids;
      if (Status s = in->GetVecU32(&deleted_ids); !s.ok()) return s;
      if (Status s = decode_tombstones(deleted_ids, filename, &shard);
          !s.ok()) {
        return s;
      }
    }
    const std::string path = dir + "/" + filename;
    shard.snapshot_path = path;
    if (lazy) {
      // Defer the load to the first query that fans out to this shard; only
      // prove the file exists so a misassembled directory fails here, not
      // fatally at serve time.
      std::error_code ec;
      if (!std::filesystem::exists(path, ec) || ec) {
        return Status::NotFound("manifest names missing shard snapshot " +
                                path);
      }
    } else {
      Result<ActiveShard> payload = service->LoadShardPayload(path);
      if (!payload.ok()) return payload.status();
      shard.active = std::make_shared<ActiveShard>(std::move(payload.value()));
      const Dataset* dataset = shard.active->dataset.get();
      if (dataset != nullptr &&
          dataset->size() != shard.global_ids.size()) {
        return Status::Corruption("shard " + filename + " holds " +
                                  std::to_string(dataset->size()) +
                                  " records but the manifest maps " +
                                  std::to_string(shard.global_ids.size()));
      }
    }
    service->shards_.push_back(std::move(shard));
  }
  service->base_shard_count_ =
      std::min<size_t>(static_cast<size_t>(base_shard_count),
                       service->shards_.size());
  // Keep the reloaded config self-describing: num_shards is not stored
  // separately (the base partition IS the shard count Build resolved).
  service->config_.sharded.num_shards =
      std::max<size_t>(1, service->base_shard_count_);

  if (version >= 3) {
    bool last_open = false;
    if (Status s = in->GetBool(&last_open); !s.ok()) return s;
    if (last_open && service->shards_.size() <= service->base_shard_count_) {
      return Status::Corruption("manifest marks a base shard open");
    }
    service->has_open_shard_ = last_open;
  } else {
    // Manifest v1/v2: an optional separate ingest shard. Its rows and
    // tombstones become one sealed shard built like every other.
    bool has_ingest = false;
    if (Status s = in->GetBool(&has_ingest); !s.ok()) return s;
    if (has_ingest) {
      std::string filename;
      uint64_t ingest_base = 0;
      std::vector<uint32_t> deleted_ids;
      if (Status s = in->GetString(&filename); !s.ok()) return s;
      if (Status s = in->GetU64(&ingest_base); !s.ok()) return s;
      if (version >= 2) {
        if (Status s = in->GetVecU32(&deleted_ids); !s.ok()) return s;
      }
      Result<std::vector<Record>> rows =
          LoadLegacyIngestRows(dir + "/" + filename);
      if (!rows.ok()) return rows.status();
      if (ingest_base + rows->size() > next_global_id) {
        return Status::Corruption("legacy ingest shard ids run past the "
                                  "manifest's next global id");
      }
      Shard shard;
      shard.global_ids.resize(rows->size());
      std::iota(shard.global_ids.begin(), shard.global_ids.end(),
                static_cast<RecordId>(ingest_base));
      Result<std::shared_ptr<ActiveShard>> active = service->BuildShard(
          std::move(rows.value()), "ingest", config.num_threads);
      if (!active.ok()) return active.status();
      shard.active = std::move(active.value());
      if (Status s = decode_tombstones(deleted_ids, filename, &shard);
          !s.ok()) {
        return s;
      }
      service->shards_.push_back(std::move(shard));
    }
  }
  {
    // Eager loads never pass through PinShard, so seed the resident gauges
    // here; a lazy load starts at zero resident, which is also the truth.
    std::lock_guard<std::mutex> lock(service->resident_mutex_);
    service->UpdateResidentGaugesLocked();
  }
  return service;
}

Result<ShardedContainmentService::ActiveShard>
ShardedContainmentService::LoadShardPayload(const std::string& path) const {
  ActiveShard active;
  {
    std::error_code ec;
    const uintmax_t bytes = std::filesystem::file_size(path, ec);
    active.resident_bytes = ec ? 0 : static_cast<uint64_t>(bytes);
  }
  Result<MappedSearcher> loaded = LoadSearcherSnapshotAuto(path);
  if (loaded.ok()) {
    active.mapping = std::move(loaded->mapping);
    active.dataset = std::move(loaded->dataset);
    active.searcher = std::move(loaded->searcher);
    return active;
  }
  if (loaded.status().code() != StatusCode::kInvalidArgument) {
    return loaded.status();
  }
  // Not a searcher snapshot: a dataset snapshot for a method without
  // snapshot support — rebuild the searcher deterministically.
  Result<Dataset> dataset = Dataset::Load(path);
  if (!dataset.ok()) return dataset.status();
  active.dataset = std::make_unique<Dataset>(std::move(dataset.value()));
  Result<std::unique_ptr<ContainmentSearcher>> searcher =
      BuildShardSearcher(*active.dataset, 0);
  if (!searcher.ok()) return searcher.status();
  active.searcher = std::move(searcher.value());
  return active;
}

Result<std::shared_ptr<ShardedContainmentService::ActiveShard>>
ShardedContainmentService::PinShard(const Shard& shard) const {
  // Holding resident_mutex_ across the activation I/O serialises
  // activations (and stamp bumps) against each other — deliberately:
  // concurrent queries that need the same cold shard must not map it
  // twice, and a query that needs an already-resident shard gets it with
  // one uncontended lock.
  std::lock_guard<std::mutex> lock(resident_mutex_);
  shard.lru_stamp = ++lru_clock_;
  if (shard.active == nullptr) {
    GBKMV_CHECK(!shard.snapshot_path.empty());
    Result<ActiveShard> payload = LoadShardPayload(shard.snapshot_path);
    if (!payload.ok()) return payload.status();
    shard.active = std::make_shared<ActiveShard>(std::move(payload.value()));
    Metrics().shard_activations->Add(1);
    EvictOverBudgetLocked(&shard);
    UpdateResidentGaugesLocked();
  }
  return shard.active;
}

void ShardedContainmentService::EvictOverBudgetLocked(
    const Shard* keep) const {
  const size_t max_shards = config_.sharded.max_resident_shards;
  const uint64_t max_bytes = config_.sharded.max_resident_bytes;
  if (max_shards == 0 && max_bytes == 0) return;
  for (;;) {
    size_t resident = 0;
    uint64_t bytes = 0;
    const Shard* victim = nullptr;
    for (const Shard& shard : shards_) {
      if (shard.active == nullptr) continue;
      ++resident;
      bytes += shard.active->resident_bytes;
      // Never the shard being pinned, and never a shard with no snapshot
      // to come back from (built, compacted or folded in memory).
      if (&shard == keep || shard.snapshot_path.empty()) continue;
      if (victim == nullptr || shard.lru_stamp < victim->lru_stamp) {
        victim = &shard;
      }
    }
    const bool over = (max_shards > 0 && resident > max_shards) ||
                      (max_bytes > 0 && bytes > max_bytes);
    if (!over || victim == nullptr) return;
    // Dropping the Shard's reference is the whole eviction: in-flight
    // batches hold their own pins, and the mapping unmaps when the last
    // one drains.
    victim->active.reset();
    Metrics().shard_evictions->Add(1);
  }
}

void ShardedContainmentService::UpdateResidentGaugesLocked() const {
  int64_t resident = 0;
  int64_t bytes = 0;
  for (const Shard& shard : shards_) {
    if (shard.active == nullptr) continue;
    ++resident;
    bytes += static_cast<int64_t>(shard.active->resident_bytes);
  }
  Metrics().resident_shards->Set(resident);
  Metrics().resident_shard_bytes->Set(bytes);
}

Result<std::unique_ptr<ShardedContainmentService>> BuildShardedService(
    const Dataset& dataset, const SearcherConfig& config) {
  return ShardedContainmentService::Build(dataset, config);
}

}  // namespace serve
}  // namespace gbkmv
