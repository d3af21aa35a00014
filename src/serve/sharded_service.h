// ShardedContainmentService: one logical containment index spread over S
// shards (docs/sharding.md).
//
// Build partitions a Dataset into S shards (hash or size-stratified,
// serve/partitioner.h), builds one searcher per shard in parallel, and
// answers queries by fan-out/fan-in with a global (score desc, id asc)
// top-k merge (serve/merge.h) whose hits and scores are bit-identical to
// the single-shard searcher's, for any shard count and any worker thread
// count. The guarantee rests on per-record parameter sharing: every
// dataset-global quantity a method's query path reads (the GB-KMV
// sketcher's τ and buffer universe, MinHash-LSH's size upper bound) is
// derived ONCE from the full dataset and handed to every shard build.
// Methods whose per-record state cannot be pinned that way (KMV's
// Theorem-1 allocation, LSH-E's partition boundaries, A-MH's padding
// width) are rejected at Build.
//
// On top of the immutable shards, the LSM-style lifecycle
// (docs/sharding.md "Shard lifecycle"), driven through the typed mutation
// API in serve/mutation.h:
//   * an LRU query-result cache (serve/query_cache.h), invalidated in full
//     on every mutation that can change a response;
//   * an open shard for live inserts: an ordinary shard at the back, built
//     like every other, into which each Ingest folds one freshly sketched
//     row. Promote() seals it; nothing is rebuilt, so answers never change;
//   * tombstone deletes: Delete(id) marks the record in a per-shard
//     deleted-id mask; each shard search drops masked rows where it
//     collects hits (QueryRequest::excluded, so hits and scores stay
//     bit-identical to an index without the record), and the rows are
//     physically purged at the next merge touching their shard;
//   * merge compaction: sealed GB-KMV shards merge at the index level
//     (GbKmvIndexSearcher::Merge — flat sketch rows concatenated minus
//     tombstones, postings rebuilt by a deterministic two-pass
//     count/scatter; no record is re-sketched), with a size-ratio tiered
//     policy (ServiceOptions::compaction_tier_ratio) running the merges on
//     the background pool under a freeze -> build-unlocked -> swap
//     discipline, so queries never block;
//   * a versioned shard-manifest snapshot (Save/Load) reusing the src/io
//     section container — tombstones and the open shard included — so a
//     whole service round-trips through disk;
//   * lazy shard activation with a resident-shard LRU
//     (config.sharded.max_resident_shards / max_resident_bytes): a loaded
//     service reads only the manifest up front, maps each shard's snapshot
//     on the first query that fans out to it, and unmaps the
//     least-recently-used residents once the budget is exceeded. Queries
//     pin the shards they use via shared_ptr, so an eviction never pulls
//     memory out from under an in-flight batch, and evicted shards
//     reactivate transparently on their next query.
//
// Thread safety: Serve/BatchServe may run concurrently with each other and
// with background compaction; Ingest/Promote/Compact/Save serialise against
// queries internally. One service, many reader threads, any number of
// (externally serialised) writers.

#ifndef GBKMV_SERVE_SHARDED_SERVICE_H_
#define GBKMV_SERVE_SHARDED_SERVICE_H_

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/containment.h"
#include "data/dataset.h"
#include "index/searcher.h"
#include "obs/trace.h"
#include "serve/mutation.h"
#include "serve/query_cache.h"
#include "sketch/gbkmv.h"

namespace gbkmv {

namespace io {
class MmapSnapshot;
}  // namespace io

namespace serve {

// Read-only view of one shard (bench/introspection; do not hold across
// mutations).
struct ShardView {
  const ContainmentSearcher* searcher = nullptr;
  std::span<const RecordId> global_ids;
};

class ShardedContainmentService {
 public:
  // Partitions `dataset` per config.sharded and builds the shards in
  // parallel (config.num_threads). The dataset is copied into per-shard
  // datasets; the original only needs to outlive Build itself.
  static Result<std::unique_ptr<ShardedContainmentService>> Build(
      const Dataset& dataset, const SearcherConfig& config);

  ~ShardedContainmentService();

  // One query: cache lookup, fan-out over all live shards (sealed + open)
  // on up to num_threads workers (0 = DefaultThreads), global merge, cache
  // fill. Response ordering contract in serve/merge.h.
  QueryResponse Serve(const QueryRequest& request, size_t num_threads = 0);

  // Batch engine: results[i] carries exactly the hits, scores and index
  // counters Serve(requests[i]) returns, for any worker thread count —
  // cache decisions (including within-batch duplicates, which are computed
  // once and then served from the cache like sequential calls would be)
  // run serially in request order. Only the stats.cache_hits marker can
  // differ from interleaved sequential serving, and only under LRU
  // eviction pressure in the middle of the batch. Fan-out parallelises
  // over the (query, shard) grid of the unique cache misses.
  //
  // `server_spans[i]` (optional, may be shorter than `requests`) holds the
  // work the network front end did for request i before this call — HTTP
  // parse, queue wait — with absolute timestamps. It only shapes traces:
  // a traced request's spans, searcher stages included, count from the
  // earliest of them, so queue time shows up in the trace's total.
  std::vector<QueryResponse> BatchServe(
      std::span<const QueryRequest> requests, size_t num_threads = 0,
      std::span<const std::vector<obs::ServerSpan>> server_spans = {});

  // --- mutation API (serve/mutation.h; one error taxonomy) ---------------

  // Appends a record to the open shard and returns its global id
  // (InvalidArgument for an empty record); it answers exactly like a fresh
  // build over the live records from then on. The fold costs time linear
  // in the open shard's rows, so the open shard seals itself at
  // SealRows() rows. Invalidates the query cache.
  Result<RecordId> Ingest(Record record);

  // Tombstones the record with global id `id`: it stops appearing in query
  // responses immediately (hits and scores bit-identical to a service that
  // never held it) and its row is physically purged at the next merge
  // touching its shard. NotFound for an id that never existed or was
  // already purged; `noop` in the result for an id already tombstoned.
  // Invalidates the query cache and may trigger a background purge rewrite
  // (ServiceOptions::tombstone_purge_threshold).
  Result<MutationResult> Delete(RecordId id);

  // Seals the open shard: it takes no further rows and becomes eligible
  // for compaction. Nothing is rebuilt, so answers do not change. `noop`
  // in the result without an open shard. May trigger a background tiered
  // compaction (ServiceOptions::compaction_tier_ratio).
  Result<MutationResult> Promote();

  // Merge-compacts sealed promoted shards into one — at the index level for
  // GB-KMV/G-KMV (GbKmvIndexSearcher::Merge, no re-sketching), by a
  // deterministic rebuild over the surviving records for the other
  // methods — purging every tombstone in the merged range. options.all
  // merges all promoted shards (also a single tombstoned one, as a purge
  // rewrite); otherwise only the tiered policy's pick, which may be
  // nothing (`noop`). The result counts the shards merged and the
  // tombstones purged. The original partition is left untouched.
  // FailedPrecondition when a background compaction is already in flight.
  Result<MutationResult> Compact(const CompactOptions& options = {});

  // Blocks until any in-flight background compaction finishes and returns
  // its status (OK when none ran).
  Status WaitForBackgroundWork();

  // Rows at which the open shard seals itself:
  // config.sharded.auto_promote_records, or kDefaultSealRows when that is 0.
  static constexpr size_t kDefaultSealRows = 1024;
  size_t SealRows() const;

  // Sealed shards currently live (original partition + promotions); the
  // open shard is not counted.
  size_t num_shards() const;
  // Records across all shards, open included (tombstoned rows included
  // until their physical purge).
  size_t size() const;
  // Rows of the open shard (0 when there is none).
  size_t ingest_size() const;
  // Live tombstones across every shard (marked, not yet purged).
  size_t num_tombstones() const;
  uint64_t SpaceUnits() const;
  std::string method_name() const;
  const SearcherConfig& config() const { return config_; }
  QueryCacheStats cache_stats() const { return cache_.stats(); }

  // Shard i (sealed shards first, the open shard last); bench/test
  // introspection only.
  ShardView shard(size_t i) const;

  // Shard-manifest persistence: writes `dir/manifest.snap` plus one
  // snapshot per shard, the open shard included (searcher snapshot when the
  // method supports it, dataset snapshot + rebuild-on-load otherwise).
  // Load restores a service that answers bit-identically and resumes
  // Ingest with identical behaviour. The manifest meta kind is
  // io::kShardedManifestKind; docs/snapshot_format.md has every version
  // (v1/v2 still load — their separate ingest shard becomes one sealed
  // shard built with the service's method).
  //
  // Load checks that every shard file exists, then activates the shards
  // through PinShard, the one activation path: all of them before
  // returning by default, or — with options.max_resident_shards /
  // max_resident_bytes non-zero — each on its first query. Load rejects
  // global-id maps that break the merge invariant (ids not ascending in a
  // shard, an id in two shards, an id at or past the next global id) and
  // a base shard count above the shard count (Corruption). Every
  // activation verifies the file's row count against the manifest's
  // global-id map (Corruption), and a GB-KMV shard's sketcher against the
  // manifest's: an equal one is replaced by the manifest's shared copy, a
  // different one is Corruption. An activation that fails at serve time —
  // the snapshot was deleted or corrupted after Load — is a fatal check:
  // there is no per-response error channel, and serving without the shard
  // would silently drop its records. The lifecycle knobs
  // (compaction_tier_ratio with compaction_min_shards,
  // tombstone_purge_threshold) come from `options` when non-zero and from
  // the manifest otherwise; the partitioning and index knobs always come
  // from the manifest.
  static constexpr uint32_t kManifestVersion = 3;
  Status Save(const std::string& dir) const;
  static Result<std::unique_ptr<ShardedContainmentService>> Load(
      const std::string& dir, const ServiceOptions& options = {});

 private:
  // The resident payload of one shard. Queries pin it with a shared_ptr
  // before fanning out, so eviction (which only drops the Shard's
  // reference) never frees memory an in-flight batch is reading.
  // Declaration order is ownership order: the searcher may borrow from the
  // mapping and reference the dataset, so it is destroyed first.
  struct ActiveShard {
    std::shared_ptr<io::MmapSnapshot> mapping;  // mapped loads only
    std::unique_ptr<Dataset> dataset;           // null for mapped loads
    std::unique_ptr<ContainmentSearcher> searcher;
    uint64_t resident_bytes = 0;  // snapshot file size (activation cost)
  };

  struct Shard {
    // Null when evicted. Guarded by resident_mutex_ (mutable so the const
    // read paths can activate on demand). global_ids and snapshot_path
    // change only under the unique state lock (the open shard's, on each
    // Ingest) and need no extra lock.
    mutable std::shared_ptr<ActiveShard> active;
    std::vector<RecordId> global_ids;  // ascending
    // Tombstone mask over local rows (empty until the first Delete, then
    // global_ids.size() wide; nonzero = deleted). Written under the unique
    // state lock, read under the shared one — never touched by
    // resident_mutex_, so eviction and reactivation preserve it.
    std::vector<uint8_t> deleted;
    size_t num_deleted = 0;
    // Non-empty = the shard can be (re)activated from this snapshot file;
    // empty (built in memory) = permanently resident, never evicted.
    std::string snapshot_path;
    mutable uint64_t lru_stamp = 0;  // guarded by resident_mutex_
  };

  explicit ShardedContainmentService(const SearcherConfig& config)
      : config_(config), cache_(config.sharded.cache_capacity) {}

  // Builds a searcher over one shard dataset with the service's global
  // parameters. `num_threads` is the inner build parallelism.
  Result<std::unique_ptr<ContainmentSearcher>> BuildShardSearcher(
      const Dataset& shard_dataset, size_t num_threads) const;

  // A pinned payload plus its tombstone mask (null keeps every row).
  struct MergeInput {
    const ActiveShard* active = nullptr;
    const std::vector<uint8_t>* deleted = nullptr;
  };
  // Builds a resident shard payload over `records` (already normalised)
  // with the service's method and global parameters. When `records` are
  // exactly the surviving rows of `sources`, in order, GB-KMV/G-KMV merge
  // the sources at the index level (GbKmvIndexSearcher::Merge, nothing
  // re-sketched); otherwise the searcher is built afresh. Either way it
  // answers bit-identically. Build, Ingest's fold and compaction all use it.
  Result<std::shared_ptr<ActiveShard>> BuildShard(
      std::vector<Record> records, std::string name, size_t num_threads,
      std::span<const MergeInput> sources = {}) const;

  // The rows of a pinned shard: its resident dataset, or one read back
  // from its snapshot into `*reread` (mapped payloads keep theirs on disk).
  static Result<const Dataset*> ShardRows(const Shard& shard,
                                          const ActiveShard& active,
                                          std::unique_ptr<Dataset>* reread);

  // All shards but the open one. Requires state_mutex_.
  size_t SealedCountLocked() const {
    return shards_.size() - (has_open_shard_ ? 1 : 0);
  }
  // Seals the open shard; false when there is none. Requires state_mutex_
  // (unique).
  bool SealLocked();

  // The compaction worker body; requires the compaction in-flight token.
  // Merges sealed shards [lo, hi) — a single-shard range is a purge
  // rewrite — into one shard holding the surviving rows in the same order,
  // with a freeze -> build-unlocked -> swap discipline.
  // Tombstones set while the merge builds are re-applied to the merged
  // shard at swap time. `lo == hi` is a no-op. `purged_out` (optional)
  // receives the number of rows physically purged.
  Status DoCompactRange(size_t lo, size_t hi, size_t* purged_out = nullptr);

  // Waits for the latest background task (and so for every earlier one).
  void JoinBackgroundTask();

  // The tiered policy (docs/sharding.md "Shard lifecycle"): the maximal
  // newest-first suffix run of sealed promoted shards where each older
  // shard is at most compaction_tier_ratio times the run so far; {0,0}
  // when shorter than compaction_min_shards. Falls back to the single
  // most-tombstoned sealed shard past tombstone_purge_threshold. Requires
  // state_mutex_ (either mode).
  std::pair<size_t, size_t> PickCompactionRangeLocked() const;

  // Schedules DoCompactRange on the background pool when the policy picks
  // a range and no compaction is in flight. Requires state_mutex_
  // (unique); Submit only enqueues, so scheduling under the lock is safe.
  void MaybeScheduleCompactionLocked();

  // Loads a shard's payload from its snapshot_path: mapped when the format
  // and kind allow it (index/searcher_registry.h), copying otherwise,
  // dataset-snapshot + deterministic rebuild for methods without searcher
  // snapshots. Corruption when the file's row count differs from the
  // shard's global-id map. Called only by PinShard.
  Result<ActiveShard> LoadShardPayload(const Shard& shard) const;

  // Returns the shard's resident payload, activating it from
  // snapshot_path if evicted; bumps the LRU stamp and, after an
  // activation, evicts least-recently-used residents beyond the budget
  // (never `shard` itself). Caller must hold state_mutex_ (either mode).
  Result<std::shared_ptr<ActiveShard>> PinShard(const Shard& shard) const;

  // Drops LRU residents until the resident-shard budget holds, skipping
  // `keep` and shards with no snapshot to reactivate from. Requires
  // resident_mutex_ and state_mutex_ (either mode).
  void EvictOverBudgetLocked(const Shard* keep) const;
  void UpdateResidentGaugesLocked() const;

  // Persistent fan-out pool, (re)created only when the requested worker
  // count changes — thread spawn/join must not sit on the per-query
  // serving path. Concurrent callers share it (ParallelFor is reentrant);
  // a resize hands the old pool off via shared_ptr until its users drain.
  std::shared_ptr<ThreadPool> ServingPool(size_t num_threads);

  SearcherConfig config_;
  size_t minhash_size_hint_ = 0;  // global max |X| (kMinHashLsh only)
  // kGbKmv/kGKmv only. Every shard BuildShard creates shares it, directly
  // or through Merge's first source; a shard loaded from a file holds the
  // sketcher its file carries.
  std::shared_ptr<const GbKmvSketcher> global_sketcher_;

  // Guards every member below it.
  mutable std::shared_mutex state_mutex_;
  std::vector<Shard> shards_;
  size_t base_shard_count_ = 0;  // shards of the original partition
  // True when shards_.back() is the open shard: the one Ingest folds rows
  // into. Compaction never touches it.
  bool has_open_shard_ = false;
  RecordId next_global_id_ = 0;

  QueryResultCache cache_;

  // Resident-shard LRU state: guards every Shard::active / lru_stamp and
  // the clock. Taken after state_mutex_ (shared or unique), never before.
  mutable std::mutex resident_mutex_;
  mutable uint64_t lru_clock_ = 0;

  std::mutex serving_pool_mutex_;
  std::shared_ptr<ThreadPool> serving_pool_;
  size_t serving_pool_threads_ = 0;

  std::atomic<bool> compaction_in_flight_{false};
  // One background thread runs compactions in FIFO order; background_task_
  // holds the latest submission's future, and joining it implies every
  // earlier task finished.
  std::unique_ptr<ThreadPool> background_pool_;
  std::future<void> background_task_;
  Status background_status_;  // guarded by state_mutex_
};

// Facade entry point (core/containment.h): builds the service described by
// `config` — method, sketch knobs, and config.sharded — over `dataset`.
Result<std::unique_ptr<ShardedContainmentService>> BuildShardedService(
    const Dataset& dataset, const SearcherConfig& config);

}  // namespace serve
}  // namespace gbkmv

#endif  // GBKMV_SERVE_SHARDED_SERVICE_H_
