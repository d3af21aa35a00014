// Public facade: build any containment-similarity search method over a
// dataset with one call. This is the API the examples and the experiment
// harnesses use.
//
// Typical usage:
//
//   auto dataset = gbkmv::Dataset::Create(std::move(records));
//   gbkmv::SearcherConfig config;                 // GB-KMV, 10% space
//   auto searcher = gbkmv::BuildSearcher(*dataset, config);
//
//   // Query API v2 (docs/query_api.md): scored, top-k, stats-carrying.
//   gbkmv::SearchOptions options;
//   options.top_k = 10;
//   auto response = (*searcher)->SearchQ(
//       gbkmv::MakeQueryRequest(query, /*threshold=*/0.5, options),
//       gbkmv::ThreadLocalQueryContext());
//   for (const auto& hit : response.hits) { /* hit.id, hit.score */ }
//
//   // Legacy boolean path (thin wrapper over SearchQ):
//   auto ids = (*searcher)->Search(query, /*threshold=*/0.5);

#ifndef GBKMV_CORE_CONTAINMENT_H_
#define GBKMV_CORE_CONTAINMENT_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "data/dataset.h"
#include "index/gbkmv_index.h"
#include "index/inverted_index.h"
#include "index/lsh_ensemble.h"
#include "index/searcher.h"

namespace gbkmv {

enum class SearchMethod {
  kGbKmv,         // the paper's method, cost-model buffer (default)
  kGKmv,          // GB-KMV with buffer disabled (ablation)
  kKmv,           // plain KMV with Theorem-1 allocation (ablation)
  kLshEnsemble,   // Zhu et al. baseline
  kMinHashLsh,    // un-partitioned MinHash LSH baseline
  kAsymmetricMinHash,  // Shrivastava & Li padding baseline
  kPPJoin,        // exact (prefix + positional filtering)
  kFreqSet,       // exact (inverted-list ScanCount)
  kBruteForce,    // exact (linear scan), ground-truth oracle
};

// Parses a method name, case-insensitive. Accepted spellings (exactly the
// comparisons below — keep this list in sync with the parser):
//   "gb-kmv" | "gbkmv"                     -> kGbKmv
//   "g-kmv" | "gkmv"                       -> kGKmv
//   "kmv"                                  -> kKmv
//   "lsh-e" | "lshe" | "lsh-ensemble"      -> kLshEnsemble
//   "minhash-lsh" | "mh-lsh"               -> kMinHashLsh
//   "a-mh" | "amh" | "asymmetric-minhash"  -> kAsymmetricMinHash
//   "ppjoin" | "ppjoin*"                   -> kPPJoin
//   "freqset"                              -> kFreqSet
//   "brute-force" | "bruteforce" | "exact" -> kBruteForce
// Returns InvalidArgument for anything else.
Result<SearchMethod> ParseSearchMethod(const std::string& name);

// Parses a posting-store backend name, case-insensitive:
//   "flat" -> kFlat, "compressed" -> kCompressed.
// Returns InvalidArgument for anything else.
Result<PostingStoreKind> ParsePostingStoreKind(const std::string& name);

// Record-independent query options (query API v2); combine with a record +
// threshold via MakeQueryRequest to issue requests. Field semantics in
// index/query.h.
struct SearchOptions {
  size_t top_k = 0;         // 0 = all qualifying records
  bool want_scores = true;
  bool want_stats = false;
};

// Builds a QueryRequest from the facade's option struct. `record` is
// borrowed and must outlive the request.
QueryRequest MakeQueryRequest(const Record& record, double threshold,
                              const SearchOptions& options);

// How the sharded service (src/serve) splits a dataset across shards.
enum class ShardPartitioner {
  kHash,            // shard = content-hash(record) mod S — uniform by count
  kSizeStratified,  // size-sorted round robin — uniform by size profile
};

// Parses a partitioner name, case-insensitive: "hash" -> kHash,
// "size" | "size-stratified" -> kSizeStratified.
Result<ShardPartitioner> ParseShardPartitioner(const std::string& name);

// Every knob of the sharded service in one documented struct (consumed by
// BuildShardedService / ShardedContainmentService::{Build,Load}; ignored by
// plain BuildSearcher). Semantics in docs/sharding.md; the lifecycle knobs
// (compaction_*, tombstone_purge_threshold) are covered by the "Shard
// lifecycle" section there.
struct ServiceOptions {
  // Number of index shards; clamped to the record count. 0 behaves as 1.
  size_t num_shards = 1;
  ShardPartitioner partitioner = ShardPartitioner::kHash;
  // Query-result cache capacity in entries; 0 disables the cache.
  size_t cache_capacity = 0;
  // Seal the open shard (the one Ingest folds rows into) once it holds
  // this many records; 0 = ShardedContainmentService::kDefaultSealRows
  // (1024). Each fold costs time linear in the open shard's rows, so it is
  // always bounded.
  size_t auto_promote_records = 0;
  // Resident-shard budget for services restored with Load (docs/sharding.md
  // "Larger than RAM"). When either limit is non-zero, Load defers every
  // shard: the manifest alone is read up front and each shard's snapshot is
  // mapped (or loaded) on the first query that needs it, with the
  // least-recently-used resident shards unmapped once the budget is
  // exceeded. 0/0 (default) keeps the eager behaviour: all shards load
  // inside Load. Ignored by Build (built shards have no backing file to
  // reactivate from).
  size_t max_resident_shards = 0;
  uint64_t max_resident_bytes = 0;
  // Tiered compaction (docs/sharding.md "Shard lifecycle"). After every
  // promotion the service scans the promoted shards newest-to-oldest and
  // accumulates a "run": shard j-1 joins while size(j-1) <=
  // compaction_tier_ratio * (run size so far). A run of at least
  // compaction_min_shards triggers a background merge-compaction of exactly
  // those shards. 0 disables automatic compaction (explicit Compact() still
  // works).
  double compaction_tier_ratio = 0.0;
  size_t compaction_min_shards = 2;
  // Rewrite (purge) a promoted shard in the background once its tombstone
  // fraction num_deleted / num_rows reaches this threshold; 0 disables
  // automatic purging (tombstones still purge on every merge).
  double tombstone_purge_threshold = 0.0;
};

struct SearcherConfig {
  SearchMethod method = SearchMethod::kGbKmv;
  // Sketch budget as a fraction of total elements (GB-KMV/G-KMV/KMV).
  double space_ratio = 0.10;
  // Buffer width for GB-KMV; kAutoBuffer = use the cost model.
  size_t buffer_bits = GbKmvIndexOptions::kAutoBuffer;
  // LSH-E knobs (paper defaults).
  size_t lshe_num_hashes = 256;
  size_t lshe_num_partitions = 32;
  uint64_t seed = kDefaultSketchSeed;
  // Posting-list backend of the inverted-index methods (FreqSet): kFlat for
  // the fastest scans, kCompressed for delta + bit-packed blocks at a
  // fraction of the footprint. Results are bit-identical either way; other
  // methods ignore the knob.
  PostingStoreKind posting_store = PostingStoreKind::kFlat;
  // Build parallelism (sharded builds merge in shard order, so the index is
  // byte-identical for any value). 0 = DefaultThreads(), 1 = serial.
  size_t num_threads = 0;
  // Sharded-serving layer (BuildShardedService only).
  ServiceOptions sharded;
};

// Builds the configured searcher. The dataset must outlive the searcher.
Result<std::unique_ptr<ContainmentSearcher>> BuildSearcher(
    const Dataset& dataset, const SearcherConfig& config);

}  // namespace gbkmv

#endif  // GBKMV_CORE_CONTAINMENT_H_
