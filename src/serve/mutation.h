// Typed mutation surface of the sharded service (docs/sharding.md "Shard
// lifecycle").
//
// Every way the service can change — ingest a record, tombstone one,
// seal the open shard, merge-compact promoted shards — goes through
// one request/result vocabulary with one error taxonomy:
//
//   InvalidArgument    malformed input (empty record, bad options)
//   NotFound           Delete of an id that never existed or was purged
//   FailedPrecondition mutation cannot run now (compaction already in
//                      flight)
//   Internal/other     build or I/O failure surfaced from below
//
// The service methods (serve/sharded_service.h) take these types directly:
//   Result<RecordId>        Ingest(Record)
//   Result<MutationResult>  Delete(RecordId)
//   Status                  Promote()
//   Status                  Compact(CompactOptions)
//   Result<MutationResult>  Apply(MutationRequest)   — uniform dispatch
//
// The HTTP front end (docs/serving.md) maps the same Status codes onto
// 400/404/409/500 for POST /v1/ingest, /v1/delete, /admin/promote and
// /admin/compact.

#ifndef GBKMV_SERVE_MUTATION_H_
#define GBKMV_SERVE_MUTATION_H_

#include <cstdint>

#include "data/record.h"
#include "index/searcher.h"

namespace gbkmv {
namespace serve {

enum class MutationKind {
  kIngest,   // append a record to the open shard
  kDelete,   // tombstone a record by global id
  kPromote,  // seal the open shard into an immutable promoted shard
  kCompact,  // merge-compact promoted shards (purges tombstones)
};

// Options for Compact(). Default: merge every promoted shard into one.
struct CompactOptions {
  // When false and the service has a tiered policy configured
  // (ServiceOptions::compaction_tier_ratio > 0), compact only the shards
  // the policy selects (no-op if the policy is quiet). When true, merge
  // ALL promoted shards regardless of policy.
  bool all = true;
};

// One mutation, dispatchable via ShardedContainmentService::Apply. The
// record is borrowed for kIngest; unused fields are ignored.
struct MutationRequest {
  MutationKind kind = MutationKind::kIngest;
  Record record;          // kIngest
  RecordId id = 0;        // kDelete
  CompactOptions compact;  // kCompact
};

// What a mutation did. `id` is the assigned global id (kIngest) or the
// tombstoned id (kDelete); `noop` is true when the mutation changed
// nothing (double-delete of an already-tombstoned id, promote with no
// open shard, compact with fewer than two promoted shards).
struct MutationResult {
  MutationKind kind = MutationKind::kIngest;
  RecordId id = 0;
  bool noop = false;
  // kCompact: how many promoted shards were merged away, and how many
  // tombstoned rows were physically purged in the rewrite.
  size_t shards_merged = 0;
  size_t tombstones_purged = 0;
};

}  // namespace serve
}  // namespace gbkmv

#endif  // GBKMV_SERVE_MUTATION_H_
