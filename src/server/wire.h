// Wire bodies for the network serving front end (docs/serving.md).
//
// Requests and responses use a compact JSON subset: one object, string
// keys, number / bool / array-of-uint values. The hand-rolled parser keeps
// the server dependency-free and rejects anything outside that subset with
// a message suitable for a 400 body. Unknown keys are skipped (forward
// compatibility), trailing garbage is an error.
//
// Score serialization round-trips exactly: floats print with enough digits
// ("%.9g") that parsing them back yields the bit-identical float, which is
// what lets tests compare a served response against a direct Serve() call.

#ifndef GBKMV_SERVER_WIRE_H_
#define GBKMV_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/record.h"
#include "index/query.h"

namespace gbkmv {
namespace server {

// POST /v1/query body:
//   {"elements": [1, 7, 42], "threshold": 0.6, "top_k": 10,
//    "scores": true, "stats": false}
// `elements` is required; everything else defaults as below.
struct QueryBody {
  Record elements;  // normalised (MakeRecord) — sorted unique
  double threshold = 0.0;
  bool has_threshold = false;  // false -> server default applies
  size_t top_k = 0;
  bool want_scores = true;
  bool want_stats = false;
};

Result<QueryBody> ParseQueryBody(std::string_view json);

// POST /admin/reload body: {"dir": "/path/to/manifest"}.
struct ReloadBody {
  std::string dir;
};

Result<ReloadBody> ParseReloadBody(std::string_view json);

// POST /v1/ingest body: {"elements": [1, 7, 42]} — required, non-empty.
struct IngestBody {
  Record elements;  // normalised (MakeRecord) — sorted unique
};

Result<IngestBody> ParseIngestBody(std::string_view json);

// POST /v1/delete body: {"id": 123} — the global record id to tombstone.
struct DeleteBody {
  RecordId id = 0;
};

Result<DeleteBody> ParseDeleteBody(std::string_view json);

// POST /admin/compact body: {"all": false}. An empty body (or {}) means
// the default: merge all promoted shards.
struct CompactBody {
  bool all = true;
};

Result<CompactBody> ParseCompactBody(std::string_view json);

// 200 body for /v1/query:
//   {"epoch": 2, "hits": [{"id": 3, "score": 0.75}, ...],
//    "stats": {...}}            (stats only when want_stats)
// Hit scores are omitted (ids only) when want_scores is false.
std::string SerializeQueryResponse(const QueryResponse& response,
                                   uint64_t epoch, bool want_scores,
                                   bool want_stats);

// Error body: {"error": "message"} (message JSON-escaped).
std::string SerializeError(std::string_view message);

// Mutation 200 bodies (docs/serving.md). Every response carries the
// serving epoch the mutation applied to, mirroring /v1/query.
//   /v1/ingest:     {"epoch": 3, "id": 412}
//   /v1/delete:     {"epoch": 3, "id": 17, "deleted": true}
//                   (deleted=false -> the id was already tombstoned)
//   /admin/promote: {"epoch": 3, "promoted": true}
//                   (promoted=false -> no open shard to seal)
//   /admin/compact: {"epoch": 3, "shards_merged": 4,
//                    "tombstones_purged": 9, "noop": false}
std::string SerializeIngestResult(uint64_t epoch, RecordId id);
std::string SerializeDeleteResult(uint64_t epoch, RecordId id, bool deleted);
std::string SerializePromoteResult(uint64_t epoch, bool promoted);
std::string SerializeCompactResult(uint64_t epoch, size_t shards_merged,
                                   size_t tombstones_purged, bool noop);

// Parsed /v1/query response — the client half, used by tests and
// bench/serve_latency.cc to check served results against direct Serve().
// Scores parse back bit-identically (see header comment).
struct WireQueryResult {
  uint64_t epoch = 0;
  std::vector<QueryHit> hits;
};

Result<WireQueryResult> ParseQueryResult(std::string_view json);

}  // namespace server
}  // namespace gbkmv

#endif  // GBKMV_SERVER_WIRE_H_
