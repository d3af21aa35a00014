// Query API v2: typed request/response objects shared by every containment
// search method (docs/query_api.md).
//
// The Definition-3 query ("all X with C(Q,X) >= t*") is served through a
// QueryRequest and answered with a QueryResponse whose hits carry the score
// each method already computes internally — exact containment for the exact
// methods, the estimator's value for the sketch methods, re-estimated
// containment for the LSH methods — so ranking, top-k serving and threshold
// sweeps never re-estimate from scratch. Top-k uses a bounded heap over the
// threshold-passing stream (score-then-id ordering, so results are
// deterministic for any thread count) rather than post-filtering.

#ifndef GBKMV_INDEX_QUERY_H_
#define GBKMV_INDEX_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "data/record.h"
#include "storage/query_context.h"

namespace gbkmv {

using RecordId = uint32_t;

// One containment search. `record` is borrowed — it must outlive the call
// (requests are cheap value types, so batches are spans of these).
struct QueryRequest {
  const Record* record = nullptr;
  double threshold = 0.0;
  // Keep only the top_k best-scored qualifying hits; 0 = all of them.
  size_t top_k = 0;
  // When false (and top_k == 0) the searcher may skip score materialisation;
  // hit scores are then unspecified. Scores are always present with top_k.
  bool want_scores = true;
  // Caller intent marker for the diagnostics in QueryResponse::stats. The
  // counters are cheap (per-row, not per-posting), so searchers fill them
  // regardless; the flag lets front-ends decide whether to surface them.
  bool want_stats = false;
  // Rows this search treats as absent: a row whose byte is non-zero is
  // never a hit and never counts in stats.candidates_refined; rows past the
  // end of the mask are live. Borrowed like `record`. Not part of the
  // request's identity (the query cache ignores it): the sharded service
  // sets it on its per-shard copies to drop tombstoned rows.
  std::span<const uint8_t> excluded;

  // No default constructor: a request without a record is not a state any
  // SearchQ can serve, so it is unrepresentable.
  QueryRequest(const Record& r, double t) : record(&r), threshold(t) {}
};

// One qualifying record. `score` is the method's own containment value in
// [0, 1] (per-method definition in docs/query_api.md).
struct QueryHit {
  RecordId id = 0;
  float score = 0.0f;

  friend bool operator==(const QueryHit&, const QueryHit&) = default;
};

// Deterministic result ranking: higher score first, ties by ascending id.
inline bool BetterHit(float score_a, RecordId id_a, float score_b,
                      RecordId id_b) {
  return score_a != score_b ? score_a > score_b : id_a < id_b;
}

// What the index did for one query (per-method glossary in
// docs/query_api.md). Invariant: candidates_refined <= candidates_generated.
struct QueryStats {
  // Records that survived the method's cheap filters and were scored or
  // verified.
  uint64_t candidates_generated = 0;
  // Scored candidates that qualified (hit count before top-k truncation).
  uint64_t candidates_refined = 0;
  // Index entries read to generate the candidates: posting-list entries for
  // the inverted-index methods, merged sketch values for the pairwise
  // estimators, bucket entries for the LSH methods.
  uint64_t postings_scanned = 0;
  // Qualifying hits discarded by the bounded top-k heap (0 when top_k == 0).
  uint64_t heap_evictions = 0;
  // Serving-layer counters (src/serve, docs/sharding.md); always 0 for a
  // response produced by a searcher directly. shards_queried is the number
  // of index shards the sharded service fanned this query out to;
  // cache_hits is 1 when the response was served from the query-result
  // cache without touching any shard.
  uint64_t shards_queried = 0;
  uint64_t cache_hits = 0;

  friend bool operator==(const QueryStats&, const QueryStats&) = default;
};

struct QueryResponse {
  // top_k > 0: the k best by (score desc, id asc), in that order.
  // top_k == 0, want_scores: every qualifying record, ascending id.
  // top_k == 0, !want_scores (the boolean path): every qualifying record in
  //   the method's natural emission order — deterministic, but unspecified
  //   beyond that, exactly like the legacy Search contract; skipping the
  //   id-sort keeps the boolean path at legacy speed.
  std::vector<QueryHit> hits;
  QueryStats stats;

  friend bool operator==(const QueryResponse&, const QueryResponse&) =
      default;
};

// Accumulates the threshold-passing stream of one SearchQ call into a
// QueryResponse: unlimited queries append and id-sort, top-k queries keep a
// bounded heap in the QueryContext's reusable buffer. Add() drops the
// request's excluded rows before anything else, so every searcher honours
// the mask without knowing about it. Finish() must be called exactly once;
// it also sets stats.candidates_refined to the number of hits Add() kept
// (every qualifying, non-excluded hit, kept in the result or evicted).
class HitCollector {
 public:
  HitCollector(const QueryRequest& request, QueryContext& ctx,
               QueryResponse* response)
      : response_(response),
        top_k_(request.top_k),
        // Saturating: a pathological top_k near SIZE_MAX (e.g. a CLI "-1"
        // pushed through a size_t cast) must not wrap the lazy-window bound
        // below top_k and send the overflow branch past hits.size().
        lazy_limit_(top_k_ > std::numeric_limits<size_t>::max() -
                                 kLazyHeapSlack
                        ? std::numeric_limits<size_t>::max()
                        : top_k_ + kLazyHeapSlack),
        sort_unlimited_(request.want_scores),
        excluded_(request.excluded),
        heap_(ctx.ScoreHeap()) {
    heap_.clear();
  }

  // How far past k the top-k path keeps appending before it switches to the
  // bounded heap. For result sets up to k + slack, top-k costs exactly what
  // the scored unlimited query costs (append, one final sort) — for small
  // overshoots the heap bookkeeping is slower than just sorting the lot.
  static constexpr size_t kLazyHeapSlack = 64;

  void Add(RecordId id, double score) {
    if (id < excluded_.size() && excluded_[id] != 0) return;
    ++added_;
    const float s = static_cast<float>(score);
    if (top_k_ == 0 ||
        (!overflowed_ && response_->hits.size() < lazy_limit_)) {
      // Unlimited, or top-k still within the lazy window: plain append into
      // the response — the heap buffer is untouched.
      response_->hits.push_back({id, s});
      return;
    }
    if (!overflowed_) {
      // The lazy window overflowed: keep the k best collected so far in the
      // reusable heap buffer (worst at the root), discard the rest.
      std::vector<QueryHit>& hits = response_->hits;
      std::sort(hits.begin(), hits.end(),
                [](const QueryHit& a, const QueryHit& b) {
                  return BetterHit(a.score, a.id, b.score, b.id);
                });
      heap_.clear();
      for (size_t i = 0; i < top_k_; ++i) {
        heap_.push_back({hits[i].score, hits[i].id});
      }
      std::make_heap(heap_.begin(), heap_.end(), HeapOrder);
      evictions_ += hits.size() - top_k_;
      hits.clear();
      overflowed_ = true;
    }
    // Heap full: one qualifying hit is discarded either way — the incoming
    // one, or the current worst if the incoming hit beats it (replace the
    // root and sift down once; half the work of pop_heap + push_heap).
    // Evictions accumulate locally and flush in Finish() — a per-eviction
    // store through response_ is measurable on unselective queries.
    ++evictions_;
    const auto [worst_score, worst_id] = heap_.front();
    if (BetterHit(s, id, worst_score, worst_id)) {
      heap_.front() = {s, id};
      SiftDown();
    }
  }

  void Finish() {
    response_->stats.candidates_refined = added_;
    response_->stats.heap_evictions = evictions_;
    std::vector<QueryHit>& hits = response_->hits;
    if (top_k_ == 0) {
      if (sort_unlimited_) {
        std::sort(hits.begin(), hits.end(),
                  [](const QueryHit& a, const QueryHit& b) {
                    return a.id < b.id;
                  });
      }
      return;
    }
    if (!overflowed_) {  // the lazy window held: rank, then truncate to k
      std::sort(hits.begin(), hits.end(),
                [](const QueryHit& a, const QueryHit& b) {
                  return BetterHit(a.score, a.id, b.score, b.id);
                });
      if (hits.size() > top_k_) {
        evictions_ += hits.size() - top_k_;
        response_->stats.heap_evictions = evictions_;
        hits.resize(top_k_);
      }
      return;
    }
    std::sort(heap_.begin(), heap_.end(), HeapOrder);
    hits.reserve(heap_.size());
    for (const auto& [score, id] : heap_) hits.push_back({id, score});
  }

 private:
  // Heap comparator ("better" ordering): std::make_heap keeps the maximum
  // per this order at the front, i.e. the WORST kept hit — exactly what a
  // bounded best-k heap evicts first.
  static bool HeapOrder(const std::pair<float, uint32_t>& a,
                        const std::pair<float, uint32_t>& b) {
    return BetterHit(a.first, a.second, b.first, b.second);
  }

  // Restores the heap property after replacing the root.
  void SiftDown() {
    const size_t n = heap_.size();
    size_t i = 0;
    for (;;) {
      size_t largest = i;
      const size_t left = 2 * i + 1;
      const size_t right = left + 1;
      if (left < n && HeapOrder(heap_[largest], heap_[left])) largest = left;
      if (right < n && HeapOrder(heap_[largest], heap_[right])) {
        largest = right;
      }
      if (largest == i) return;
      std::swap(heap_[i], heap_[largest]);
      i = largest;
    }
  }

  QueryResponse* response_;
  size_t top_k_;
  size_t lazy_limit_;  // top_k_ + kLazyHeapSlack, saturating
  bool sort_unlimited_;
  std::span<const uint8_t> excluded_;
  bool overflowed_ = false;  // top-k only: more than k hits seen
  uint64_t added_ = 0;
  uint64_t evictions_ = 0;
  std::vector<std::pair<float, uint32_t>>& heap_;
};

}  // namespace gbkmv

#endif  // GBKMV_INDEX_QUERY_H_
