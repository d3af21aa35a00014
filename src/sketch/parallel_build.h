// Parallel sketch construction over a Dataset, for the sketch families that
// keep one sketch object per record (KMV, MinHash; GB-KMV and G-KMV write a
// flat store instead, GbKmvIndexSearcher::CreateWithSketcher). Every
// record's sketch is a pure function of (record, sketch parameters), so a
// ParallelFor that writes each result into its pre-sized slot yields output
// byte-identical to the sequential loop for any thread count.
//
// All entry points accept a nullable ThreadPool: pool == nullptr (or a
// single-worker pool) runs sequentially, so callers can thread one optional
// pool through their build path without branching.

#ifndef GBKMV_SKETCH_PARALLEL_BUILD_H_
#define GBKMV_SKETCH_PARALLEL_BUILD_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "sketch/kmv.h"
#include "sketch/minhash.h"

namespace gbkmv {

// out[i] = fn(i) for i in [0, n); deterministic for any pool size. `fn` must
// be safe to call concurrently for distinct i. The default grain targets a
// few chunks per worker so uneven record sizes still balance.
template <typename T, typename Fn>
std::vector<T> ParallelMapIndex(ThreadPool* pool, size_t n, Fn&& fn) {
  std::vector<T> out(n);
  if (pool == nullptr || pool->num_threads() == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) out[i] = fn(i);
    return out;
  }
  const size_t grain =
      std::max<size_t>(1, n / (8 * pool->num_threads()));
  pool->ParallelFor(0, n, grain,
                    [&](size_t begin, size_t end, size_t /*chunk*/) {
                      for (size_t i = begin; i < end; ++i) out[i] = fn(i);
                    });
  return out;
}

// KMV: fixed capacity k per record (Theorem-1 allocation).
std::vector<KmvSketch> BuildKmvSketchesParallel(const Dataset& dataset,
                                                size_t k, uint64_t seed,
                                                ThreadPool* pool);

// MinHash: one signature per record under a shared hash family.
std::vector<MinHashSignature> BuildSketchesParallel(const Dataset& dataset,
                                                    const HashFamily& family,
                                                    ThreadPool* pool);

}  // namespace gbkmv

#endif  // GBKMV_SKETCH_PARALLEL_BUILD_H_
