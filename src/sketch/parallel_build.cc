#include "sketch/parallel_build.h"

namespace gbkmv {

std::vector<KmvSketch> BuildKmvSketchesParallel(const Dataset& dataset,
                                                size_t k, uint64_t seed,
                                                ThreadPool* pool) {
  return ParallelMapIndex<KmvSketch>(pool, dataset.size(), [&](size_t i) {
    return KmvSketch::Build(dataset.record(i), k, seed);
  });
}

std::vector<MinHashSignature> BuildSketchesParallel(const Dataset& dataset,
                                                    const HashFamily& family,
                                                    ThreadPool* pool) {
  return ParallelMapIndex<MinHashSignature>(pool, dataset.size(),
                                            [&](size_t i) {
    return MinHashSignature::Build(dataset.record(i), family);
  });
}

}  // namespace gbkmv
