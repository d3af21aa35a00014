// Snapshot-load harness: what the zero-copy mmap path (src/io,
// docs/snapshot_format.md §v3) buys at serve startup, emitted as
// BENCH_snapshot_load.json so the nightly job can gate on it.
//
// Four measurements over one saved sharded service (S shards, gb-kmv):
//   * cold_load     — wall time of ShardedContainmentService::Load until the
//                     service accepts queries: the copying loader
//                     (GBKMV_FORCE_COPY_LOAD=1, every payload read + copied),
//                     the eager mapped loader (payloads mapped, CRC pass
//                     only), and the lazy mapped loader (manifest only,
//                     shards activate on first pin; docs/sharding.md "Larger
//                     than RAM"). The nightly gate reads
//                     lazy vs copying: >= 5x.
//   * single_snapshot — one shard file through LoadSearcherSnapshotAuto,
//                     mapped vs forced-copy, the per-activation cost.
//   * first_query   — Serve latency on a budget-constrained lazy service
//                     (max_resident_shards = S/2, so every query reactivates
//                     evicted shards) vs a fully resident service: the
//                     eviction penalty a larger-than-RAM deployment pays.
//   * steady_state  — BatchServe QPS, mapped vs copying, both fully
//                     resident. Served bytes are identical either way
//                     (bit-identical-serve invariant), so the nightly gate
//                     requires parity: |delta| <= 5%.
//
// Flags: --records=N --universe=N --queries=N --threshold=T --shards=S
//        --topk=K --threads=N --reps=N --out=PATH --smoke --check
// --check exits 1 when a gate fails (the nightly leg sets it).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/containment.h"
#include "data/synthetic.h"
#include "eval/ground_truth.h"
#include "index/searcher_registry.h"
#include "serve/sharded_service.h"

namespace gbkmv {
namespace {

struct Options {
  size_t num_records = 20000;
  size_t universe_size = 60000;
  size_t num_queries = 200;
  double threshold = 0.5;
  size_t num_shards = 8;
  size_t top_k = 10;
  size_t num_threads = 0;
  int reps = 5;
  std::string out_path = "BENCH_snapshot_load.json";
  bool smoke = false;
  bool check = false;
};

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--records=")) {
      opt.num_records =
          static_cast<size_t>(bench::ParseFlagU64("--records", v));
    } else if (const char* v = value("--universe=")) {
      opt.universe_size =
          static_cast<size_t>(bench::ParseFlagU64("--universe", v));
    } else if (const char* v = value("--queries=")) {
      opt.num_queries =
          static_cast<size_t>(bench::ParseFlagU64("--queries", v));
    } else if (const char* v = value("--threshold=")) {
      opt.threshold = bench::ParseFlagF64("--threshold", v);
    } else if (const char* v = value("--shards=")) {
      opt.num_shards = static_cast<size_t>(bench::ParseFlagU64("--shards", v));
    } else if (const char* v = value("--topk=")) {
      opt.top_k = static_cast<size_t>(bench::ParseFlagU64("--topk", v));
    } else if (const char* v = value("--threads=")) {
      opt.num_threads =
          static_cast<size_t>(bench::ParseFlagU64("--threads", v));
    } else if (const char* v = value("--reps=")) {
      opt.reps =
          std::max(1, static_cast<int>(bench::ParseFlagU64("--reps", v)));
    } else if (const char* v = value("--out=")) {
      opt.out_path = v;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--check") {
      opt.check = true;
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s'\nusage: snapshot_load [--records=N] "
                   "[--universe=N] [--queries=N] [--threshold=T] [--shards=S] "
                   "[--topk=K] [--threads=N] [--reps=N] [--out=PATH] "
                   "[--smoke] [--check]\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  if (opt.smoke) {
    opt.num_records = 600;
    opt.universe_size = 4000;
    opt.num_queries = 40;
    opt.num_shards = 4;
    opt.reps = 2;
  }
  if (opt.num_threads == 0) opt.num_threads = DefaultThreads();
  if (opt.num_shards == 0) opt.num_shards = 1;
  return opt;
}

void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

using serve::ShardedContainmentService;

// Minimum over reps of one timed load; the loaded service from the last rep
// is handed back so callers can query it.
template <typename LoadFn>
double TimeLoad(int reps, LoadFn&& load,
                std::unique_ptr<ShardedContainmentService>* out) {
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    Result<std::unique_ptr<ShardedContainmentService>> service = load();
    const double seconds = timer.ElapsedSeconds();
    if (!service.ok()) Die("service load", service.status());
    best = std::min(best, seconds);
    if (out != nullptr) *out = std::move(service.value());
  }
  return best;
}

// One timed BatchServe over `requests`.
double TimeBatch(ShardedContainmentService& service,
                 const std::vector<QueryRequest>& requests, size_t threads) {
  WallTimer timer;
  const auto responses = service.BatchServe(requests, threads);
  const double seconds = timer.ElapsedSeconds();
  if (responses.size() != requests.size()) std::abort();
  return seconds;
}

int Main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  SetDefaultThreads(opt.num_threads);

  SyntheticConfig config;
  config.name = "snapshot-load-bench";
  config.num_records = opt.num_records;
  config.universe_size = opt.universe_size;
  config.min_record_size = 10;
  config.max_record_size = opt.smoke ? 120 : 500;
  config.alpha_element_freq = 1.1;
  config.alpha_record_size = 2.0;
  config.seed = 20260808;
  Result<Dataset> dataset = GenerateSynthetic(config);
  if (!dataset.ok()) Die("dataset generation", dataset.status());

  SearcherConfig searcher_config;
  searcher_config.method = SearchMethod::kGbKmv;
  searcher_config.num_threads = opt.num_threads;
  searcher_config.sharded.num_shards = opt.num_shards;
  Result<std::unique_ptr<ShardedContainmentService>> built =
      serve::BuildShardedService(*dataset, searcher_config);
  if (!built.ok()) Die("service build", built.status());
  const size_t S = (*built)->num_shards();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "gbkmv_snapshot_load_bench")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  if (Status s = (*built)->Save(dir); !s.ok()) Die("service save", s);
  uint64_t snapshot_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    snapshot_bytes += std::filesystem::file_size(entry.path());
  }

  std::vector<QueryRequest> requests;
  std::vector<Record> queries;
  queries.reserve(opt.num_queries);
  for (RecordId id : SampleQueries(*dataset, opt.num_queries, /*seed=*/4711)) {
    queries.push_back(dataset->record(id));
  }
  requests.reserve(queries.size());
  for (const Record& q : queries) {
    QueryRequest request(q, opt.threshold);
    request.top_k = opt.top_k;
    requests.push_back(request);
  }

  // --- cold load: copying vs mapped (eager) vs mapped (lazy manifest) ----
  std::unique_ptr<ShardedContainmentService> copying_service;
  ::setenv("GBKMV_FORCE_COPY_LOAD", "1", /*overwrite=*/1);
  const double copy_load_seconds = TimeLoad(
      opt.reps, [&] { return ShardedContainmentService::Load(dir); },
      &copying_service);
  ::unsetenv("GBKMV_FORCE_COPY_LOAD");

  std::unique_ptr<ShardedContainmentService> mapped_service;
  const double mmap_eager_seconds = TimeLoad(
      opt.reps, [&] { return ShardedContainmentService::Load(dir); },
      &mapped_service);

  ServiceOptions lazy_options;
  lazy_options.max_resident_shards = S;
  const double mmap_lazy_seconds = TimeLoad(
      opt.reps, [&] { return ShardedContainmentService::Load(dir, lazy_options); },
      nullptr);
  const double cold_load_speedup =
      mmap_lazy_seconds > 0 ? copy_load_seconds / mmap_lazy_seconds : 0.0;

  // --- single snapshot: one shard file through the auto loader -----------
  const std::string shard_path = dir + "/shard-000.snap";
  double single_mmap_seconds = 1e300;
  double single_copy_seconds = 1e300;
  for (int rep = 0; rep < opt.reps; ++rep) {
    {
      WallTimer timer;
      Result<MappedSearcher> mapped = LoadSearcherSnapshotAuto(shard_path);
      if (!mapped.ok()) Die("mapped shard load", mapped.status());
      if (!mapped->mapped()) {
        std::fprintf(stderr, "shard snapshot did not take the mapped path\n");
        return 1;
      }
      single_mmap_seconds = std::min(single_mmap_seconds, timer.ElapsedSeconds());
    }
    {
      ::setenv("GBKMV_FORCE_COPY_LOAD", "1", 1);
      WallTimer timer;
      Result<MappedSearcher> copied = LoadSearcherSnapshotAuto(shard_path);
      if (!copied.ok()) Die("copying shard load", copied.status());
      single_copy_seconds = std::min(single_copy_seconds, timer.ElapsedSeconds());
      ::unsetenv("GBKMV_FORCE_COPY_LOAD");
    }
  }

  // --- first-query latency under an eviction budget ----------------------
  // max_resident_shards = S/2: between queries the LRU evicts down to the
  // budget, so every Serve reactivates evicted shards — the worst-case
  // first-query path of a larger-than-RAM deployment.
  ServiceOptions tight;
  tight.max_resident_shards = std::max<size_t>(1, S / 2);
  Result<std::unique_ptr<ShardedContainmentService>> constrained =
      ShardedContainmentService::Load(dir, tight);
  if (!constrained.ok()) Die("constrained load", constrained.status());
  double evicted_query_seconds = 1e300;
  double warm_query_seconds = 1e300;
  const size_t probes = std::min<size_t>(requests.size(), 16);
  for (int rep = 0; rep < opt.reps; ++rep) {
    double evicted_sum = 0.0;
    double warm_sum = 0.0;
    for (size_t q = 0; q < probes; ++q) {
      WallTimer timer;
      (void)(*constrained)->Serve(requests[q], /*num_threads=*/1);
      evicted_sum += timer.ElapsedSeconds();
      WallTimer warm_timer;
      (void)mapped_service->Serve(requests[q], /*num_threads=*/1);
      warm_sum += warm_timer.ElapsedSeconds();
    }
    evicted_query_seconds =
        std::min(evicted_query_seconds, evicted_sum / probes);
    warm_query_seconds = std::min(warm_query_seconds, warm_sum / probes);
  }

  // --- steady-state throughput parity ------------------------------------
  // Reps are interleaved (copy, mmap, copy, mmap, ...) so slow clock /
  // thermal drift over the run hits both loaders equally; each side takes
  // the min over its reps.
  (void)copying_service->BatchServe(requests, opt.num_threads);  // warm-up
  (void)mapped_service->BatchServe(requests, opt.num_threads);
  double copy_batch_seconds = 1e300;
  double mmap_batch_seconds = 1e300;
  for (int rep = 0; rep < opt.reps; ++rep) {
    copy_batch_seconds =
        std::min(copy_batch_seconds,
                 TimeBatch(*copying_service, requests, opt.num_threads));
    mmap_batch_seconds =
        std::min(mmap_batch_seconds,
                 TimeBatch(*mapped_service, requests, opt.num_threads));
  }
  const double n = static_cast<double>(requests.size());
  const double copy_qps = n / copy_batch_seconds;
  const double mmap_qps = n / mmap_batch_seconds;
  const double qps_delta = std::abs(mmap_qps - copy_qps) / copy_qps;

  const bool cold_load_pass = cold_load_speedup >= 5.0;
  const bool qps_pass = qps_delta <= 0.05;

  std::printf("snapshot: %zu shards, %llu bytes on disk\n", S,
              static_cast<unsigned long long>(snapshot_bytes));
  std::printf(
      "cold load: copying %.6fs  mmap eager %.6fs  mmap lazy %.6fs  "
      "(lazy vs copying: %.1fx, gate >= 5x: %s)\n",
      copy_load_seconds, mmap_eager_seconds, mmap_lazy_seconds,
      cold_load_speedup, cold_load_pass ? "pass" : "FAIL");
  std::printf("single shard: copying %.6fs  mmap %.6fs  (%.1fx)\n",
              single_copy_seconds, single_mmap_seconds,
              single_mmap_seconds > 0
                  ? single_copy_seconds / single_mmap_seconds
                  : 0.0);
  std::printf(
      "first query: after eviction %.6fs  fully resident %.6fs  "
      "(penalty %.1fx)\n",
      evicted_query_seconds, warm_query_seconds,
      warm_query_seconds > 0 ? evicted_query_seconds / warm_query_seconds
                             : 0.0);
  std::printf(
      "steady state: copying %.1f qps  mmap %.1f qps  (delta %.2f%%, "
      "gate <= 5%%: %s)\n",
      copy_qps, mmap_qps, 100.0 * qps_delta, qps_pass ? "pass" : "FAIL");

  std::FILE* f = std::fopen(opt.out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", opt.out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"gbkmv_snapshot_load_v1\",\n");
  std::fprintf(f,
               "  \"config\": {\"records\": %zu, \"universe\": %zu, "
               "\"queries\": %zu, \"threshold\": %.3f, \"shards\": %zu, "
               "\"topk\": %zu, \"threads\": %zu, \"reps\": %d, "
               "\"snapshot_bytes\": %llu, \"smoke\": %s},\n",
               dataset->size(), dataset->universe_size(), requests.size(),
               opt.threshold, S, opt.top_k, opt.num_threads, opt.reps,
               static_cast<unsigned long long>(snapshot_bytes),
               opt.smoke ? "true" : "false");
  std::fprintf(f,
               "  \"cold_load\": {\"copying_seconds\": %.6f, "
               "\"mmap_eager_seconds\": %.6f, \"mmap_lazy_seconds\": %.6f, "
               "\"lazy_vs_copying_speedup\": %.2f},\n",
               copy_load_seconds, mmap_eager_seconds, mmap_lazy_seconds,
               cold_load_speedup);
  std::fprintf(f,
               "  \"single_snapshot\": {\"copying_seconds\": %.6f, "
               "\"mmap_seconds\": %.6f, \"speedup\": %.2f},\n",
               single_copy_seconds, single_mmap_seconds,
               single_mmap_seconds > 0
                   ? single_copy_seconds / single_mmap_seconds
                   : 0.0);
  std::fprintf(f,
               "  \"first_query\": {\"after_eviction_seconds\": %.6f, "
               "\"fully_resident_seconds\": %.6f, "
               "\"max_resident_shards\": %zu},\n",
               evicted_query_seconds, warm_query_seconds,
               tight.max_resident_shards);
  std::fprintf(f,
               "  \"steady_state\": {\"copying_qps\": %.1f, \"mmap_qps\": "
               "%.1f, \"qps_delta_fraction\": %.4f},\n",
               copy_qps, mmap_qps, qps_delta);
  std::fprintf(f,
               "  \"gates\": {\"cold_load_speedup_min\": 5.0, "
               "\"cold_load_pass\": %s, \"qps_delta_max\": 0.05, "
               "\"qps_parity_pass\": %s}\n}\n",
               cold_load_pass ? "true" : "false", qps_pass ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", opt.out_path.c_str());

  std::filesystem::remove_all(dir);
  if (opt.check && (!cold_load_pass || !qps_pass)) return 1;
  return 0;
}

}  // namespace
}  // namespace gbkmv

int main(int argc, char** argv) { return gbkmv::Main(argc, argv); }
