// Compaction harness: what the LSM-style shard lifecycle (docs/sharding.md
// "Shard lifecycle") costs — emitted as BENCH_compaction.json so the
// nightly gates can compare the merge path against its alternatives.
//
// Three sections per run:
//   * merge vs rebuild — wall-clock of Compact() over W promoted GB-KMV
//     shards (GbKmvIndexSearcher::Merge: flat sketch rows concatenated,
//     postings rebuilt, no record re-sketched) against a from-scratch
//     BuildSearcher over the identical union of records (what the old
//     dataset-rebuild compaction paid per merge). The nightly gate reads
//     merge_speedup_vs_rebuild >= 2.
//   * tombstone purge — Delete() half the rows of a promoted shard, then
//     time the purge rewrite Compact() runs over it.
//   * serving under compaction — sequential Serve() QPS while a tiered
//     background compaction runs, against the quiescent QPS on the merged
//     service; the nightly gate wants the ratio >= 0.9 (queries never
//     block on the freeze -> build-unlocked -> swap discipline).
//
// Flags (like bench/shard_scaling.cc):
//   --records=N --universe=N --extras=N --waves=W --queries=N
//   --threshold=T --shards=S --threads=N --reps=N --out=PATH --smoke

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/containment.h"
#include "data/synthetic.h"
#include "eval/ground_truth.h"
#include "serve/mutation.h"
#include "serve/sharded_service.h"

namespace gbkmv {
namespace {

struct Options {
  size_t num_records = 8000;
  size_t universe_size = 100000;
  size_t num_extras = 16000;
  size_t num_waves = 4;
  size_t num_queries = 200;
  double threshold = 0.5;
  size_t num_shards = 4;
  size_t num_threads = 0;
  int reps = 3;
  std::string out_path = "BENCH_compaction.json";
  bool smoke = false;
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
    } else if (const char* v = value("--extras=")) {
      opt.num_extras =
          static_cast<size_t>(bench::ParseFlagU64("--extras", v));
    } else if (const char* v = value("--waves=")) {
      opt.num_waves =
          std::max<size_t>(2, bench::ParseFlagU64("--waves", v));
    } else if (const char* v = value("--queries=")) {
      opt.num_queries =
          static_cast<size_t>(bench::ParseFlagU64("--queries", v));
    } else if (const char* v = value("--threshold=")) {
      opt.threshold = bench::ParseFlagF64("--threshold", v);
    } else if (const char* v = value("--shards=")) {
      opt.num_shards =
          static_cast<size_t>(bench::ParseFlagU64("--shards", v));
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
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s'\nusage: compaction [--records=N] "
                   "[--universe=N] [--extras=N] [--waves=W] [--queries=N] "
                   "[--threshold=T] [--shards=S] [--threads=N] [--reps=N] "
                   "[--out=PATH] [--smoke]\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  if (opt.smoke) {
    opt.num_records = 300;
    opt.universe_size = 3000;
    opt.num_extras = 200;
    opt.num_queries = 40;
    opt.reps = 1;
  }
  if (opt.num_threads == 0) opt.num_threads = DefaultThreads();
  return opt;
}

void Die(const Status& status, const char* what) {
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

// One synthetic pool: the first num_records rows seed the base build, the
// next num_extras are ingested live.
Result<Dataset> MakePool(const Options& opt) {
  SyntheticConfig config;
  config.name = "compaction-bench";
  config.num_records = opt.num_records + opt.num_extras;
  config.universe_size = opt.universe_size;
  // Full-workload records skew larger than the smoke run: the merge's
  // advantage is skipping the per-element re-sketch, so the measured
  // speedup should reflect realistic record sizes, not toy ones.
  config.min_record_size = opt.smoke ? 10 : 40;
  config.max_record_size = opt.smoke ? 120 : 1000;
  config.alpha_element_freq = 1.1;
  config.alpha_record_size = 2.0;
  config.seed = 20260729;
  return GenerateSynthetic(config);
}

SearcherConfig ServiceConfig(const Options& opt) {
  SearcherConfig config;
  config.method = SearchMethod::kGbKmv;
  config.num_threads = opt.num_threads;
  config.sharded.num_shards = opt.num_shards;
  return config;
}

// A service over the base rows with the extras ingested and promoted in
// `waves` equal slices -> `waves` promoted shards awaiting compaction.
std::unique_ptr<serve::ShardedContainmentService> MakeStagedService(
    const Dataset& pool, const Options& opt, const SearcherConfig& config,
    size_t waves) {
  std::vector<Record> base(pool.records().begin(),
                           pool.records().begin() + opt.num_records);
  Result<Dataset> base_ds = Dataset::Create(std::move(base));
  if (!base_ds.ok()) Die(base_ds.status(), "base dataset");
  Result<std::unique_ptr<serve::ShardedContainmentService>> service =
      serve::BuildShardedService(*base_ds, config);
  if (!service.ok()) Die(service.status(), "service build");
  const size_t per_wave = (opt.num_extras + waves - 1) / waves;
  for (size_t i = 0; i < opt.num_extras; ++i) {
    const Result<RecordId> gid =
        (*service)->Ingest(pool.record(opt.num_records + i));
    if (!gid.ok()) Die(gid.status(), "ingest");
    if ((i + 1) % per_wave == 0 || i + 1 == opt.num_extras) {
      const Status promoted = (*service)->Promote().status();
      if (!promoted.ok()) Die(promoted, "promote");
    }
  }
  const Status settled = (*service)->WaitForBackgroundWork();
  if (!settled.ok()) Die(settled, "background work");
  return std::move(*service);
}

struct Report {
  double merge_seconds = 1e300;
  size_t merge_rows = 0;
  size_t merge_shards = 0;
  double rebuild_seconds = 1e300;
  double purge_seconds = 1e300;
  size_t purge_deleted = 0;
  size_t purge_purged = 0;
  double quiescent_qps = 0.0;
  double compacting_qps = 0.0;
};

double ServeLoopSeconds(serve::ShardedContainmentService* service,
                        const std::vector<QueryRequest>& requests,
                        size_t num_threads) {
  WallTimer timer;
  for (const QueryRequest& request : requests) {
    const QueryResponse response = service->Serve(request, num_threads);
    if (response.hits.size() > service->size()) std::abort();
  }
  return timer.ElapsedSeconds();
}

int Main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  SetDefaultThreads(opt.num_threads);

  Result<Dataset> pool = MakePool(opt);
  if (!pool.ok()) Die(pool.status(), "dataset generation");
  const SearcherConfig config = ServiceConfig(opt);

  std::vector<QueryRequest> requests;
  std::vector<Record> queries;
  for (RecordId id : SampleQueries(*pool, opt.num_queries, /*seed=*/4711)) {
    queries.push_back(pool->record(id));
  }
  for (const Record& q : queries) {
    QueryRequest request(q, opt.threshold);
    request.top_k = 10;
    requests.push_back(request);
  }

  Report report;
  report.merge_rows = opt.num_extras;
  report.merge_shards = opt.num_waves;

  // Rebuild reference: the per-compaction work of the old dataset-rebuild
  // path that GbKmvIndexSearcher::Merge replaces — gather the promoted
  // records into a union dataset, then build an index from scratch
  // (sketch every record, build the postings). The gather + Dataset::Create
  // stays inside the timer because Compact()'s timing pays the same step
  // in its unlocked build phase.
  for (int rep = 0; rep < opt.reps; ++rep) {
    SearcherConfig rebuild_config = config;
    WallTimer timer;
    std::vector<Record> union_records(
        pool->records().begin() + opt.num_records, pool->records().end());
    Result<Dataset> union_ds = Dataset::Create(std::move(union_records));
    if (!union_ds.ok()) Die(union_ds.status(), "union dataset");
    Result<std::unique_ptr<ContainmentSearcher>> rebuilt =
        BuildSearcher(*union_ds, rebuild_config);
    if (!rebuilt.ok()) Die(rebuilt.status(), "rebuild reference");
    report.rebuild_seconds =
        std::min(report.rebuild_seconds, timer.ElapsedSeconds());
  }

  // Index-level merge: W promoted shards -> one, no re-sketching.
  for (int rep = 0; rep < opt.reps; ++rep) {
    std::unique_ptr<serve::ShardedContainmentService> service =
        MakeStagedService(*pool, opt, config, opt.num_waves);
    WallTimer timer;
    const Status compacted = service->Compact().status();
    if (!compacted.ok()) Die(compacted, "merge compaction");
    report.merge_seconds =
        std::min(report.merge_seconds, timer.ElapsedSeconds());
  }

  // Purge rewrite: one promoted shard, half its rows tombstoned.
  for (int rep = 0; rep < opt.reps; ++rep) {
    std::unique_ptr<serve::ShardedContainmentService> service =
        MakeStagedService(*pool, opt, config, /*waves=*/1);
    size_t deleted = 0;
    for (size_t i = 0; i < opt.num_extras; i += 2) {
      const Result<serve::MutationResult> result =
          service->Delete(opt.num_records + i);
      if (!result.ok()) Die(result.status(), "delete");
      ++deleted;
    }
    WallTimer timer;
    const Result<serve::MutationResult> result = service->Compact();
    if (!result.ok()) Die(result.status(), "purge rewrite");
    const double seconds = timer.ElapsedSeconds();
    if (seconds < report.purge_seconds) {
      report.purge_seconds = seconds;
      report.purge_deleted = deleted;
      report.purge_purged = result->tombstones_purged;
    }
  }

  // Serving while a background tiered compaction runs, then quiescent on
  // the merged result. The tier policy is armed to fire exactly on the
  // last promotion, so the serve loop races the background merge. Each rep
  // builds a fresh identically-staged service and contributes one busy
  // pass and one quiescent pass; min time on both sides is the same
  // noise-reduced estimator the other benches use, and because every rep's
  // service holds the identical rows at both measurement points the ratio
  // compares like with like.
  {
    SearcherConfig tiered = config;
    tiered.sharded.compaction_tier_ratio = 1e9;  // any run merges
    tiered.sharded.compaction_min_shards = opt.num_waves;
    double busy = 1e300;
    double quiet = 1e300;
    for (int rep = 0; rep < opt.reps; ++rep) {
      std::unique_ptr<serve::ShardedContainmentService> service =
          MakeStagedService(*pool, opt, tiered, opt.num_waves);
      // MakeStagedService waited for the triggered merge; stage a second
      // round so the busy pass races a live one.
      const size_t second_round = std::max<size_t>(opt.num_extras / 2, 2);
      const size_t per_wave =
          std::max<size_t>(second_round / opt.num_waves, 1);
      for (size_t i = 0; i < second_round; ++i) {
        const Result<RecordId> gid = service->Ingest(
            pool->record(opt.num_records + i % opt.num_extras));
        if (!gid.ok()) Die(gid.status(), "ingest (serving stage)");
        if ((i + 1) % per_wave == 0 || i + 1 == second_round) {
          const Status promoted = service->Promote().status();
          if (!promoted.ok()) Die(promoted, "promote (serving stage)");
        }
      }
      busy = std::min(
          busy, ServeLoopSeconds(service.get(), requests, opt.num_threads));
      const Status settled = service->WaitForBackgroundWork();
      if (!settled.ok()) Die(settled, "background compaction");
      quiet = std::min(
          quiet, ServeLoopSeconds(service.get(), requests, opt.num_threads));
    }
    report.compacting_qps = static_cast<double>(opt.num_queries) / busy;
    report.quiescent_qps = static_cast<double>(opt.num_queries) / quiet;
  }

  const double speedup = report.rebuild_seconds / report.merge_seconds;
  const double serving_ratio =
      report.quiescent_qps > 0 ? report.compacting_qps / report.quiescent_qps
                               : 0.0;
  std::printf(
      "merge(%zu shards, %zu rows) %.4fs  rebuild %.4fs  speedup %.2fx\n"
      "purge(%zu/%zu rows) %.4fs\n"
      "serving: compacting %.1f qps  quiescent %.1f qps  ratio %.3f\n",
      report.merge_shards, report.merge_rows, report.merge_seconds,
      report.rebuild_seconds, speedup, report.purge_purged,
      report.purge_deleted, report.purge_seconds, report.compacting_qps,
      report.quiescent_qps, serving_ratio);

  std::FILE* f = std::fopen(opt.out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 opt.out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"gbkmv_compaction_v1\",\n");
  std::fprintf(f,
               "  \"config\": {\"records\": %zu, \"universe\": %zu, "
               "\"extras\": %zu, \"waves\": %zu, \"queries\": %zu, "
               "\"threshold\": %.3f, \"method\": \"gb-kmv\", \"shards\": "
               "%zu, \"threads\": %zu, \"reps\": %d, \"smoke\": %s},\n",
               opt.num_records, opt.universe_size, opt.num_extras,
               opt.num_waves, opt.num_queries, opt.threshold, opt.num_shards,
               opt.num_threads, opt.reps, opt.smoke ? "true" : "false");
  std::fprintf(f,
               "  \"merge\": {\"shards\": %zu, \"rows\": %zu, \"seconds\": "
               "%.6f},\n",
               report.merge_shards, report.merge_rows, report.merge_seconds);
  std::fprintf(f, "  \"rebuild\": {\"rows\": %zu, \"seconds\": %.6f},\n",
               report.merge_rows, report.rebuild_seconds);
  std::fprintf(f, "  \"merge_speedup_vs_rebuild\": %.4f,\n", speedup);
  std::fprintf(f,
               "  \"purge\": {\"deleted\": %zu, \"purged\": %zu, "
               "\"seconds\": %.6f},\n",
               report.purge_deleted, report.purge_purged,
               report.purge_seconds);
  std::fprintf(f,
               "  \"serving\": {\"compacting_qps\": %.2f, "
               "\"quiescent_qps\": %.2f, \"ratio\": %.4f}\n",
               report.compacting_qps, report.quiescent_qps, serving_ratio);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", opt.out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace gbkmv

int main(int argc, char** argv) { return gbkmv::Main(argc, argv); }
