// mutate: one writer thread runs a seeded closed-loop mix of queries,
// Ingest and Delete against an S = 4 GB-KMV service with auto-promotion,
// tiered compaction and the tombstone purge threshold on, so background
// promotion and merge run several cycles per run. The work is in the shard
// lifecycle: the ingest shard, promotion, index-level merges, tombstone
// filtering, and cache invalidation (every mutation clears the cache).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "common/timer.h"
#include "core/containment.h"
#include "obs/metrics.h"
#include "serve/sharded_service.h"

namespace gbkmv {
namespace ledger {
namespace {

constexpr size_t kPool = 1024;  // query records, drawn uniformly
constexpr size_t kShards = 4;
constexpr size_t kCacheCapacity = 256;
constexpr size_t kAutoPromote = 500;
constexpr double kTierRatio = 2.0;
constexpr double kPurgeThreshold = 0.2;
// Operation mix: the rest of the draws are queries.
constexpr double kIngestShare = 0.10;
constexpr double kDeleteShare = 0.10;
// F-1 checkpoints: every kCheckpointOps operations, kCheckpointQueries
// threshold queries against an exact scan of the live records.
constexpr uint64_t kCheckpointOps = 8000;
constexpr size_t kCheckpointQueries = 256;

using Service = serve::ShardedContainmentService;

// The benchmark's own model of the record set: every record by global id,
// which are live, and a dense list of live ids for uniform delete picks.
struct RecordModel {
  std::vector<Record> records;
  std::vector<uint8_t> live;
  std::vector<RecordId> live_ids;
  std::vector<size_t> live_pos;

  void Add(RecordId id, Record record) {
    if (records.size() <= id) {
      records.resize(id + 1);
      live.resize(id + 1, 0);
      live_pos.resize(id + 1, 0);
    }
    records[id] = std::move(record);
    live[id] = 1;
    live_pos[id] = live_ids.size();
    live_ids.push_back(id);
  }
  void Remove(RecordId id) {
    live[id] = 0;
    const size_t pos = live_pos[id];
    live_ids[pos] = live_ids.back();
    live_pos[live_ids[pos]] = pos;
    live_ids.pop_back();
  }
  uint64_t LiveElements() const {
    uint64_t n = 0;
    for (RecordId id : live_ids) n += records[id].size();
    return n;
  }
};

struct Counters {
  uint64_t promotions = 0;
  uint64_t compactions = 0;
  uint64_t compaction_ns = 0;
};

Counters ReadRegistry() {
  const obs::MetricsSnapshot snap = obs::GlobalMetrics().Snapshot();
  Counters c;
  const auto counter = [&snap](const char* name) -> uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  c.promotions = counter("gbkmv_serve_promotions_total");
  c.compactions = counter("gbkmv_serve_compactions_total");
  const auto it = snap.histograms.find("gbkmv_serve_compaction_ns");
  if (it != snap.histograms.end()) c.compaction_ns = it->second.sum;
  return c;
}

struct Writer {
  Service& service;
  const GbKmvSketcher& sketcher;
  const std::vector<Record>& pool;
  const std::vector<Record>& fresh;  // records to ingest, in order, cycled
  RecordModel& model;
  Report& report;
  std::mt19937_64 rng;
  size_t next_fresh = 0;
  uint64_t ops_total = 0;  // across phases, for checkpoint placement
  size_t checkpoints = 0;

  struct PhaseStats {
    uint64_t ops = 0;
    uint64_t failed = 0;
    // Times at reference speed; checkpoints are not measured.
    NormClock clock;
    double op_ns = 0.0;  // summed duration of the timed calls
    std::vector<double> query_us;
    std::vector<double> mutation_us;
    std::vector<double> f1;
    std::vector<double> ingest_share;
    std::vector<double> space_ratio;
    uint64_t leaked_tombstones = 0;
  };

  bool HasDeleted(const QueryResponse& response) const {
    for (const QueryHit& h : response.hits) {
      if (h.id >= model.live.size() || model.live[h.id] == 0) return true;
    }
    return false;
  }

  // Waits until no background promotion or compaction is in flight. One
  // wait is not enough: a promotion can queue a compaction as it finishes.
  // So wait again until a wait sees neither counter move. The writer is
  // the only thread that mutates, so the shard set then stays fixed until
  // its next Ingest or Delete.
  void Quiesce() {
    for (;;) {
      const Counters before = ReadRegistry();
      if (Status s = service.WaitForBackgroundWork(); !s.ok()) {
        report.Fail("background work failed: " + s.ToString());
      }
      const Counters after = ReadRegistry();
      if (after.promotions == before.promotions &&
          after.compactions == before.compactions) {
        return;
      }
    }
  }

  // Once background work is done, scores threshold answers for the next
  // kCheckpointQueries pool queries against an exact scan of exactly the
  // live records. In the traced run it also replays the same queries layer
  // by layer: the replay reads shard views, which only a quiescent service
  // keeps valid.
  void Checkpoint(PhaseStats& stats, SpanLog& spans) {
    Quiesce();
    std::vector<std::vector<RecordId>> answers, truth;
    // Successive checkpoints score successive slices of the pool.
    const size_t first = checkpoints++ * kCheckpointQueries;
    for (size_t i = 0; i < kCheckpointQueries; ++i) {
      const Record& q = pool[(first + i) % pool.size()];
      if (spans.enabled()) {
        ReplayLayers(service, sketcher, TopKRequest(q), first + i, spans);
      }
      const QueryResponse r =
          service.Serve(ThresholdRequest(q), kLibraryThreads);
      if (HasDeleted(r)) ++stats.leaked_tombstones;
      std::vector<RecordId> ids;
      for (const QueryHit& h : r.hits) ids.push_back(h.id);
      answers.push_back(std::move(ids));
      truth.push_back(ExactAnswer(q, model.records, model.live));
    }
    stats.f1.push_back(MeanF1(answers, truth));
    stats.ingest_share.push_back(static_cast<double>(service.ingest_size()) /
                                 static_cast<double>(service.size()));
    stats.space_ratio.push_back(static_cast<double>(service.SpaceUnits()) /
                                static_cast<double>(model.LiveElements()));
  }

  PhaseStats Run(double seconds, SpanLog& spans) {
    PhaseStats stats;
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    NormClock& clock = stats.clock;
    // One timed call: its span, and its duration at reference speed.
    const auto timed = [&](const char* layer, uint64_t t0, uint64_t t1,
                           uint64_t id, std::vector<double>& samples_us) {
      spans.Add(layer, t0, t1, -1, id);
      const double ns = static_cast<double>(t1 - t0) * clock.factor();
      stats.op_ns += ns;
      samples_us.push_back(1e-3 * ns);
    };
    clock.Open();
    while (clock.ElapsedRawSeconds() < seconds) {
      const double u = unit(rng);
      const uint64_t id = ops_total;
      if (u < kIngestShare) {
        // Past the end of the fresh set its records are ingested again
        // under new ids, so the live set stays near its initial size.
        const Record& record = fresh[next_fresh++ % fresh.size()];
        const uint64_t t0 = NowNs();
        gbkmv::Result<RecordId> got = service.Ingest(record);
        timed("serve.ingest", t0, NowNs(), id, stats.mutation_us);
        if (got.ok()) {
          model.Add(*got, record);
        } else {
          ++stats.failed;
        }
      } else if (u < kIngestShare + kDeleteShare &&
                 !model.live_ids.empty()) {
        const RecordId victim = model.live_ids[static_cast<size_t>(
            unit(rng) * static_cast<double>(model.live_ids.size())) %
                                                model.live_ids.size()];
        const uint64_t t0 = NowNs();
        gbkmv::Result<serve::MutationResult> got = service.Delete(victim);
        timed("serve.delete", t0, NowNs(), id, stats.mutation_us);
        if (got.ok() && !got->noop) {
          model.Remove(victim);
        } else {
          ++stats.failed;
        }
      } else {
        const Record& q = pool[static_cast<size_t>(unit(rng) * kPool) % kPool];
        const uint64_t t0 = NowNs();
        const QueryResponse r = service.Serve(TopKRequest(q), kLibraryThreads);
        timed("serve.query", t0, NowNs(), id, stats.query_us);
        if (HasDeleted(r)) ++stats.leaked_tombstones;
      }
      ++stats.ops;
      ++ops_total;
      if (ops_total % kCheckpointOps == 0) {
        clock.Close();
        Checkpoint(stats, spans);
        clock.Open();
      }
      clock.Tick();
    }
    clock.Close();
    // A final checkpoint so every run scores at least one.
    Checkpoint(stats, spans);
    return stats;
  }
};

}  // namespace

void RunMutate(const Args& args, SpanLog& spans, Report& report) {
  const Dataset dataset =
      MakeDataset(kRecords, kUniverse, kMaxRecordSize, args.seed, "mutate");
  const Dataset fresh_set = MakeDataset(kRecords, kUniverse, kMaxRecordSize,
                                        args.seed + 7, "mutate-ingest");
  const std::vector<Record> pool =
      SampleQueryPool(dataset, kPool, args.seed + 1).records;

  SearcherConfig config = ServiceConfig(kShards);
  config.sharded.cache_capacity = kCacheCapacity;
  config.sharded.auto_promote_records = kAutoPromote;
  config.sharded.compaction_tier_ratio = kTierRatio;
  config.sharded.tombstone_purge_threshold = kPurgeThreshold;

  // setup_s: service Build (the paper's construction time), median of reps.
  std::unique_ptr<Service> service;
  double raw_setup = 0.0;
  const double setup = MedianSetupSeconds(
      [&] {
        service.reset();
        gbkmv::Result<std::unique_ptr<Service>> built =
            serve::BuildShardedService(dataset, config);
        if (!built.ok()) Die("service build", built.status());
        service = std::move(built.value());
      },
      &raw_setup);

  const GbKmvSketcher sketcher = MakeReplaySketcher(dataset);

  RecordModel model;
  for (size_t i = 0; i < dataset.size(); ++i) {
    model.Add(static_cast<RecordId>(i), dataset.record(i));
  }
  Writer writer{*service,
                sketcher,
                pool,
                fresh_set.records(),
                model,
                report,
                std::mt19937_64(args.seed * 0x9E3779B97F4A7C15ull + 29)};

  const double measure_s = args.trace ? args.seconds / 2 : args.seconds;
  const Counters before = ReadRegistry();
  const Writer::PhaseStats run = writer.Run(measure_s, spans);
  const Counters after = ReadRegistry();

  Writer::PhaseStats traced;
  if (args.trace) {
    spans.set_enabled(true);
    const Counters t0 = ReadRegistry();
    const serve::QueryCacheStats cache0 = service->cache_stats();
    traced = writer.Run(measure_s, spans);
    const serve::QueryCacheStats cache1 = service->cache_stats();
    const Counters t1 = ReadRegistry();
    const auto hits = static_cast<double>(cache1.hits - cache0.hits);
    spans.Count("serve.cache_hits", hits);
    spans.Count("serve.cache_lookups",
                hits + static_cast<double>(cache1.misses - cache0.misses));
    spans.Count("serve.cache_evictions",
                static_cast<double>(cache1.evictions - cache0.evictions));
    spans.Count("serve.promotions",
                static_cast<double>(t1.promotions - t0.promotions));
    spans.Count("serve.compactions",
                static_cast<double>(t1.compactions - t0.compactions));
    spans.Count(
        "serve.compaction_ms",
        1e-6 * static_cast<double>(t1.compaction_ns - t0.compaction_ns));
    double share = 0.0;
    for (double s : traced.ingest_share) share += s;
    spans.Count("serve.ingest_rows_share",
                share / static_cast<double>(traced.ingest_share.size()));
    spans.Count("shards", static_cast<double>(service->num_shards()));
    spans.Count("speed_factor",
                traced.clock.wall_s() / traced.clock.raw_wall_s());
    spans.Count("overhead.untraced_ns_per_op",
                run.op_ns / static_cast<double>(run.ops));
    spans.Count("overhead.traced_ns_per_op",
                traced.op_ns / static_cast<double>(traced.ops));
    spans.set_enabled(false);
  }

  const uint64_t leaked = run.leaked_tombstones + traced.leaked_tombstones;
  if (leaked > 0) {
    report.Fail(std::to_string(leaked) +
                " responses returned a record after its Delete");
  }
  ReportClosedLoop(run.clock, run.ops, run.query_us, setup, raw_setup, report);
  report.Metric("f1", Mean(run.f1), "ratio");
  report.Metric("space_ratio", Mean(run.space_ratio), "ratio");
  report.Info("mutation_p99_us", WindowedPercentile(run.mutation_us, 0.99),
              "us");
  report.attempted = run.ops + traced.ops;
  report.failed = run.failed + traced.failed + leaked;
  report.Info("mutation_samples",
              static_cast<double>(run.mutation_us.size()), "count");
  report.Info("checkpoints", static_cast<double>(run.f1.size()), "count");
  report.Info("promotions",
              static_cast<double>(after.promotions - before.promotions),
              "count");
  report.Info("compactions",
              static_cast<double>(after.compactions - before.compactions),
              "count");
  report.Info("live_records", static_cast<double>(model.live_ids.size()),
              "count");
  report.Info("shards_end", static_cast<double>(service->num_shards()),
              "count");
}

}  // namespace ledger
}  // namespace gbkmv
