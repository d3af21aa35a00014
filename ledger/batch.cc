// batch-s8: offline closed-loop BatchServe of distinct queries against a
// GB-KMV service with S = 8 size-stratified shards and no cache. Nearly all
// the work is sketching, per-shard SearchQ and the fan-out merge; there is
// no HTTP, cache or mutation work on the measured path.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "common/timer.h"
#include "core/containment.h"
#include "eval/ground_truth.h"
#include "serve/sharded_service.h"

namespace gbkmv {
namespace ledger {
namespace {

constexpr size_t kPool = 2048;  // distinct queries, cycled in pool order
constexpr size_t kShards = 8;
constexpr size_t kBatch = 32;   // queries per BatchServe call

using Service = serve::ShardedContainmentService;

std::unique_ptr<Service> BuildOrDie(const Dataset& dataset, size_t shards) {
  gbkmv::Result<std::unique_ptr<Service>> service =
      serve::BuildShardedService(dataset, ServiceConfig(shards));  // no cache
  if (!service.ok()) Die("service build", service.status());
  return std::move(service.value());
}

// Times are at reference speed (NormClock).
struct LoopStats {
  NormClock clock;
  uint64_t queries = 0;
  double serve_s = 0.0;  // inside the measured BatchServe calls
  std::vector<double> latency_us;  // one sample per query
  uint64_t mismatches = 0;
};

// Closed loop over the pool in batches of kBatch for `seconds`. Each
// response is checked against the S = 1 answer. With `spans` enabled every
// batch is also served by the S = 1 service and replayed layer by layer.
LoopStats RunLoop(Service& s8, Service& s1, const GbKmvSketcher& sketcher,
                  const std::vector<QueryRequest>& requests,
                  const std::vector<QueryResponse>& expected, double seconds,
                  SpanLog& spans) {
  LoopStats stats;
  const std::span<const QueryRequest> all(requests);
  WallTimer wall;
  NormClock& clock = stats.clock;
  clock.Open();
  size_t offset = 0;
  while (wall.ElapsedSeconds() < seconds) {
    const std::span<const QueryRequest> batch = all.subspan(offset, kBatch);
    const uint64_t cpu_start = spans.enabled() ? ProcessCpuNanos() : 0;
    const uint64_t t0 = NowNs();
    const std::vector<QueryResponse> responses =
        s8.BatchServe(batch, kLibraryThreads);
    const uint64_t t1 = NowNs();
    stats.serve_s += 1e-9 * static_cast<double>(t1 - t0) * clock.factor();
    const double latency = 1e-3 * static_cast<double>(t1 - t0) * clock.factor();
    for (size_t i = 0; i < batch.size(); ++i) {
      stats.latency_us.push_back(latency);
      if (!SameHits(responses[i], expected[offset + i])) ++stats.mismatches;
    }
    stats.queries += batch.size();
    if (spans.enabled()) {
      const uint64_t cpu_end = ProcessCpuNanos();
      spans.Add("serve.batchserve", t0, t1, -1, offset, batch.size(),
                cpu_end - cpu_start);
      const uint64_t u0 = NowNs();
      const std::vector<QueryResponse> single =
          s1.BatchServe(batch, kLibraryThreads);
      const uint64_t u1 = NowNs();
      spans.Add("serve.batchserve_s1", u0, u1, -1, offset, batch.size(),
                ProcessCpuNanos() - cpu_end);
      if (single.size() != batch.size()) std::abort();
      for (size_t i = 0; i < batch.size(); ++i) {
        ReplayLayers(s8, sketcher, batch[i], offset + i, spans);
      }
    }
    offset = (offset + kBatch) % requests.size();
    clock.Tick();
  }
  clock.Close();
  return stats;
}

}  // namespace

void RunBatch(const Args& args, SpanLog& spans, Report& report) {
  const Dataset dataset =
      MakeDataset(kRecords, kUniverse, kMaxRecordSize, args.seed, "batch-s8");
  const QueryPool pool = SampleQueryPool(dataset, kPool, args.seed + 1);
  std::vector<QueryRequest> requests;
  for (const Record& q : pool.records) requests.push_back(TopKRequest(q));

  // setup_s: the paper's construction time, service Build, median of reps.
  std::unique_ptr<Service> s8;
  double raw_setup = 0.0;
  const double setup = MedianSetupSeconds(
      [&] {
        s8.reset();
        s8 = BuildOrDie(dataset, kShards);
      },
      &raw_setup);
  const std::unique_ptr<Service> s1 = BuildOrDie(dataset, 1);

  const GbKmvSketcher sketcher = MakeReplaySketcher(dataset);

  // Correctness reference: the S = 1 service over the same records.
  const std::vector<QueryResponse> expected =
      s1->BatchServe(requests, kLibraryThreads);

  // Accuracy: threshold answers over the pool against the exact truth.
  std::vector<QueryRequest> threshold_requests;
  for (const Record& q : pool.records) {
    threshold_requests.push_back(ThresholdRequest(q));
  }
  std::vector<std::vector<RecordId>> answers;
  for (const QueryResponse& r : s8->BatchServe(threshold_requests,
                                               kLibraryThreads)) {
    std::vector<RecordId> ids;
    for (const QueryHit& h : r.hits) ids.push_back(h.id);
    answers.push_back(std::move(ids));
  }
  const std::vector<std::vector<RecordId>> truth =
      ComputeGroundTruth(dataset, pool.ids, kThreshold, kLibraryThreads);

  const double measure_s = args.trace ? args.seconds / 2 : args.seconds;
  SpanLog untraced;  // disabled
  const LoopStats run =
      RunLoop(*s8, *s1, sketcher, requests, expected, measure_s, untraced);
  if (run.mismatches > 0) {
    report.Fail(std::to_string(run.mismatches) +
                " S=8 responses differ from the S=1 service");
  }

  LoopStats traced;
  if (args.trace) {
    spans.set_enabled(true);
    traced = RunLoop(*s8, *s1, sketcher, requests, expected, measure_s, spans);
    if (traced.mismatches > 0) {
      report.Fail("traced run: S=8 responses differ from the S=1 service");
    }
    spans.Count("shards", static_cast<double>(s8->num_shards()));
    spans.Count("speed_factor",
                traced.clock.wall_s() / traced.clock.raw_wall_s());
    spans.Count("overhead.untraced_ns_per_op",
                1e9 * run.serve_s / static_cast<double>(run.queries));
    spans.Count("overhead.traced_ns_per_op",
                1e9 * traced.serve_s / static_cast<double>(traced.queries));
    spans.set_enabled(false);
  }

  ReportClosedLoop(run.clock, run.queries, run.latency_us, setup, raw_setup,
                   report);
  report.Metric("f1", MeanF1(answers, truth), "ratio");
  report.Metric("space_ratio",
                static_cast<double>(s8->SpaceUnits()) /
                    static_cast<double>(dataset.total_elements()),
                "ratio");
  report.attempted = run.queries + traced.queries;
  report.failed = run.mismatches + traced.mismatches;
  report.Info("records", static_cast<double>(dataset.size()), "count");
  report.Info("total_elements",
              static_cast<double>(dataset.total_elements()), "count");
  report.Info("shards", static_cast<double>(s8->num_shards()), "count");
}

}  // namespace ledger
}  // namespace gbkmv
