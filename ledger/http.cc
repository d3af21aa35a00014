// http-zipf: open-loop Poisson arrivals over HTTP loopback at a short
// ladder of fixed absolute rates, against an S = 1 GB-KMV service loaded
// from a saved manifest (mmap) behind the micro-batching server. Queries
// are drawn Zipf-skewed from a pool four times larger than the query
// result cache, so cache hits, misses and evictions all happen. The work
// is in the server (parse, admission, batch window, wire) and in cache
// hits; with one shard there is no duplicate per-shard work.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/timer.h"
#include "core/containment.h"
#include "eval/ground_truth.h"
#include "serve/sharded_service.h"
#include "server/batcher.h"
#include "server/http.h"
#include "server/server.h"
#include "server/wire.h"

namespace gbkmv {
namespace ledger {
namespace {

constexpr size_t kPool = 4096;
constexpr size_t kCacheCapacity = 1024;
constexpr double kZipfExponent = 1.0;
// The ladder: fixed absolute offered rates in requests per second, run in
// increasing order. The named rate (a fifth or less of what one core
// sustains) is the one latency_p50_us / latency_p99_us report; it gets
// kNamedShare of the ladder's time and the two rungs below it
// kLowShare each. Above it the rungs step by at most 1.25x through the
// range where one core saturates, each for kUpperShare, and the ladder
// stops at the first rung that misses the limit: max_qps_at_slo then
// interpolates across one short step, and no overloaded rung runs long
// enough to build a large backlog.
constexpr double kRates[] = {1000.0,  2000.0,  4000.0,  8000.0,  12000.0,
                             16000.0, 20000.0, 24000.0, 28000.0, 32000.0,
                             40000.0, 48000.0, 64000.0};
constexpr size_t kNamed = 2;
constexpr double kNamedShare = 0.4;
constexpr double kLowShare = 0.1;
constexpr double kUpperShare = 0.03;
// Load generator: one sender thread plus one reader per connection, so
// kConnections + 1 == kClientThreads threads in all.
constexpr size_t kConnections = kClientThreads - 1;
constexpr size_t kReplayQueries = 512;  // layer replay sample (traced run)

using Service = serve::ShardedContainmentService;
using server::HttpBlockingClient;
using server::HttpClientResponse;

std::string QueryJson(const Record& record) {
  std::string json = "{\"elements\":[";
  for (size_t i = 0; i < record.size(); ++i) {
    if (i > 0) json += ",";
    json += std::to_string(record[i]);
  }
  char tail[64];
  std::snprintf(tail, sizeof(tail), "],\"threshold\":%.6f,\"top_k\":%zu}",
                kThreshold, kTopK);
  return json + tail;
}

// A complete POST /v1/query request, ready to pipeline.
std::string WireRequest(const std::string& body) {
  return "POST /v1/query HTTP/1.1\r\nHost: gbkmv\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

server::ServerOptions MakeServerOptions() {
  server::ServerOptions options;
  options.port = 0;
  options.num_reactors = 1;
  options.max_batch = 32;
  options.max_batch_window_us = 200;
  options.batch_workers = 1;
  options.batch_threads = kLibraryThreads;
  // Admission bounds far above any backlog a ladder rung can build: an
  // overloaded rung must show as latency (a missed limit), not as 429s.
  options.max_queue_depth = 1 << 20;
  options.max_inflight = 1 << 20;
  return options;
}

server::BatcherOptions MakeBatcherOptions() {
  const server::ServerOptions s = MakeServerOptions();
  server::BatcherOptions options;
  options.max_batch = s.max_batch;
  options.max_window_us = s.max_batch_window_us;
  options.num_workers = s.batch_workers;
  options.max_queue_depth = s.max_queue_depth;
  options.max_inflight = s.max_inflight;
  return options;
}

// One scheduled arrival: its offset from the phase start and the pool
// query it sends.
struct Arrival {
  double at_s = 0.0;
  uint32_t query = 0;
};

std::vector<Arrival> Schedule(double rate, double seconds,
                              const std::vector<uint32_t>& zipf_rank_to_query,
                              std::mt19937_64& rng) {
  std::exponential_distribution<double> gap(rate);
  // Zipf over ranks 1..kPool by inverse CDF.
  static const std::vector<double> cdf = [] {
    std::vector<double> c(kPool);
    double sum = 0.0;
    for (size_t k = 0; k < kPool; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      c[k] = sum;
    }
    for (double& v : c) v /= sum;
    return c;
  }();
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Arrival> arrivals;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), unit(rng)) - cdf.begin());
    arrivals.push_back(
        {t, zipf_rank_to_query[std::min(rank, kPool - 1)]});
  }
  return arrivals;
}

struct Sample {
  uint64_t scheduled_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;
  uint32_t query = 0;
  int status = 0;  // HTTP status, 0 = transport error
  std::string body;
};

// One ladder rung. cpu_s is at reference speed (see NormClock); wall_s
// and the latencies are raw: at these loads a request's latency is mostly
// wake-ups and queueing on the shared core, which do not scale with the
// reference task (measured: scaling widened the spread of p50).
struct Phase {
  double rate = 0.0;
  double factor = 1.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<Sample> samples;
  size_t ok = 0;
  std::vector<double> latency_us;   // 200s, from the scheduled send time
  std::vector<double> lateness_us;  // actual send - scheduled send
  double p50_us = 0.0;
  double p99_us = 0.0;
  double lateness_p99_us = 0.0;
};

// Open loop over kConnections keep-alive connections: one sender thread
// writes each request at its scheduled time, round robin over the
// connections, without waiting for earlier replies (HTTP/1.1 pipelining;
// the server answers each connection in request order), and one reader
// thread per connection matches replies to requests in FIFO order. A
// stalled server therefore never delays a send: it shows up as latency,
// timed from the scheduled send time. Lateness (actual - scheduled send)
// is only the sender's own wake-up delay.
Phase RunOpenLoop(uint16_t port, double rate,
                  const std::vector<std::string>& wire_requests,
                  const std::vector<Arrival>& arrivals) {
  Phase phase;
  phase.rate = rate;
  phase.samples.resize(arrivals.size());
  struct Connection {
    HttpBlockingClient client;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<size_t> inflight;  // sample indices awaiting a reply
    bool sending_done = false;
  };
  std::vector<std::unique_ptr<Connection>> connections;
  for (size_t c = 0; c < kConnections; ++c) {
    connections.push_back(std::make_unique<Connection>());
    if (Status s = connections.back()->client.Connect("127.0.0.1", port);
        !s.ok()) {
      Die("connect", s);
    }
  }
  const double reference_before = ReferenceTaskNs();
  IdleSpinner spinner;
  const double cpu0 = ProcessCpuSeconds();
  std::vector<std::thread> readers;
  for (size_t c = 0; c < kConnections; ++c) {
    readers.emplace_back([&phase, conn = connections[c].get()] {
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(conn->mu);
          conn->cv.wait(lock, [conn] {
            return !conn->inflight.empty() || conn->sending_done;
          });
          if (conn->inflight.empty()) return;
        }
        gbkmv::Result<HttpClientResponse> r = conn->client.ReadResponse();
        const uint64_t done = NowNs();
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!r.ok()) {
          // The connection is gone: every request still on it failed.
          conn->inflight.clear();
          conn->sending_done = true;
          return;
        }
        Sample& s = phase.samples[conn->inflight.front()];
        conn->inflight.pop_front();
        s.done_ns = done;
        s.status = r->status;
        s.body = std::move(r->body);
      }
    });
  }
  const uint64_t start_ns = NowNs() + 1000000;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    Sample& s = phase.samples[i];
    s.query = arrivals[i].query;
    s.scheduled_ns = start_ns + static_cast<uint64_t>(arrivals[i].at_s * 1e9);
    SleepUntil(s.scheduled_ns);
    Connection& conn = *connections[i % kConnections];
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      if (conn.sending_done) continue;  // connection failed: status 0
      s.sent_ns = NowNs();
      conn.inflight.push_back(i);
    }
    conn.cv.notify_one();
    if (!conn.client.WriteRaw(wire_requests[s.query]).ok()) {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.sending_done = true;
    }
  }
  for (const auto& conn : connections) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->sending_done = true;
    }
    conn->cv.notify_one();
  }
  for (std::thread& t : readers) t.join();
  phase.wall_s = 1e-9 * static_cast<double>(NowNs() - start_ns);
  const double cpu = ProcessCpuSeconds() - cpu0;
  phase.cpu_s = cpu - spinner.Stop();
  // The rung cannot be sliced without disturbing its schedule, so its
  // factor comes from probes right before and after it.
  phase.factor =
      2 * kReferenceNs / std::max(1.0, reference_before + ReferenceTaskNs());
  phase.cpu_s *= phase.factor;
  for (const Sample& s : phase.samples) {
    if (s.status == 200) {
      ++phase.ok;
      phase.latency_us.push_back(
          1e-3 * static_cast<double>(s.done_ns - s.scheduled_ns));
    }
    if (s.sent_ns >= s.scheduled_ns) {
      phase.lateness_us.push_back(
          1e-3 * static_cast<double>(s.sent_ns - s.scheduled_ns));
    }
  }
  phase.p50_us = WindowedPercentile(phase.latency_us, 0.5);
  phase.p99_us = WindowedPercentile(phase.latency_us, 0.99);
  phase.lateness_p99_us = WindowedPercentile(phase.lateness_us, 0.99);
  return phase;
}

// A rate meets the limit when every request was answered 200, its p99
// is within the limit, and the generator kept up with the schedule (a
// growing backlog would show as lateness far beyond the limit).
bool MeetsLimit(const Phase& p) {
  return p.ok == p.samples.size() && !p.samples.empty() &&
         p.p99_us <= kLatencyLimitUs && p.lateness_p99_us <= kLatencyLimitUs;
}

// Highest ladder rate meeting the limit, interpolated in log-rate /
// log-p99 towards the first rate that misses it so the figure moves
// continuously with the system instead of in ladder steps. A rung's rate
// counts at reference speed: offered / factor.
double MaxQpsAtSlo(const std::vector<Phase>& phases) {
  double best = 0.0;
  for (size_t i = 0; i < phases.size(); ++i) {
    if (!MeetsLimit(phases[i])) {
      if (i == 0) {
        // Even the lowest rate misses: scale it by how far p99 overshoots.
        return phases[0].rate / phases[0].factor *
               std::min(1.0, kLatencyLimitUs / std::max(1.0, phases[0].p99_us));
      }
      const Phase& lo = phases[i - 1];
      const Phase& hi = phases[i];
      const double lo_rate = lo.rate / lo.factor;
      const double hi_rate = hi.rate / hi.factor;
      const double p_hi = std::max(hi.p99_us, hi.lateness_p99_us);
      const double span = std::log(std::max(p_hi, kLatencyLimitUs * 1.000001)) -
                          std::log(std::max(1.0, lo.p99_us));
      const double frac =
          span > 0 ? (std::log(kLatencyLimitUs) -
                      std::log(std::max(1.0, lo.p99_us))) /
                         span
                   : 0.0;
      return lo_rate * std::pow(hi_rate / lo_rate, std::clamp(frac, 0.0, 1.0));
    }
    best = phases[i].rate / phases[i].factor;
  }
  return best;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

std::shared_ptr<Service> LoadOrDie(const std::string& dir) {
  gbkmv::Result<std::unique_ptr<Service>> loaded = Service::Load(dir);
  if (!loaded.ok()) Die("manifest load", loaded.status());
  return std::shared_ptr<Service>(std::move(loaded.value()));
}

// Counts 200 responses that differ from the direct answer.
uint64_t CountWrong(const Phase& phase,
                    const std::vector<QueryResponse>& expected) {
  uint64_t wrong = 0;
  for (const Sample& s : phase.samples) {
    if (s.status != 200) continue;
    gbkmv::Result<server::WireQueryResult> wire =
        server::ParseQueryResult(s.body);
    QueryResponse got;
    if (wire.ok()) got.hits = wire->hits;
    if (!wire.ok() || !SameHits(got, expected[s.query])) ++wrong;
  }
  return wrong;
}

// The traced half: the named rate again over HTTP with client-side spans,
// the same arrivals submitted straight into a standalone MicroBatcher
// wrapping MakeServiceExecutor (no sockets), the wire codec on the
// workload's bodies, and the layer replay under the one shard.
void TraceHttp(const Dataset& dataset, const std::vector<Record>& queries,
               const std::vector<std::string>& bodies,
               const std::vector<std::string>& wire_requests,
               const std::vector<QueryResponse>& expected,
               const std::vector<Arrival>& arrivals,
               const std::shared_ptr<Service>& service, server::Server& srv,
               const Phase& untraced, SpanLog& spans, Report& report) {
  spans.set_enabled(true);
  const serve::QueryCacheStats cache0 = service->cache_stats();
  const server::Server::Stats server0 = srv.stats();
  const Phase traced =
      RunOpenLoop(srv.port(), kRates[kNamed], wire_requests, arrivals);
  const serve::QueryCacheStats cache1 = service->cache_stats();
  const server::Server::Stats server1 = srv.stats();
  if (CountWrong(traced, expected) > 0) {
    report.Fail("traced run: HTTP 200 responses differ from Serve()");
  }
  for (size_t i = 0; i < traced.samples.size(); ++i) {
    const Sample& s = traced.samples[i];
    if (s.status != 200) continue;
    const int64_t root =
        spans.Add("loadgen.request", s.scheduled_ns, s.done_ns, -1, i);
    spans.Add("loadgen.lateness", s.scheduled_ns,
              std::max(s.scheduled_ns, s.sent_ns), root, i);
  }
  const auto hits = static_cast<double>(cache1.hits - cache0.hits);
  const auto misses = static_cast<double>(cache1.misses - cache0.misses);
  spans.Count("serve.cache_hits", hits);
  spans.Count("serve.cache_lookups", hits + misses);
  spans.Count("serve.cache_evictions",
              static_cast<double>(cache1.evictions - cache0.evictions));
  spans.Count("server.requests",
              static_cast<double>(server1.requests - server0.requests));
  spans.Count("server.shed", static_cast<double>(server1.shed - server0.shed));
  // The rate is fixed, so the traced run's cost shows as CPU per request.
  spans.Count("overhead.untraced_ns_per_op",
              1e9 * untraced.cpu_s / static_cast<double>(untraced.ok));
  spans.Count("overhead.traced_ns_per_op",
              1e9 * traced.cpu_s / static_cast<double>(traced.ok));

  // Batcher-direct: same arrivals, same service (its cache as warm as the
  // HTTP run left it), no sockets.
  std::mutex mu;
  std::vector<std::pair<uint64_t, uint64_t>> waits;  // enqueue, exec start
  std::vector<uint64_t> scheduled(arrivals.size(), 0);
  std::vector<uint64_t> done(arrivals.size(), 0);
  std::atomic<uint64_t> wrong{0};
  uint64_t shed = 0;
  const server::BatchExecutor inner = server::MakeServiceExecutor(
      [service] { return server::ServiceSnapshot{service, 1}; },
      kLibraryThreads);
  server::MicroBatcher::Stats batcher_stats;
  {
    IdleSpinner spinner;  // the same idle conditions as the HTTP run
    server::MicroBatcher batcher(
        [&](std::vector<server::PendingQuery> batch) {
          const uint64_t start = NowNs();
          {
            std::lock_guard<std::mutex> lock(mu);
            for (const server::PendingQuery& q : batch) {
              waits.emplace_back(q.enqueue_ns, start);
            }
          }
          inner(std::move(batch));
        },
        MakeBatcherOptions());
    const uint64_t start_ns = NowNs() + 1000000;
    for (size_t i = 0; i < arrivals.size(); ++i) {
      scheduled[i] = start_ns + static_cast<uint64_t>(arrivals[i].at_s * 1e9);
      SleepUntil(scheduled[i]);
      server::PendingQuery q;
      q.record = queries[arrivals[i].query];
      q.threshold = kThreshold;
      q.top_k = kTopK;
      const QueryResponse* want = &expected[arrivals[i].query];
      q.done = [&done, &wrong, want, i](QueryResponse response, uint64_t) {
        done[i] = NowNs();
        if (!SameHits(response, *want)) wrong.fetch_add(1);
      };
      if (!batcher.Submit(std::move(q))) ++shed;
    }
    batcher.Drain();
    batcher_stats = batcher.stats();
  }
  if (wrong.load() > 0) {
    report.Fail("batcher-direct responses differ from Serve()");
  }
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (done[i] != 0) spans.Add("batcher.direct", scheduled[i], done[i], -1, i);
  }
  for (const auto& [enqueue, start] : waits) {
    spans.Add("server.batcher.queue_wait", enqueue, start, -1, 0);
  }
  spans.Count("server.batcher.submitted",
              static_cast<double>(batcher_stats.submitted));
  spans.Count("server.batcher.batches",
              static_cast<double>(batcher_stats.batches));
  spans.Count("server.batcher.deadline_flushes",
              static_cast<double>(batcher_stats.deadline_flushes));
  spans.Count("server.batcher.shed", static_cast<double>(shed));

  // Wire codec on the workload's own bodies.
  for (size_t i = 0; i < bodies.size(); ++i) {
    uint64_t t0 = NowNs();
    gbkmv::Result<server::QueryBody> parsed = server::ParseQueryBody(bodies[i]);
    uint64_t t1 = NowNs();
    spans.Add("server.wire.parse", t0, t1, -1, i);
    if (!parsed.ok() || parsed->elements != queries[i]) {
      report.Fail("ParseQueryBody does not round-trip a workload body");
    }
    t0 = NowNs();
    const std::string out =
        server::SerializeQueryResponse(expected[i], 1, true, false);
    t1 = NowNs();
    spans.Add("server.wire.serialize", t0, t1, -1, i);
    if (out.empty()) std::abort();
  }

  // Layer replay under the single shard.
  const GbKmvSketcher sketcher = MakeReplaySketcher(dataset);
  for (size_t i = 0; i < kReplayQueries && i < queries.size(); ++i) {
    ReplayLayers(*service, sketcher, TopKRequest(queries[i]), i, spans);
  }
  spans.Count("shards", static_cast<double>(service->num_shards()));
  spans.Count("speed_factor", traced.factor);
}

}  // namespace

void RunHttp(const Args& args, SpanLog& spans, Report& report) {
  const Dataset dataset = MakeDataset(kRecords, kUniverse, kMaxRecordSize,
                                      args.seed, "http-zipf");
  const QueryPool pool = SampleQueryPool(dataset, kPool, args.seed + 1);
  const std::vector<Record>& queries = pool.records;
  std::vector<std::string> bodies;
  std::vector<std::string> wire_requests;
  for (const Record& q : queries) {
    bodies.push_back(QueryJson(q));
    wire_requests.push_back(WireRequest(bodies.back()));
  }
  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<uint32_t> rank_to_query(kPool);
  for (uint32_t i = 0; i < kPool; ++i) rank_to_query[i] = i;
  std::shuffle(rank_to_query.begin(), rank_to_query.end(), rng);

  SearcherConfig config = ServiceConfig(1);
  config.sharded.cache_capacity = kCacheCapacity;
  gbkmv::Result<std::unique_ptr<Service>> built =
      serve::BuildShardedService(dataset, config);
  if (!built.ok()) Die("service build", built.status());

  // Direct answers: the reference every 200 response must bit-match, and
  // the threshold answers F-1 is computed from.
  std::vector<QueryResponse> expected;
  std::vector<std::vector<RecordId>> answers;
  for (const Record& q : queries) {
    expected.push_back((*built)->Serve(TopKRequest(q), kLibraryThreads));
    std::vector<RecordId> ids;
    for (const QueryHit& h :
         (*built)->Serve(ThresholdRequest(q), kLibraryThreads).hits) {
      ids.push_back(h.id);
    }
    answers.push_back(std::move(ids));
  }
  const std::vector<std::vector<RecordId>> truth =
      ComputeGroundTruth(dataset, pool.ids, kThreshold, kLibraryThreads);

  const std::string dir =
      args.workdir + "/http-manifest-" + std::to_string(args.seed);
  std::filesystem::remove_all(dir);
  if (Status s = (*built)->Save(dir); !s.ok()) Die("manifest save", s);
  built->reset();

  // setup_s: Load (mmap) + Server::Start up to the first 200, median of
  // reps; the last server stays up for the measurement.
  std::vector<double> loads_ms;
  std::shared_ptr<Service> service;
  std::unique_ptr<server::Server> srv;
  double raw_setup = 0.0;
  const double setup = MedianSetupSeconds([&] {
    if (srv != nullptr) srv->Shutdown();
    srv.reset();
    service.reset();
    WallTimer timer;
    service = LoadOrDie(dir);
    loads_ms.push_back(timer.ElapsedMillis());
    gbkmv::Result<std::unique_ptr<server::Server>> started =
        server::Server::Start(service, MakeServerOptions());
    if (!started.ok()) Die("server start", started.status());
    srv = std::move(started.value());
    HttpBlockingClient client;
    if (Status s = client.Connect("127.0.0.1", srv->port()); !s.ok()) {
      Die("connect", s);
    }
    gbkmv::Result<HttpClientResponse> first =
        client.RoundTrip("POST", "/v1/query", bodies[0]);
    if (!first.ok()) Die("first query", first.status());
    if (first->status != 200) {
      Die("first query", Status::Internal("HTTP " +
                                          std::to_string(first->status)));
    }
  }, &raw_setup);
  const uint16_t port = srv->port();

  // The ladder. In a traced run it gets half the time; the other half
  // repeats the named rate with spans and drives the batcher directly.
  const double ladder_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<Phase> phases;
  for (size_t i = 0; i < std::size(kRates); ++i) {
    const double share = i < kNamed    ? kLowShare
                         : i == kNamed ? kNamedShare
                                       : kUpperShare;
    const std::vector<Arrival> arrivals =
        Schedule(kRates[i], ladder_s * share, rank_to_query, rng);
    phases.push_back(RunOpenLoop(port, kRates[i], wire_requests, arrivals));
    // Peak RSS up to the named rate. The rungs above it end in deliberate
    // overload, whose backlog grows with how far the last rung passes
    // capacity: a faster machine climbs higher and queues more.
    if (i == kNamed) report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    if (i > kNamed && !MeetsLimit(phases.back())) break;
  }

  // Every 200 must bit-match the direct Serve() answer.
  uint64_t attempted = 0, failed = 0, wrong = 0;
  // Throughput counts the fixed rungs up to the named rate, which every
  // run has. It is the offered rate unless requests fail, so only failures
  // move it. The overloaded last rung would read the server's capacity,
  // but how long its backlog takes to drain varies several-fold between
  // runs (34k req/s on most seeds, 5k-15k on some).
  double served = 0.0, served_wall = 0.0;
  for (size_t i = 0; i < phases.size(); ++i) {
    const Phase& p = phases[i];
    attempted += p.samples.size();
    failed += p.samples.size() - p.ok;
    wrong += CountWrong(p, expected);
    if (i <= kNamed) {
      served += static_cast<double>(p.ok);
      served_wall += p.wall_s;
    }
  }
  if (wrong > 0) {
    report.Fail(std::to_string(wrong) +
                " HTTP 200 responses differ from the direct Serve() answer");
  }

  const Phase& named = phases[kNamed];
  report.Metric("setup_s", setup, "s");
  report.Metric("throughput_ops", served / std::max(1e-9, served_wall),
                "ops/s");
  // CPU per request at the named rate: the overloaded top rung batches
  // more per call and would blend a cheaper regime into the figure.
  report.Metric("cpu_us_per_op",
                1e6 * named.cpu_s / static_cast<double>(named.ok), "us");
  report.Metric("latency_p50_us", named.p50_us, "us");
  report.Metric("latency_p99_us", named.p99_us, "us");
  report.Metric("max_qps_at_slo", MaxQpsAtSlo(phases), "req/s");
  report.Metric("f1", MeanF1(answers, truth), "ratio");
  report.Metric("space_ratio",
                static_cast<double>(service->SpaceUnits()) /
                    static_cast<double>(dataset.total_elements()),
                "ratio");
  report.attempted = attempted;
  report.failed = failed + wrong;
  for (size_t i = 0; i < phases.size(); ++i) {
    const std::string tag = "rate_" + std::to_string(static_cast<int>(
                                          phases[i].rate));
    report.Info(tag + ".samples",
                static_cast<double>(phases[i].latency_us.size()), "count");
    report.Info(tag + ".p50_us", phases[i].p50_us, "us");
    report.Info(tag + ".p99_us", phases[i].p99_us, "us");
    report.Info(tag + ".achieved_rps",
                static_cast<double>(phases[i].ok) / phases[i].wall_s, "req/s");
    report.Info(tag + ".lateness_p99_us", phases[i].lateness_p99_us, "us");
  }
  report.Info("latency_limit_us", kLatencyLimitUs, "us");
  report.Info("raw.setup_s", raw_setup, "s");
  report.Info("speed_factor", named.factor, "ratio");
  report.Info("records", static_cast<double>(dataset.size()), "count");

  if (args.trace) {
    const std::vector<Arrival> arrivals =
        Schedule(kRates[kNamed], args.seconds / 4, rank_to_query, rng);
    TraceHttp(dataset, queries, bodies, wire_requests, expected, arrivals,
              service, *srv, named, spans, report);
    for (double ms : loads_ms) {
      spans.Add("io.load", 0, static_cast<uint64_t>(ms * 1e6), -1, 0);
    }
    spans.Count("io.snapshot_bytes", static_cast<double>(DirectoryBytes(dir)));
    spans.set_enabled(false);
  }

  srv->Shutdown();
  std::filesystem::remove_all(dir);
}

}  // namespace ledger
}  // namespace gbkmv
