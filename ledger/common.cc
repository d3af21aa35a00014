#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/timer.h"
#include "data/synthetic.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "index/gbkmv_index.h"
#include "serve/merge.h"
#include "storage/simd/simd.h"

namespace gbkmv {
namespace ledger {

void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

Dataset MakeDataset(size_t records, size_t universe, size_t max_size,
                    uint64_t seed, const char* name) {
  SyntheticConfig config;
  config.name = name;
  config.num_records = records;
  config.universe_size = universe;
  config.min_record_size = 10;
  config.max_record_size = max_size;
  config.alpha_element_freq = 1.1;
  config.alpha_record_size = 2.0;
  config.seed = seed;
  gbkmv::Result<Dataset> dataset = GenerateSynthetic(config);
  if (!dataset.ok()) Die("dataset generation", dataset.status());
  return std::move(dataset.value());
}

QueryPool SampleQueryPool(const Dataset& dataset, size_t count, uint64_t seed) {
  QueryPool pool;
  pool.ids = SampleQueries(dataset, count, seed);
  for (RecordId id : pool.ids) pool.records.push_back(dataset.record(id));
  return pool;
}

SearcherConfig ServiceConfig(size_t shards) {
  SearcherConfig config;
  config.method = SearchMethod::kGbKmv;
  config.space_ratio = kSpaceRatio;
  config.buffer_bits = kBufferBits;
  config.num_threads = kLibraryThreads;
  config.sharded.num_shards = shards;
  config.sharded.partitioner = ShardPartitioner::kSizeStratified;
  return config;
}

GbKmvSketcher MakeReplaySketcher(const Dataset& dataset) {
  GbKmvIndexOptions options;
  options.space_ratio = kSpaceRatio;
  options.buffer_bits = kBufferBits;
  options.num_threads = kLibraryThreads;
  gbkmv::Result<GbKmvSketcher> sketcher =
      GbKmvIndexSearcher::MakeSketcher(dataset, options);
  if (!sketcher.ok()) Die("sketcher", sketcher.status());
  return std::move(sketcher.value());
}

QueryRequest TopKRequest(const Record& record) {
  QueryRequest request(record, kThreshold);
  request.top_k = kTopK;
  return request;
}

QueryRequest ThresholdRequest(const Record& record) {
  return QueryRequest(record, kThreshold);
}

std::vector<RecordId> ExactAnswer(const Record& query,
                                  const std::vector<Record>& records,
                                  const std::vector<uint8_t>& live) {
  std::vector<RecordId> answer;
  if (query.empty()) return answer;
  // C(Q, X) >= t  <=>  |Q ∩ X| >= ceil(t |Q|), evaluated in integers so the
  // boundary matches the library's exact methods.
  const double need_real = kThreshold * static_cast<double>(query.size());
  size_t need = static_cast<size_t>(need_real);
  if (static_cast<double>(need) < need_real) ++need;
  for (size_t i = 0; i < records.size(); ++i) {
    if (!live.empty() && live[i] == 0) continue;
    const Record& x = records[i];
    if (x.size() < need) continue;
    size_t a = 0, b = 0, common = 0;
    while (a < query.size() && b < x.size()) {
      if (query[a] < x[b]) {
        ++a;
      } else if (x[b] < query[a]) {
        ++b;
      } else {
        ++common;
        ++a;
        ++b;
      }
    }
    if (common >= need) answer.push_back(static_cast<RecordId>(i));
  }
  return answer;
}

double MeanF1(const std::vector<std::vector<RecordId>>& answers,
              const std::vector<std::vector<RecordId>>& truth) {
  std::vector<AccuracyMetrics> per_query;
  per_query.reserve(answers.size());
  for (size_t i = 0; i < answers.size(); ++i) {
    per_query.push_back(ComputeAccuracy(answers[i], truth[i]));
  }
  return AverageAccuracy(per_query).f1;
}

bool SameHits(const QueryResponse& a, const QueryResponse& b) {
  if (a.hits.size() != b.hits.size()) return false;
  for (size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].id != b.hits[i].id) return false;
    // Bit-identical scores, not merely equal ones.
    uint32_t x, y;
    static_assert(sizeof(float) == sizeof(uint32_t));
    std::memcpy(&x, &a.hits[i].score, sizeof x);
    std::memcpy(&y, &b.hits[i].score, sizeof y);
    if (x != y) return false;
  }
  return true;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

uint64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t NowNs() { return MonotonicNanos(); }

void SleepUntil(uint64_t ns) {
  const uint64_t now = NowNs();
  if (now < ns) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
}

Calibration Calibrate(const std::string& commit) {
  Calibration c;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  c.nproc = n > 0 ? static_cast<size_t>(n) : 1;
  // One spinner per online CPU for 200 ms: the CPU time the process
  // actually obtains per wall second is the number of cores it can use.
  constexpr double kWindow = 0.2;
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  const double cpu0 = ProcessCpuSeconds();
  WallTimer wall;
  for (size_t i = 0; i < c.nproc; ++i) {
    spinners.emplace_back([&stop] {
      volatile uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) sink = sink + 1;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWindow));
  stop.store(true);
  for (std::thread& t : spinners) t.join();
  c.effective_cores = (ProcessCpuSeconds() - cpu0) / wall.ElapsedSeconds();
  c.simd = SimdLevelName(ActiveSimdLevel());
  c.compiler = LEDGER_COMPILER;
  c.build_type = LEDGER_BUILD_TYPE;
  c.commit = commit;
  return c;
}

double ReferenceTaskNs() {
  static std::vector<uint32_t> data(1 << 15);
  const uint64_t start = ThreadCpuNanos();
  uint32_t x = 12345;
  for (uint32_t& v : data) {
    x = x * 1664525u + 1013904223u;
    v = x;
  }
  std::sort(data.begin(), data.end());
  const uint64_t end = ThreadCpuNanos();
  if (data.front() > data.back()) std::abort();  // keeps the sort alive
  return static_cast<double>(end - start);
}

void NormClock::Open() {
  factor_ = kReferenceNs / std::max(1.0, ReferenceTaskNs());
  open_ = true;
  slice_start_ns_ = NowNs();
  slice_start_cpu_s_ = ProcessCpuSeconds();
}

void NormClock::Close() {
  open_ = false;
  const double wall = 1e-9 * static_cast<double>(NowNs() - slice_start_ns_);
  const double cpu = ProcessCpuSeconds() - slice_start_cpu_s_;
  raw_wall_s_ += wall;
  raw_cpu_s_ += cpu;
  wall_s_ += wall * factor_;
  cpu_s_ += cpu * factor_;
}

IdleSpinner::IdleSpinner()
    : thread_([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        const uint64_t start = ThreadCpuNanos();
        while (!stop_.load(std::memory_order_relaxed)) {
          std::this_thread::yield();
        }
        spin_cpu_s_ = 1e-9 * static_cast<double>(ThreadCpuNanos() - start);
      }) {}

IdleSpinner::~IdleSpinner() { Stop(); }

double IdleSpinner::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return spin_cpu_s_;
}

double MedianSetupSeconds(const std::function<void()>& setup,
                          double* raw_median_s) {
  std::vector<double> normalised, raw;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double factor = kReferenceNs / std::max(1.0, ReferenceTaskNs());
    WallTimer timer;
    setup();
    raw.push_back(timer.ElapsedSeconds());
    normalised.push_back(raw.back() * factor);
  }
  *raw_median_s = Median(raw);
  return Median(normalised);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size())));
  return values[rank];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double WindowedPercentile(const std::vector<double>& series, double q) {
  const size_t windows = std::clamp<size_t>(series.size() / kMinWindow, 1, 32);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = series.size() * w / windows;
    const size_t end = series.size() * (w + 1) / windows;
    per_window.push_back(Percentile(
        std::vector<double>(series.begin() + begin, series.begin() + end), q));
  }
  return Median(per_window);
}

int64_t SpanLog::Add(const char* layer, uint64_t start_ns, uint64_t end_ns,
                     int64_t parent, uint64_t request, uint64_t items,
                     uint64_t cpu_ns) {
  if (!enabled_) return -1;
  spans_.push_back({layer, start_ns, end_ns, parent, request, items, cpu_ns});
  return static_cast<int64_t>(spans_.size()) - 1;
}

bool SpanLog::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f, "span\t%s\t%llu\t%llu\t%lld\t%llu\t%llu\t%llu\n", s.layer,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.items),
                 static_cast<unsigned long long>(s.cpu_ns));
  }
  for (const auto& [name, value] : counters_) {
    std::fprintf(f, "counter\t%s\t%.17g\n", name.c_str(), value);
  }
  return std::fclose(f) == 0;
}

void ReplayLayers(const serve::ShardedContainmentService& service,
                  const GbKmvSketcher& sketcher, const QueryRequest& request,
                  uint64_t request_id, SpanLog& spans) {
  const uint64_t probe_start = NowNs();
  const int64_t root = spans.Add("probe", probe_start, probe_start, -1,
                                 request_id);
  uint64_t t0 = NowNs();
  const GbKmvSketch sketch = sketcher.Sketch(*request.record);
  uint64_t t1 = NowNs();
  spans.Add("sketch", t0, t1, root, request_id);
  if (sketch.SpaceUnits(sketcher.buffer_bits()) == ~size_t{0}) std::abort();

  const size_t num_shards = service.num_shards();
  std::vector<QueryResponse> partial(num_shards);
  std::vector<serve::ShardPartial> parts(num_shards);
  QueryContext& ctx = ThreadLocalQueryContext();
  for (size_t s = 0; s < num_shards; ++s) {
    const serve::ShardView view = service.shard(s);
    t0 = NowNs();
    partial[s] = view.searcher->SearchQ(request, ctx);
    t1 = NowNs();
    spans.Add("index.searchq", t0, t1, root, request_id);
    parts[s] = {&partial[s], view.global_ids};
    spans.Accumulate("index.postings_scanned",
                     static_cast<double>(partial[s].stats.postings_scanned));
    spans.Accumulate(
        "index.candidates_generated",
        static_cast<double>(partial[s].stats.candidates_generated));
    spans.Accumulate("index.candidates_refined",
                     static_cast<double>(partial[s].stats.candidates_refined));
  }
  t0 = NowNs();
  const QueryResponse merged = serve::MergeShardResponses(request, parts);
  t1 = NowNs();
  spans.Add("serve.merge", t0, t1, root, request_id);
  if (merged.hits.size() > service.size()) std::abort();
  spans.EndAt(root, t1);
}

void ReportClosedLoop(const NormClock& clock, uint64_t ops,
                      const std::vector<double>& latency_us, double setup_s,
                      double raw_setup_s, Report& report) {
  const auto n = static_cast<double>(ops);
  const double throughput = n / clock.wall_s();
  const double p99 = WindowedPercentile(latency_us, 0.99);
  report.Metric("setup_s", setup_s, "s");
  report.Metric("throughput_ops", throughput, "ops/s");
  report.Metric("cpu_us_per_op", 1e6 * clock.cpu_s() / n, "us");
  report.Metric("latency_p50_us", WindowedPercentile(latency_us, 0.5), "us");
  // A closed loop never builds a backlog: it sustains its own rate,
  // scaled down when its p99 misses the limit.
  report.Metric("max_qps_at_slo",
                throughput * std::min(1.0, kLatencyLimitUs / p99), "req/s");
  report.Metric("latency_p99_us", p99, "us");
  report.Info("latency_samples", static_cast<double>(latency_us.size()),
              "count");
  report.Info("raw.throughput_ops", n / clock.raw_wall_s(), "ops/s");
  report.Info("raw.cpu_us_per_op", 1e6 * clock.raw_cpu_s() / n, "us");
  report.Info("raw.setup_s", raw_setup_s, "s");
  report.Info("speed_factor", clock.wall_s() / clock.raw_wall_s(), "ratio");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
}

void Report::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

}  // namespace ledger
}  // namespace gbkmv
