// Shared plumbing of the ledger benchmark (ledger/README.md): workload
// inputs, CPU and memory probes, latency summaries, the in-memory span
// recorder the traced run writes, and the result the three workloads fill.
//
// Every timing here is taken from the benchmark's own code around calls
// into the library's public API; nothing under src/ is instrumented.

#ifndef GBKMV_LEDGER_COMMON_H_
#define GBKMV_LEDGER_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/containment.h"
#include "data/dataset.h"
#include "index/query.h"
#include "serve/sharded_service.h"
#include "sketch/gbkmv.h"

namespace gbkmv {
namespace ledger {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;    // scratch space for manifests (inside the checkout)
  std::string dump_path;  // where the traced run writes its spans
  std::string commit;     // source identity, for the calibration block
};

// Fixed knobs shared by every workload (README.md "Workloads"). Each workload
// generates its dataset from its seed with the same shape.
inline constexpr size_t kRecords = 10000;
inline constexpr size_t kUniverse = 50000;
inline constexpr size_t kMaxRecordSize = 500;
inline constexpr double kThreshold = 0.5;
inline constexpr size_t kTopK = 10;
inline constexpr double kSpaceRatio = 0.10;
// GB-KMV buffer width, fixed rather than left to the cost model: on these
// datasets the cost model picks 32 or 64 bits depending on the seed, which
// splits every seed-dependent figure (F-1, space, query cost) into two
// clusters and hides a real change behind the split.
inline constexpr size_t kBufferBits = 64;
// Every thread count is explicit: library calls take 1 worker, and the
// HTTP load generator uses kClientThreads threads (<= nproc).
inline constexpr size_t kLibraryThreads = 1;
inline constexpr size_t kClientThreads = 4;
// Latency limit on p99 for max_qps_at_slo, in microseconds.
inline constexpr double kLatencyLimitUs = 20000.0;
// Set-up repetitions; setup_s reports their median.
inline constexpr int kSetupReps = 15;

// Prints `what: status` to stderr and exits 1: set-up that cannot work is
// a failed run, not a metric.
[[noreturn]] void Die(const char* what, const Status& status);

// --- inputs ----------------------------------------------------------------

// Zipf elements (alpha1 = 1.1) over `universe`, power-law record sizes
// (alpha2 = 2) in [10, max_size]: the paper's synthetic generator.
Dataset MakeDataset(size_t records, size_t universe, size_t max_size,
                    uint64_t seed, const char* name);

// `count` distinct records of `dataset` chosen with `seed`, as in the
// paper's query sampling: their ids (for ComputeGroundTruth) and copies.
struct QueryPool {
  std::vector<RecordId> ids;
  std::vector<Record> records;
};
QueryPool SampleQueryPool(const Dataset& dataset, size_t count, uint64_t seed);

// A GB-KMV service config with the shared knobs above, `shards`
// size-stratified shards and no cache; workloads add their own knobs.
SearcherConfig ServiceConfig(size_t shards);

// The global sketcher every shard of such a service uses (for the layer
// replay's sketch span).
GbKmvSketcher MakeReplaySketcher(const Dataset& dataset);

QueryRequest TopKRequest(const Record& record);
QueryRequest ThresholdRequest(const Record& record);

// Exact containment answer of `query` over `records` (ids = positions)
// restricted to live[i] != 0 when `live` is non-empty: a linear scan with
// a sorted-merge intersection, independent of every index in src/.
std::vector<RecordId> ExactAnswer(const Record& query,
                                  const std::vector<Record>& records,
                                  const std::vector<uint8_t>& live);

// Mean per-query F-1 (the paper's measure) of `answers` against `truth`.
double MeanF1(const std::vector<std::vector<RecordId>>& answers,
              const std::vector<std::vector<RecordId>>& truth);

bool SameHits(const QueryResponse& a, const QueryResponse& b);

// --- probes ----------------------------------------------------------------

double ProcessCpuSeconds();  // user + sys of the whole process
uint64_t ProcessCpuNanos();
uint64_t ThreadCpuNanos();
double PeakRssMb();
uint64_t NowNs();
void SleepUntil(uint64_t ns);  // an absolute NowNs() time

struct Calibration {
  size_t nproc = 0;
  double effective_cores = 0.0;
  std::string simd;
  std::string compiler;
  std::string build_type;
  std::string commit;
};
// Spins one thread per core for a short window and reports total CPU
// obtained over wall time.
Calibration Calibrate(const std::string& commit);

// --- speed normalisation ---------------------------------------------------

// The speed of one core of a shared host drifts by about ±20% within a
// minute (a fixed sort timed on one pinned core took 42-63 ms, thread CPU
// time and wall time alike), which would swamp most code changes.
// Every time the benchmark reports is therefore expressed at reference
// speed: the workload runs in slices of about kSliceNs, a fixed reference
// task is timed on the calling thread (thread CPU time, so the process's
// own other threads do not count) before each slice, and every duration
// measured in the slice is multiplied by the slice's factor
// kReferenceNs / (the reference task's time). The raw figures are printed
// beside the normalised ones.
inline constexpr uint64_t kSliceNs = 100000000;   // 100 ms
inline constexpr double kReferenceNs = 2500000.0;  // 2.5 ms

// Runs the reference task once and returns its thread CPU time in ns.
double ReferenceTaskNs();

// Slices a measured loop and accumulates its wall and process CPU time at
// reference speed. Open() probes and starts a slice, Close() ends it, and
// Tick() (call once per operation) rolls over to a new slice when the
// current one is kSliceNs old. Time outside slices (probes, checkpoints)
// is not measured.
class NormClock {
 public:
  void Open();
  void Close();
  void Tick() {
    if (NowNs() - slice_start_ns_ >= kSliceNs) {
      Close();
      Open();
    }
  }
  double factor() const { return factor_; }
  // Raw wall time measured so far, the open slice included.
  double ElapsedRawSeconds() const {
    return raw_wall_s_ +
           (open_ ? 1e-9 * static_cast<double>(NowNs() - slice_start_ns_)
                  : 0.0);
  }
  double wall_s() const { return wall_s_; }  // normalised
  double cpu_s() const { return cpu_s_; }    // normalised
  double raw_wall_s() const { return raw_wall_s_; }
  double raw_cpu_s() const { return raw_cpu_s_; }

 private:
  double factor_ = 1.0;
  bool open_ = false;
  uint64_t slice_start_ns_ = 0;
  double slice_start_cpu_s_ = 0.0;
  double wall_s_ = 0.0, cpu_s_ = 0.0;
  double raw_wall_s_ = 0.0, raw_cpu_s_ = 0.0;
};

// Keeps the pinned core from going idle while it lives: a SCHED_IDLE
// thread spins, so it runs only when nothing else is runnable and yields
// at once to any wake-up. Without it, every request of an open loop at a
// few thousand per second pays the machine's idle-exit latency, which on
// a shared host varies from run to run: the HTTP p50 at the named rate
// spread by 0.37 (IQR / median over 10 seeds) without it. Stop() returns
// the CPU it burned so callers can subtract it.
class IdleSpinner {
 public:
  IdleSpinner();
  ~IdleSpinner();
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;

  // Stops and joins the spinner (idempotent); returns the CPU it used.
  double Stop();

 private:
  std::atomic<bool> stop_{false};
  double spin_cpu_s_ = 0.0;
  std::thread thread_;
};

// Runs `setup` kSetupReps times, each after a reference probe, and returns
// the median duration in seconds at reference speed; the raw median goes
// to `raw_median_s`.
double MedianSetupSeconds(const std::function<void()>& setup,
                          double* raw_median_s);

// Percentile by nearest rank on a copy (q in [0, 1]); 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
// Percentile q of a time-ordered series, as the median of the percentiles
// of up to 32 consecutive windows of at least kMinWindow samples each:
// a burst of interference on the shared machine moves one window, not the
// reported figure. With fewer than 2 * kMinWindow samples it is the plain
// percentile.
inline constexpr size_t kMinWindow = 1000;
double WindowedPercentile(const std::vector<double>& series, double q);

// --- spans (traced run) ----------------------------------------------------

// One timed call into a layer, recorded from the benchmark's own code.
// `parent` indexes the span that caused it (-1 for a root); spans of one
// request share `request`. `items` is how many queries the call carried
// and `cpu_ns` the process CPU it consumed (0 when not sampled).
struct Span {
  const char* layer = "";  // a string literal
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
  uint64_t items = 1;
  uint64_t cpu_ns = 0;
};

class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Returns the new span's index, or -1 when disabled.
  int64_t Add(const char* layer, uint64_t start_ns, uint64_t end_ns,
              int64_t parent, uint64_t request, uint64_t items = 1,
              uint64_t cpu_ns = 0);
  // Closes a span opened with end_ns == start_ns (a parent whose extent is
  // only known after its children ran).
  void EndAt(int64_t index, uint64_t end_ns) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = end_ns;
  }
  void Count(const std::string& name, double value) {
    counters_[name] = value;
  }
  void Accumulate(const std::string& name, double value) {
    counters_[name] += value;
  }

  // Writes every span and counter as tab-separated lines:
  //   span <layer> <start_ns> <end_ns> <parent> <request> <items> <cpu_ns>
  //   counter <name> <value>
  bool Dump(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

// Replays one request through the layers under a service, timing each
// public call: the global sketcher's Sketch (what every GB-KMV shard does
// first), each immutable shard's SearchQ, and MergeShardResponses over the
// shard partials. Records a "probe" root span with "sketch",
// "index.searchq" and "serve.merge" children, and adds the shards'
// QueryStats to the "index.*" counters.
void ReplayLayers(const serve::ShardedContainmentService& service,
                  const GbKmvSketcher& sketcher, const QueryRequest& request,
                  uint64_t request_id, SpanLog& spans);

// --- result ----------------------------------------------------------------

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  // The end-to-end metrics of BENCHMARK.json, and everything else the
  // report prints: sample counts, raw (unnormalised) figures, sizes.
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::pair<double, std::string>> info;

  void Fail(const std::string& what);
  void Metric(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void Info(const std::string& name, double value, const char* unit) {
    info[name] = {value, unit};
  }
};

// Reports the end-to-end metrics both closed loops (batch-s8, mutate)
// share: set-up, throughput, CPU per operation, p50 and p99 latency,
// max_qps_at_slo and peak RSS so far, plus the raw figures behind them.
void ReportClosedLoop(const NormClock& clock, uint64_t ops,
                      const std::vector<double>& latency_us, double setup_s,
                      double raw_setup_s, Report& report);

// Per-workload entry points (batch.cc, http.cc, mutate.cc). Each fills
// `report` with the end-to-end metrics of an untraced measurement and, in
// a traced run, also records spans and counters into `spans`.
void RunBatch(const Args& args, SpanLog& spans, Report& report);
void RunHttp(const Args& args, SpanLog& spans, Report& report);
void RunMutate(const Args& args, SpanLog& spans, Report& report);

}  // namespace ledger
}  // namespace gbkmv

#endif  // GBKMV_LEDGER_COMMON_H_
