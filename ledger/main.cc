// gbkmv_ledger: one seeded workload of the ledger benchmark per process
// (ledger/README.md). ledger/run.py builds this binary and drives it; it
// can also be run by hand:
//
//   gbkmv_ledger --workload batch-s8|http-zipf|mutate --seed N
//                --seconds T --trace 0|1 --workdir DIR [--dump PATH]
//                [--commit ID]
//
// Prints a readable report, then one JSON line (the last line of stdout)
// with the correctness verdict, operation counts, end-to-end metrics,
// sample counts and the machine calibration. A traced run (--trace 1)
// also writes its spans and counters to --dump. Exit status: 0 when every
// correctness check passed, 3 when one failed, 2 on bad arguments.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "common/parse.h"
#include "common/thread_pool.h"

namespace gbkmv {
namespace ledger {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "gbkmv_ledger: %s\nusage: gbkmv_ledger --workload "
               "batch-s8|http-zipf|mutate --seed N --seconds T --trace 0|1 "
               "--workdir DIR [--dump PATH] [--commit ID]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      gbkmv::Result<uint64_t> seed = ParseU64(value);
      if (!seed.ok()) Usage("--seed must be a non-negative integer");
      args.seed = *seed;
      have_seed = true;
    } else if (flag == "--seconds") {
      gbkmv::Result<double> seconds = ParseF64(value);
      if (!seconds.ok() || !(*seconds > 0) || *seconds > 600) {
        Usage("--seconds must be in (0, 600]");
      }
      args.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--dump") {
      args.dump_path = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_seed) Usage("--workload and --seed");
  if (args.workdir.empty()) Usage("--workdir is required");
  if (args.trace && args.dump_path.empty()) Usage("--trace 1 needs --dump");
  return args;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void PrintNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

// Pins the process to the highest-numbered CPU it may use; returns it, or
// -1 when the affinity could not be set (the run continues unpinned).
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // Any library call left at its "0 = default" thread count resolves to
  // the benchmark's explicit count, never the hardware concurrency.
  SetDefaultThreads(kLibraryThreads);
  std::filesystem::create_directories(args.workdir);

  const Calibration calibration = Calibrate(args.commit);
  // Everything after the calibration probe runs on one CPU: the machine's
  // usable core count drifts between runs (calibration.effective_cores),
  // and a fixed single core keeps multi-threaded paths (HTTP clients,
  // reactor, batch worker, background compaction) comparable across runs.
  const int cpu = PinToOneCpu();
  SpanLog spans;
  Report report;
  if (args.workload == "batch-s8") {
    RunBatch(args, spans, report);
  } else if (args.workload == "http-zipf") {
    RunHttp(args, spans, report);
  } else if (args.workload == "mutate") {
    RunMutate(args, spans, report);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (args.trace && !spans.Dump(args.dump_path)) {
    report.Fail("cannot write span dump " + args.dump_path);
  }

  std::printf("ledger workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("calibration: nproc=%zu effective_cores=%.2f pinned_cpu=%d "
              "simd=%s compiler=\"%s\" build=%s commit=%s\n",
              calibration.nproc, calibration.effective_cores, cpu,
              calibration.simd.c_str(), calibration.compiler.c_str(),
              calibration.build_type.c_str(), calibration.commit.c_str());
  for (const auto& [name, mu] : report.metrics) {
    std::printf("  %-18s %14.4f %s\n", name.c_str(), mu.first,
                mu.second.c_str());
  }
  for (const auto& [name, vu] : report.info) {
    std::printf("  [%s] %.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::printf("  attempted=%llu failed=%llu failed_frac=%.6f ratio\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.attempted > 0
                  ? static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted)
                  : 0.0);
  for (const std::string& error : report.errors) {
    std::printf("  CHECK FAILED: %s\n", error.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  std::printf("\"metrics\": {");
  const char* sep = "";
  for (const auto& [name, mu] : report.metrics) {
    std::printf("%s", sep);
    PrintJsonString(name);
    std::printf(": {\"value\": ");
    PrintNumber(mu.first);
    std::printf(", \"unit\": ");
    PrintJsonString(mu.second);
    std::printf("}");
    sep = ", ";
  }
  std::printf("}, \"info\": {");
  sep = "";
  for (const auto& [name, vu] : report.info) {
    std::printf("%s", sep);
    PrintJsonString(name);
    std::printf(": {\"value\": ");
    PrintNumber(vu.first);
    std::printf(", \"unit\": ");
    PrintJsonString(vu.second);
    std::printf("}");
    sep = ", ";
  }
  std::printf("}, \"calibration\": {\"nproc\": %zu, \"effective_cores\": ",
              calibration.nproc);
  PrintNumber(calibration.effective_cores);
  std::printf(", \"pinned_cpu\": %d, \"simd\": ", cpu);
  PrintJsonString(calibration.simd);
  std::printf(", \"compiler\": ");
  PrintJsonString(calibration.compiler);
  std::printf(", \"build_type\": ");
  PrintJsonString(calibration.build_type);
  std::printf(", \"commit\": ");
  PrintJsonString(calibration.commit);
  std::printf("}, \"errors\": [");
  sep = "";
  for (const std::string& error : report.errors) {
    std::printf("%s", sep);
    PrintJsonString(error);
    sep = ", ";
  }
  std::printf("]}\n");
  std::fflush(stdout);
  return report.correct ? 0 : 3;
}

}  // namespace
}  // namespace ledger
}  // namespace gbkmv

int main(int argc, char** argv) { return gbkmv::ledger::Main(argc, argv); }
