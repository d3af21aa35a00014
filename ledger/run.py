#!/usr/bin/env python3
"""Ledger benchmark runner: builds gbkmv_ledger from source and runs one
workload.

    python3 ledger/run.py --workload batch-s8|http-zipf|mutate \
        --seed N --seconds T --trace 0|1

Run from the root of a source checkout. The binary is built with CMake
under $CARGO_TARGET_DIR/ledger (default .bench_build/ledger). The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured by an untraced run. With --trace 1 they are the per-layer metrics,
derived here from the span dump the traced run writes (README.md lists
each derivation). Exit status is 0 only when the run finished and every
correctness check passed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-s8", "http-zipf", "mutate")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"ledger: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "ledger")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", out, "--target", "gbkmv_ledger",
                      "-j", jobs])
        for step in steps:
            proc = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                log("build failed: " + " ".join(step))
                if len(steps) == 2 and step is steps[0]:
                    # A failed configure must not leave a cache that skips
                    # the configure step next time.
                    shutil.rmtree(out, ignore_errors=True)
                return None
    binary = os.path.join(out, "gbkmv_ledger")
    return binary if os.path.exists(binary) else None


def source_id():
    """Git commit when available, else a hash of the sources."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "ledger", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


# --- per-layer metrics from the span dump ----------------------------------

def read_dump(path):
    spans, counters = {}, {}
    with open(path) as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if parts[0] == "span":
                layer = parts[1]
                start, end, _parent, _req, items, cpu = map(int, parts[2:8])
                spans.setdefault(layer, []).append((end - start, items, cpu))
            elif parts[0] == "counter":
                counters[parts[1]] = float(parts[2])
    return spans, counters


def percentile(values, q):
    """Nearest rank, the same rule the binary uses."""
    if not values:
        return 0.0
    values = sorted(values)
    return float(values[min(len(values) - 1, int(q * len(values)))])


def per_layer(spans, counters):
    """Every per-layer metric of BENCHMARK.json. A layer the workload does
    not exercise reads 0 (README.md, "Per-layer metrics")."""
    def durs(layer):
        return [d for d, _, _ in spans.get(layer, [])]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    c = counters.get
    probes = len(spans.get("probe", []))
    shards = c("shards", 0.0)
    sketch_ns = mean(durs("sketch"))
    searchq_ns = ratio(sum(durs("index.searchq")), probes)
    batch = spans.get("serve.batchserve", [])
    batch_s1 = spans.get("serve.batchserve_s1", [])
    batch_items = sum(i for _, i, _ in batch)
    batch_ns = ratio(sum(d for d, _, _ in batch), batch_items)
    batch_cpu = ratio(sum(u for _, _, u in batch), batch_items)
    s1_cpu = ratio(sum(u for _, _, u in batch_s1),
                   sum(i for _, i, _ in batch_s1))
    generated = c("index.candidates_generated", 0.0)
    waits = durs("server.batcher.queue_wait")
    batches = c("server.batcher.batches", 0.0)
    http = durs("loadgen.request")
    direct = durs("batcher.direct")
    untraced = c("overhead.untraced_ns_per_op", 0.0)
    m = {
        "sketch.ns_per_query": (sketch_ns, "ns"),
        "sketch.share_of_searchq": (ratio(sketch_ns * shards, searchq_ns),
                                    "ratio"),
        "index.searchq_ns_per_query": (searchq_ns, "ns"),
        "index.postings_per_query": (
            ratio(c("index.postings_scanned", 0.0), probes), "count"),
        "index.candidates_per_query": (ratio(generated, probes), "count"),
        "index.refine_yield": (
            ratio(c("index.candidates_refined", 0.0), generated), "ratio"),
        "serve.batchserve_ns_per_query": (batch_ns, "ns"),
        "serve.cpu_ns_per_query": (batch_cpu, "ns"),
        "serve.fanout_tax_ns_per_query": (
            batch_ns - searchq_ns if batch else 0.0, "ns"),
        "serve.merge_ns_per_query": (mean(durs("serve.merge")), "ns"),
        "serve.s8_over_s1_cpu": (ratio(batch_cpu, s1_cpu), "ratio"),
        "serve.cache_hit_rate": (
            ratio(c("serve.cache_hits", 0.0), c("serve.cache_lookups", 0.0)),
            "ratio"),
        "serve.cache_evictions": (c("serve.cache_evictions", 0.0), "count"),
        "serve.ingest_ns": (percentile(durs("serve.ingest"), 0.5), "ns"),
        "serve.delete_ns": (percentile(durs("serve.delete"), 0.5), "ns"),
        "serve.promotions": (c("serve.promotions", 0.0), "count"),
        "serve.compactions": (c("serve.compactions", 0.0), "count"),
        "serve.compaction_ms": (c("serve.compaction_ms", 0.0), "ms"),
        "serve.ingest_rows_share": (c("serve.ingest_rows_share", 0.0),
                                    "ratio"),
        "server.batcher.queue_wait_us_p50": (percentile(waits, 0.5) / 1e3,
                                             "us"),
        "server.batcher.queue_wait_us_p99": (percentile(waits, 0.99) / 1e3,
                                             "us"),
        "server.batcher.batch_size_mean": (
            ratio(c("server.batcher.submitted", 0.0), batches), "count"),
        "server.batcher.deadline_flush_frac": (
            ratio(c("server.batcher.deadline_flushes", 0.0), batches),
            "ratio"),
        "server.http_tax_us_p50": (
            (percentile(http, 0.5) - percentile(direct, 0.5)) / 1e3
            if http and direct else 0.0, "us"),
        "server.wire.parse_ns": (mean(durs("server.wire.parse")), "ns"),
        "server.wire.serialize_ns": (mean(durs("server.wire.serialize")),
                                     "ns"),
        "server.shed_frac": (
            ratio(c("server.shed", 0.0), c("server.requests", 0.0)), "ratio"),
        "io.load_ms": (percentile(durs("io.load"), 0.5) / 1e6, "ms"),
        "io.snapshot_bytes": (c("io.snapshot_bytes", 0.0), "bytes"),
        "loadgen.lateness_p99_us": (
            percentile(durs("loadgen.lateness"), 0.99) / 1e3, "us"),
        "trace.overhead_frac": (
            ratio(c("overhead.traced_ns_per_op", 0.0), untraced) - 1.0
            if untraced else 0.0, "ratio"),
    }
    # Spans hold raw times. Express the compute-bound ones at reference
    # speed like the end-to-end metrics (README.md, "Reference speed");
    # waits and wake-up delays stay raw, like the HTTP latencies.
    factor = c("speed_factor", 1.0)
    waits_raw = {"server.batcher.queue_wait_us_p50",
                 "server.batcher.queue_wait_us_p99",
                 "server.http_tax_us_p50", "loadgen.lateness_p99_us"}
    return {k: {"value": v * factor
                if u in ("ns", "us", "ms") and k not in waits_raw else v,
                "unit": u}
            for k, (v, u) in m.items()}


# --- main --------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")

    binary = build()
    if binary is None:
        return 1

    work = os.path.join(build_dir(), "work", str(os.getpid()))
    dump = os.path.join(build_dir(), "spans",
                        f"{args.workload}-seed{args.seed}.tsv")
    os.makedirs(os.path.dirname(dump), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--commit", source_id()]
    if args.trace:
        cmd += ["--dump", dump]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        summary = json.loads(lines[-1])
    except (ValueError, IndexError):
        summary = None
    if proc.returncode not in (0, 3) or not isinstance(summary, dict):
        # To stderr: a crash after the binary printed its line must not
        # leave that line looking like a result.
        sys.stderr.write(proc.stdout)
        log(f"{args.workload} crashed or printed no result "
            f"(exit {proc.returncode}); counted as a failed run")
        return 1
    for line in lines[:-1]:
        print(line)
    print("calibration: " + json.dumps(summary["calibration"]))

    if args.trace:
        spans, counters = read_dump(dump)
        metrics = per_layer(spans, counters)
        for name, mu in metrics.items():
            print(f"  {name:36s} {mu['value']:16.4f} {mu['unit']}")
        print(f"  [span dump] {os.path.relpath(dump, ROOT)}")
    else:
        metrics = summary["metrics"]

    print(json.dumps({"correct": bool(summary["correct"]),
                      "attempted": int(summary["attempted"]),
                      "failed": int(summary["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if summary["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
