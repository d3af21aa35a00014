#!/usr/bin/env python3
"""Guard for BENCH_query_throughput.json (schema v3).

Checks, in order. The schema check always runs; each other check runs only
when its flag is given, so one call gates exactly what it names:
  1. schema: every measurement row carries single_thread / batch / scored /
     topk sections with positive QPS (run with --schema-only for just this
     — what the CI smoke job does, where absolute QPS is meaningless).
  2. top-k serving (with --topk-slack): for the methods given via
     --topk-methods (default GB-KMV,FreqSet) the top-k batch QPS must be >=
     the scored unlimited batch QPS ("scored" row: same request shape,
     top_k=0) times --topk-slack. Both runs compute every hit's score; they
     differ only in result handling (bounded heap vs materialise + id-sort),
     so the true ratio is >= 1. A slack of 0.98 absorbs measurement noise at
     selective thresholds, where result sets are smaller than k and the two
     paths do identical work (ratio == 1). The boolean "batch" row is NOT
     the comparison target: it skips score materialisation entirely, which
     top-k cannot.
  3. observability overhead (with --obs-tolerance; rows that carry an "obs"
     section, produced by query_throughput --obs-ab): the metrics-enabled
     unlimited batch QPS must be >= the metrics-disabled QPS *
     (1 - --obs-tolerance). The repo budget is 2% (docs/observability.md);
     CI runs use a looser tolerance because shared runners are noisy.
     --require-obs makes a report without any "obs" rows a failure (so CI
     can't silently skip the gate).
  4. regression (with --baseline): unlimited batch QPS per
     (method, threshold) must not fall below baseline * (1 - --tolerance).
     Only rows present in both files are compared, so adding methods or
     thresholds never breaks the guard. A baseline whose config.smoke is
     true is refused: smoke-sized QPS says nothing about the full workload.

Usage:
  python3 bench/check_throughput.py BENCH_query_throughput.json \
      [--schema-only] [--baseline bench/baselines/... ] [--tolerance 0.05] \
      [--topk-slack 0.98] [--topk-methods GB-KMV,FreqSet] \
      [--obs-tolerance 0.02] [--require-obs]
"""

import argparse
import json
import sys

SCHEMA = "gbkmv_query_throughput_v3"


class CheckError(Exception):
    """A check failed in a way the caller can act on (clear message, no
    traceback): missing file, malformed JSON, stale schema, failed gate."""


def load(path, role="report"):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise CheckError(
            f"{role} file not found: {path}"
            + ("\n  (refresh it with: bench/query_throughput --out=...)"
               if role == "baseline" else ""))
    except json.JSONDecodeError as e:
        raise CheckError(f"{role} file {path} is not valid JSON: {e}")


def require_schema(report, path, role):
    schema = report.get("schema")
    if schema != SCHEMA:
        raise CheckError(
            f"{role} file {path} has schema {schema!r}, expected "
            f"{SCHEMA!r}; the file predates the current bench format — "
            f"regenerate it with bench/query_throughput")


def require_full_size(baseline, path):
    if baseline.get("config", {}).get("smoke", False):
        raise CheckError(
            f"baseline file {path} is a smoke run (config.smoke is true); "
            f"gate against a full-size bench/query_throughput run")


def rows_by_key(report):
    return {(m["method"], round(m["threshold"], 6)): m
            for m in report["measurements"]}


def check_schema(report):
    assert report["measurements"], "no measurements"
    for m in report["measurements"]:
        key = f"{m.get('method')} t*={m.get('threshold')}"
        for section in ("single_thread", "batch", "scored", "topk"):
            assert section in m, f"{key}: missing '{section}'"
            assert m[section]["qps"] > 0, f"{key}: non-positive {section} qps"
        assert m["topk"]["k"] > 0, f"{key}: topk row without k"
    print(f"schema ok: {len(report['measurements'])} measurements")


def check_topk(report, methods, slack):
    for m in report["measurements"]:
        if m["method"] not in methods:
            continue
        scored = m["scored"]["qps"]
        topk = m["topk"]["qps"]
        key = f"{m['method']} t*={m['threshold']}"
        assert topk >= scored * slack, (
            f"{key}: top-{m['topk']['k']} batch {topk:.1f} qps < "
            f"scored unlimited {scored:.1f} qps * {slack}")
        print(f"topk ok: {key}: top-{m['topk']['k']} {topk:.1f} qps >= "
              f"scored unlimited {scored:.1f} qps")


def check_obs_overhead(report, tolerance, require):
    rows = [m for m in report["measurements"] if "obs" in m]
    if not rows:
        if require:
            raise CheckError(
                "--require-obs: report has no 'obs' rows — regenerate with "
                "bench/query_throughput --obs-ab")
        return
    failures = []
    for m in rows:
        obs = m["obs"]
        off, on = obs["off_qps"], obs["on_qps"]
        key = f"{m['method']} t*={m['threshold']}"
        assert off > 0 and on > 0, f"{key}: non-positive obs qps"
        floor = off * (1.0 - tolerance)
        overhead = 100.0 * (1.0 - on / off)
        status = "obs ok" if on >= floor else "OBS OVERHEAD"
        print(f"{status}: {key}: metrics-on {on:.1f} qps vs off {off:.1f} "
              f"({overhead:+.2f}%, floor {floor:.1f})")
        if on < floor:
            failures.append(key)
    assert not failures, (
        f"metrics overhead beyond {tolerance:.0%} of batch QPS: {failures}")


def check_regression(report, baseline, tolerance):
    base_rows = rows_by_key(baseline)
    compared = 0
    failures = []
    for key, row in rows_by_key(report).items():
        if key not in base_rows:
            continue
        compared += 1
        new_qps = row["batch"]["qps"]
        old_qps = base_rows[key]["batch"]["qps"]
        floor = old_qps * (1.0 - tolerance)
        status = "ok" if new_qps >= floor else "REGRESSION"
        print(f"{status}: {key[0]} t*={key[1]}: batch {new_qps:.1f} qps "
              f"vs baseline {old_qps:.1f} (floor {floor:.1f})")
        if new_qps < floor:
            failures.append(key)
    assert compared > 0, "no comparable rows between report and baseline"
    assert not failures, f"QPS regression beyond tolerance: {failures}"


def main():
    p = argparse.ArgumentParser()
    p.add_argument("report")
    p.add_argument("--baseline")
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--schema-only", action="store_true")
    p.add_argument("--topk-methods", default="GB-KMV,FreqSet")
    p.add_argument("--topk-slack", type=float)
    p.add_argument("--obs-tolerance", type=float)
    p.add_argument("--require-obs", action="store_true")
    args = p.parse_args()
    if args.require_obs and args.obs_tolerance is None:
        p.error("--require-obs needs --obs-tolerance")

    report = load(args.report, role="report")
    require_schema(report, args.report, "report")
    check_schema(report)
    if args.schema_only:
        return
    if args.topk_slack is not None:
        check_topk(report, set(args.topk_methods.split(",")),
                   args.topk_slack)
    if args.obs_tolerance is not None:
        check_obs_overhead(report, args.obs_tolerance, args.require_obs)
    if args.baseline:
        baseline = load(args.baseline, role="baseline")
        require_schema(baseline, args.baseline, "baseline")
        require_full_size(baseline, args.baseline)
        check_regression(report, baseline, args.tolerance)


if __name__ == "__main__":
    try:
        main()
    except (AssertionError, CheckError) as e:
        print(f"FAIL: {e}", file=sys.stderr)
        sys.exit(1)
