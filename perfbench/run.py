#!/usr/bin/env python3
"""Run one workload of the rememberr benchmark and print its metrics.

    python3 perfbench/run.py --workload build|serve_hot|serve_scan \
        --seed N --seconds S --trace 0|1

Run from the repository root. The script builds perfbench/ (which
compiles every source under src/) with CMake into
.bench_build/perfbench, then runs the harness in up to three kinds of
child process:

  prepare  builds the seed's database, self-tests the generators and
           writes the reference hashes (and, for serve_*, the snapshot
           the daemon opens), so the measured process never builds it;
  cold     build only: a fresh process's first build + check, one
           set-up sample each;
  run      the measured process.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones. A full record of
the run (host, build, hashes, every figure) is written under
.bench_build/results/. The exit code is non-zero on any failed
operation or correctness mismatch.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Layers the build workload never reaches: it serves no query, so
# these per-layer metrics read 0 there.
SERVE_LAYERS = ("snap.", "serve.", "query.", "cache.", "json.")
# How each workload's measured process gets its input.
INPUT_METHOD = {
    "build": "the measured process builds from the seed itself",
    "serve_hot": "setup_s and peak_rss_mb exclude building the input: a "
                 "separate prepare process built the database and wrote the "
                 "snapshot the measured process opens",
}
INPUT_METHOD["serve_scan"] = INPUT_METHOD["serve_hot"]
# Cold build + check processes per build run; with the measured
# process's own first build they give the set-up median.
COLD_PROCESSES = 4


class BenchError(Exception):
    pass


def run_command(command, timeout):
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, timeout=timeout)
    if result.returncode != 0:
        raise BenchError("%s exited with %d" %
                         (os.path.basename(command[0]), result.returncode))
    return result.stdout


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.hh")):
        raise BenchError("no rememberr sources under %s/src" % ROOT)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], cwd=ROOT,
                       stdout=sys.stderr, env=env, timeout=300, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], cwd=ROOT,
                   stdout=sys.stderr, env=env, timeout=850, check=True)


def harness(mode, args, work, timeout, *extra):
    command = [HARNESS, mode, "--workload", args.workload,
               "--seed", str(args.seed % (1 << 64)), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--dir", work] + list(extra)
    lines = run_command(command, timeout).strip().splitlines()
    if not lines:
        raise BenchError("harness %s printed nothing" % mode)
    return json.loads(lines[-1])


def host_record(prep):
    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    return {
        "cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "build_type": prep["info"].get("build_type"),
        "compiler": prep["info"].get("compiler"),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
    }


def measure(args, spec):
    build()
    work = os.path.join(OUT, "run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    budget = args.seconds + 60

    prep = harness("prepare", args, work, 60)
    children = [prep]
    info = prep["info"]
    if info.get("build_type") != "Release":
        raise BenchError("harness built as %r, not Release" %
                         info.get("build_type"))
    if args.workload == "build":
        expect = ["--expect-db", info["db_hash"],
                  "--expect-diag", info["diag_hash"]]
    else:
        expect = ["--expect-db", info["ground_truth_hash"]]

    colds = []
    if args.workload == "build" and not args.trace:
        colds = [harness("cold", args, work, 60, *expect)
                 for _ in range(COLD_PROCESSES)]
        children += colds
    run = harness("run", args, work, budget, *expect)
    children.append(run)

    metrics = {}
    for child in (prep, run):
        for name, metric in child["metrics"].items():
            metrics[name] = metric
    if args.workload == "build" and not args.trace:
        samples = [c["metrics"]["cold_s"]["value"] for c in colds]
        samples.append(run["info"]["cold_s"])
        metrics["setup_s"] = {"value": statistics.median(samples),
                              "unit": "s"}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for entry in wanted:
        name = entry["name"]
        if not NAME.match(name):
            raise BenchError("bad metric name %r" % name)
        if name not in metrics:
            if args.workload == "build" and name.startswith(SERVE_LAYERS):
                metrics[name] = {"value": 0, "unit": entry["unit"]}
            else:
                raise BenchError("%s did not measure %s" %
                                 (args.workload, name))
        if metrics[name]["unit"] != entry["unit"]:
            raise BenchError("%s measured in %s, declared %s" %
                             (name, metrics[name]["unit"], entry["unit"]))
        out[name] = {"value": metrics[name]["value"],
                     "unit": entry["unit"]}

    method = INPUT_METHOD[args.workload]
    # Each serve workload exists to stress the cache one way.
    warnings = []
    hit = metrics.get("cache.hit_ratio", {}).get("value")
    if args.trace and args.workload == "serve_hot" and hit < 0.99:
        warnings.append("serve_hot cache hit ratio %.4f < 0.99" % hit)
    if args.trace and args.workload == "serve_scan" and hit > 0.10:
        warnings.append("serve_scan cache hit ratio %.4f > 0.10" % hit)
    for warning in warnings:
        print("perfbench: warning: " + warning, file=sys.stderr)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": out}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_record(prep),
        "hashes": {k: v for k, v in info.items() if k.endswith("_hash")},
        "input": method,
        "warnings": warnings,
        "result": result,
        "all_metrics": metrics,
        "info": {"prepare": prep["info"], "run": run["info"]},
    }
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-seed%d-trace%d.json" %
                        (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print("perfbench: %s seed %d: %s; hashes %s; host %s; record %s" % (
        args.workload, args.seed, method, json.dumps(record["hashes"]),
        json.dumps(record["host"]), os.path.relpath(path, ROOT)))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError("unknown workload %r" % args.workload)
        if args.seed < 0 or args.seconds <= 0:
            raise BenchError("--seed must be >= 0 and --seconds > 0")
        result = measure(args, spec)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
