#!/usr/bin/env python3
"""End-to-end benchmark for the FIX index: build, run one workload, report.

    python3 perfbench/run.py --workload dblp-read --seed 1 --seconds 10 --trace 0

builds the program optimised in its own build tree (.bench_build/ in the
checkout), runs the workload once and prints the driver's lines; the last
line is one JSON object with correct, attempted, failed and the metrics.
--trace 1 replays the workload with spans and prints the per-layer
metrics, the self-time table and the tracing overhead against the last
untraced run of the same workload in this checkout.

    python3 perfbench/run.py --steadiness --workload dblp-read --runs 10

runs one workload repeatedly, one seed per run, and prints each metric's
median, quartiles and spread (quartile distance / median).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("dblp-read", "dblp-write")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no FIX sources next to perfbench/ (expected src/)")
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.call(
        ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs],
        stdout=sys.stderr)
    return rc == 0 and os.path.isfile(DRIVER)


def run_once(workload, seed, seconds, trace):
    """Runs the driver; returns (exit code, stdout lines)."""
    work = os.path.join(OUT, "perfbench-work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", work]
    if trace:
        spans = os.path.join(OUT, "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--span-file",
                os.path.join(spans, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        rc, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        rc = 124
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rc, out.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def traced_end_to_end(lines):
    for line in lines:
        if line.startswith("traced end-to-end: "):
            return json.loads(line[len("traced end-to-end: "):])
    return None


def print_overhead(workload, lines):
    ref_path = os.path.join(OUT, "perfbench-last", workload + ".json")
    traced = traced_end_to_end(lines)
    if traced is None or not os.path.isfile(ref_path):
        print("tracing overhead: no untraced run of %s in this checkout yet"
              % workload)
        return
    with open(ref_path) as f:
        ref = json.load(f)["metrics"]
    for name in ("read_p50_ms", "read_qps", "insert_p50_ms", "insert_per_s"):
        if name in traced and name in ref and ref[name]["value"]:
            t, u = traced[name]["value"], ref[name]["value"]
            print("tracing overhead %-14s traced=%-12.6g untraced=%-12.6g "
                  "(%+.1f%%)" % (name, t, u, 100.0 * (t - u) / u))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for w in workloads:
        per_metric = {}
        shares = set()
        for i in range(args.runs):
            seed = args.seed + i
            rc, lines = run_once(w, seed, args.seconds, False)
            res = result_of(lines)
            if rc != 0 or res is None or not res["correct"]:
                log("\n".join(lines[-5:]))
                log("perfbench: %s seed %d failed (exit %d)" % (w, seed, rc))
                return 1
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            log("%s seed %d: %s" % (w, seed, json.dumps(res["metrics"])))
        print("steadiness %s: %d runs, seeds %d..%d, failed shares %s"
              % (w, args.runs, args.seed, args.seed + args.runs - 1, shares))
        print("  %-28s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3",
                                             "spread"))
        for name, vals in per_metric.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            print("  %-28s %14.6g %14.6g %14.6g %7.2f%%"
                  % (name, q1, med, q3, 100 * spread))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true",
                   help="run the workload --runs times, seeds --seed, "
                        "--seed+1, ...; print medians and quartiles")
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    if args.workload not in WORKLOADS and not (
            args.steadiness and args.workload == "all"):
        log("perfbench: unknown workload %s (one of %s)"
            % (args.workload, ", ".join(WORKLOADS)))
        return 2
    if not build():
        log("perfbench: build failed")
        return 2
    if args.steadiness:
        return steadiness(args)

    rc, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    res = result_of(lines)
    if res is None:
        print("\n".join(lines))
        log("perfbench: the driver printed no result (exit %d)" % rc)
        return rc or 1
    print("\n".join(lines[:-1]))
    if args.trace:
        print_overhead(args.workload, lines)
    elif rc == 0:
        last = os.path.join(OUT, "perfbench-last")
        os.makedirs(last, exist_ok=True)
        with open(os.path.join(last, args.workload + ".json"), "w") as f:
            json.dump(res, f)
    print(lines[-1], flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
