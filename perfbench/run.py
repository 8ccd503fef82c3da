#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the driver from the
checkout's sources into .bench_build/ (CMake, Release), runs it, reduces
its raw per-episode samples to medians and prints, as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics;
with --trace 1 its per-layer metrics. Every workload reports every one
of them; a run that lacks one is not correct. Every run also leaves a
record in .bench_runs/: commit, nproc, kernel variant, compiler, build
type, seed, each metric's raw samples with median and quartiles (the
workload's own extra metrics too, which are not in the contract line),
notes and the output checks. A traced run also writes its spans there
as a Chrome trace-event file.
"""
import argparse
import datetime
import json
import math
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
RUNS_DIR = ".bench_runs"
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

WORKLOADS = ("paper_cnn_sync", "serve_lstm_openloop", "train_cnn_loopback",
             "train_mobilenet_pipe")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; False on failure."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def commit_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return os.environ.get("PERFBENCH_COMMIT", "unknown")


def summarize(values, worst=math.inf):
    """Median and quartiles of one metric's raw samples.

    The driver writes a sample that is not a finite number (a missed
    query's latency) as null. Such a sample stays in the set as the
    metric's worst value, so misses make the median worse instead of
    dropping out; a median that is not finite leaves the metric
    unreported.
    """
    if not values:
        return None
    vals = sorted(worst if v is None else v for v in values)
    med = statistics.median(vals)
    if len(vals) > 1:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    # Interpolating between two infinite samples gives nan.
    q1, q3 = [worst if q != q else q for q in (q1, q3)]
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def declared(kind):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench[kind]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        log("run from the root of a checkout")
        return 2
    if not build():
        return 1

    os.makedirs(RUNS_DIR, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S.%f")
    base = os.path.join(RUNS_DIR, "%s-%s-s%d-t%d" % (
        stamp, args.workload, args.seed, args.trace))
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    if args.trace:
        cmd += ["--trace-out", base + ".trace.json"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log("driver failed with code %d" % proc.returncode)
        return 1
    raw = json.loads(lines[-1])

    kind = "per_layer" if args.trace else "end_to_end"
    wanted = declared(kind)
    checks = list(raw["checks"])
    metrics, record = {}, {}
    for name, m in sorted(raw["metrics"].items()):
        better = wanted.get(name, {}).get("better", "lower")
        s = summarize(m["values"],
                      math.inf if better == "lower" else -math.inf)
        record[name] = {"unit": m["unit"], "values": m["values"],
                        "summary": s}
        if name not in wanted:
            continue
        ok = s is not None and math.isfinite(s["median"])
        if ok and m["unit"] != wanted[name]["unit"]:
            checks.append({"name": "unit." + name, "ok": False,
                           "detail": "driver unit " + m["unit"]})
        if ok:
            metrics[name] = {"value": s["median"], "unit": m["unit"]}
    for name in wanted:
        if name not in metrics:
            checks.append({"name": "reported." + name, "ok": False,
                           "detail": "missing or not finite"})
    correct = bool(raw["correct"]) and all(c["ok"] for c in checks)

    with open(base + ".json", "w") as f:
        json.dump({"commit": commit_sha(), "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "nproc": raw["nproc"],
                   "kernel_arch": raw["kernel_arch"],
                   "compiler": raw["compiler"],
                   "build_type": raw["build_type"], "correct": correct,
                   "attempted": raw["attempted"], "failed": raw["failed"],
                   "checks": checks, "notes": raw["notes"],
                   "metrics": record}, f, indent=1)
    for c in checks:
        if not c["ok"]:
            log("check failed: %s: %s" % (c["name"], c["detail"]))
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
