#!/usr/bin/env python3
"""Compare two commits on the benchmark with the small-sandbox rule.

Run pairs of benchmark runs, parent and change alternating which goes
first, and judge every end-to-end metric of every workload:

    python3 perfbench/compare.py run --parent <checkout> --change <checkout> \
        [--workloads a,b] [--seed 1000] [--log pairs.jsonl]
    python3 perfbench/compare.py analyze pairs.jsonl

Both checkouts must carry the same benchmark (a change that claims a
gain does not edit it; `run` refuses to start otherwise). Every run
lasts BENCHMARK.json's run_seconds; each workload gets ten pairs, each
pair on one seed. The verdict per metric, on one row per workload:

- gain: the change wins at least 9 of 10 pairs (ties count for
  neither side), the medians differ by more than the parent's own
  spread (the distance between its quartiles), and the change has no
  more failed operations and no more incorrect runs than the parent;
- regression: the change's median is worse than the parent's by more
  than the metric's bound;
- unresolved: the parent's spread (as a share of its median) exceeds
  the bound, unless every change run beats every parent run;
- same: none of the above (within the bound).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10  # Pairs per workload; a gain needs at least 9 wins of 10.


def load_bench(path):
    with open(os.path.join(path, "BENCHMARK.json")) as f:
        return json.load(f)


def bench_files(checkout):
    """Contents of BENCHMARK.json and every file under its paths."""
    files = {"BENCHMARK.json": open(os.path.join(checkout,
                                                 "BENCHMARK.json"), "rb").read()}
    for top in load_bench(checkout)["paths"]:
        for root, _, names in os.walk(os.path.join(checkout, top)):
            for n in names:
                path = os.path.join(root, n)
                rel = os.path.relpath(path, checkout)
                if "__pycache__" not in rel:
                    files[rel] = open(path, "rb").read()
    return files


def run_one(checkout, workload, seed, seconds):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, timeout=1200)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: run failed in %s" % (workload, checkout))
    return json.loads(lines[-1])


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound, more_failures=False):
    """Judge one metric from paired values (same order, same seeds).

    @p more_failures: the change failed more operations or had more
    incorrect runs than the parent, which voids any gain.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    rel_spread = spread / abs(pm) if pm else float("inf")
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    n = len(parent)
    if (n >= PAIRS and wins >= 0.9 * n and sign * (cm - pm) > spread
            and not more_failures):
        v = "gain"
    elif worse_by > bound:
        v = "regression"
    elif rel_spread > bound and not (
            (min(change) > max(parent)) if sign > 0
            else (max(change) < min(parent))):
        v = "unresolved"
    else:
        v = "same"
    return {"verdict": v, "parent_median": pm, "change_median": cm,
            "parent_q": (q1, q3), "change_q": quartiles(change),
            "wins": wins, "losses": losses, "pairs": n,
            "change_pct": 100.0 * (cm - pm) / pm if pm else float("nan")}


def analyze(rows, bench):
    """Print one row per workload from logged pairs."""
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    by_wl = {}
    for r in rows:
        by_wl.setdefault(r["workload"], []).append(r)
    for wl, pairs in sorted(by_wl.items()):
        failed = {s: sum(int(x[s]["failed"]) for x in pairs)
                  for s in ("parent", "change")}
        incorrect = {s: sum(1 for x in pairs if not x[s]["correct"])
                     for s in ("parent", "change")}
        more_failures = (failed["change"] > failed["parent"] or
                         incorrect["change"] > incorrect["parent"])
        cells = []
        names = sorted(set.intersection(*(
            set(x[s]["metrics"]) for x in pairs
            for s in ("parent", "change"))))
        for name in names:
            if name not in metrics:
                continue
            p = [x["parent"]["metrics"][name]["value"] for x in pairs]
            c = [x["change"]["metrics"][name]["value"] for x in pairs]
            m = metrics[name]
            v = verdict(p, c, m["better"], m["bound"], more_failures)
            cells.append("%s %s %+.1f%% (%d/%d won; parent %.4g [%.4g, %.4g],"
                         " change %.4g)" % (
                             name, v["verdict"], v["change_pct"], v["wins"],
                             v["pairs"], v["parent_median"],
                             v["parent_q"][0], v["parent_q"][1],
                             v["change_median"]))
        print("%s | %s | failed ops %d parent / %d change, incorrect runs "
              "%d / %d" % (wl, "; ".join(cells), failed["parent"],
                           failed["change"], incorrect["parent"],
                           incorrect["change"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workloads", default="")
    r.add_argument("--seed", type=int, default=1000)
    r.add_argument("--log", default="pairs.jsonl")
    a = sub.add_parser("analyze")
    a.add_argument("log")
    a.add_argument("--bench", default=".")
    args = ap.parse_args()

    if args.cmd == "analyze":
        with open(args.log) as f:
            rows = [json.loads(l) for l in f if l.strip()]
        analyze(rows, load_bench(args.bench))
        return 0

    if bench_files(args.parent) != bench_files(args.change):
        print("the two checkouts carry different benchmarks", file=sys.stderr)
        return 2
    bench = load_bench(args.parent)
    seconds = bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    rows = []
    with open(args.log, "w") as log:
        for wl in workloads:
            for i in range(PAIRS):
                seed = args.seed + i
                order = (("parent", args.parent), ("change", args.change))
                if i % 2:
                    order = order[::-1]
                row = {"workload": wl, "seed": seed, "first": order[0][0]}
                for side, checkout in order:
                    row[side] = run_one(checkout, wl, seed, seconds)
                rows.append(row)
                log.write(json.dumps(row) + "\n")
                log.flush()
    analyze(rows, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
