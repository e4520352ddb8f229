#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

    python3 e2ebench/steady.py run [--runs 10] [--seed0 1] [--seconds S]
                                   [--workloads a,b] --out SET.json
    python3 e2ebench/steady.py compare A.json B.json

`run` runs each workload --runs times on this checkout, each time with the
next seed and in its own run.py process.  It prints every end-to-end
metric's median and its interquartile spread as a share of the median,
against the metric's bound in BENCHMARK.json, and each run's share of CPU
time taken by the host (steal).  `compare` sets two such sets side by
side: the change of each median in the metric's worse direction against
its bound, and the share of failed operations, which must be equal.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return b, {m["name"]: m for m in b["end_to_end"]}


def steal_ticks():
    """Time the host gave this machine's CPUs to others (Linux, VMs)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if len(fields) > 8 else 0
    except OSError:
        return 0


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def run(a):
    b, metrics = spec()
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in b["workloads"]]
    seconds = a.seconds or b["run_seconds"]
    out = {}
    for w in names:
        rec = {"metrics": {}, "attempted": [], "failed": [], "correct": [], "steal": []}
        for i in range(a.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(a.seed0 + i), "--seconds", str(seconds), "--trace", "0"]
            t0, s0 = time.monotonic(), steal_ticks()
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            # share of the machine's CPU time the host took away during the
            # run: a busy host slows every wall-clock figure with it
            steal = (steal_ticks() - s0) / (os.sysconf("SC_CLK_TCK")
                                            * os.cpu_count() * (time.monotonic() - t0))
            rec["steal"].append(steal)
            if p.returncode != 0:
                sys.exit("run failed: %s" % " ".join(cmd))
            res = json.loads(p.stdout.strip().splitlines()[-1])
            for k, v in res["metrics"].items():
                rec["metrics"].setdefault(k, []).append(v["value"])
            for k in ("attempted", "failed", "correct"):
                rec[k].append(res[k])
            print("%s seed %d: steal %.0f%% %s" % (w, a.seed0 + i, 100 * steal, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())),
                flush=True)
        out[w] = rec
    with open(a.out, "w") as f:
        json.dump(out, f, indent=1)
    report(out, metrics)


def report(data, metrics):
    print("\n%-15s %-20s %12s %8s %8s  %s" % ("workload", "metric", "median", "spread",
                                          "bound", ""))
    for w, rec in data.items():
        for k, vals in rec["metrics"].items():
            med, sp = spread(vals)
            bound = metrics[k]["bound"]
            verdict = ("ok" if sp <= bound / 3 else
                       "within bound" if sp <= bound else "OVER BOUND")
            print("%-15s %-20s %12.5g %7.1f%% %7.0f%%  %s" % (w, k, med, 100 * sp,
                                                          100 * bound, verdict))
        print("%-15s %-20s %12d failed of %d attempted, all correct: %s" % (
            w, "operations", sum(rec["failed"]), sum(rec["attempted"]),
            all(rec["correct"])))
        if rec.get("steal"):
            print("%-15s %-20s %11.1f%% median, %.1f%% at most" % (
                w, "host steal", 100 * statistics.median(rec["steal"]),
                100 * max(rec["steal"])))


def compare(a):
    _, metrics = spec()
    with open(a.first) as f:
        first = json.load(f)
    with open(a.second) as f:
        second = json.load(f)
    bad = 0
    print("%-15s %-20s %12s %12s %8s %8s" % ("workload", "metric", "first", "second",
                                             "worse", "bound"))
    for w in first:
        for k, vals in first[w]["metrics"].items():
            m1 = statistics.median(vals)
            m2 = statistics.median(second[w]["metrics"][k])
            worse = (m2 - m1) / m1 if metrics[k]["better"] == "lower" else (m1 - m2) / m1
            flag = worse > metrics[k]["bound"]
            bad += flag
            print("%-15s %-20s %12.5g %12.5g %7.1f%% %7.0f%% %s" % (
                w, k, m1, m2, 100 * worse, 100 * metrics[k]["bound"],
                "WORSE" if flag else ""))
        shares = [sum(s[w]["failed"]) / sum(s[w]["attempted"]) for s in (first, second)]
        same = shares[0] == shares[1]
        bad += not same
        print("%-15s %-20s %12.6f %12.6f %s" % (w, "failed share", shares[0], shares[1],
                                                "" if same else "DIFFERENT"))
    sys.exit(1 if bad else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=float)
    r.add_argument("--workloads")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    a = ap.parse_args()
    run(a) if a.cmd == "run" else compare(a)


if __name__ == "__main__":
    main()
