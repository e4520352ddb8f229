#!/usr/bin/env python3
"""End-to-end benchmark of the `cqa serve` query service.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds `cqa` and the load
generator from source (into .bench_build/), generates the workload from
the seed, starts `cqa serve` as its own process, drives it in a closed
loop for S seconds, checks every answer against closed forms and prints
each metric as "name value unit", then one JSON object as the last line.
With --trace 1 it prints the per-layer ledger instead of the end-to-end
metrics.  --workload all runs every workload in turn.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402

BUILD_DIR = ".bench_build"
# Set-ups per untraced run, before the timed phase and again after it:
# each time at least SETUPS and until SETUP_SECONDS have gone by.
# setup_s is the median of all of them.
SETUPS = 2
SETUP_SECONDS = 1.0
# Requests per block of the timed phase over which percentiles are taken:
# enough for a 99th percentile with ten requests beyond it.
BLOCK = 1000

E2E = [
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("fresh_p50_ms", "ms"),
    ("server_cpu_ms_per_req", "ms"),
    ("server_peak_rss_mb", "MB"),
]

LAYER = [
    ("serve.ping_rtt_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.exec_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.coalesced_per_req", "count"),
    ("protocol.parse_us", "us"),
    ("rewrite.us", "us"),
    ("rewrite.fired_per_query", "count"),
    ("plan.compile_us", "us"),
    ("plan.cache_hit_ratio", "ratio"),
    ("exec.state_hit_ratio", "ratio"),
    ("exec.param_fast_ratio", "ratio"),
    ("exec.refresh_us", "us"),
    ("exec.invalidate_cells_per_write", "count"),
    ("exec.reuse_cells_per_write", "count"),
    ("exec.invalidate_full", "count"),
    ("dispatch.fallbacks", "count"),
    ("db.update_us", "us"),
    ("db.pieces_max", "count"),
    ("db.coalesced", "count"),
    ("fm.qe_us", "us"),
    ("fm.projections_per_query", "count"),
    ("fm.atoms_after_per_query", "count"),
    ("fm.filter_sure_ratio", "ratio"),
    ("fm.sat_memo_hit_ratio", "ratio"),
    ("simplex.pivots_per_query", "count"),
    ("simplex.filter_sure_ratio", "ratio"),
    ("simplex.basis_hit_ratio", "ratio"),
    ("volume.exact_us", "us"),
    ("volume.sections_per_query", "count"),
    ("volume.breakpoints_per_query", "count"),
    ("volume.arrangement_vertices_per_query", "count"),
    ("sampler.us", "us"),
    ("sampler.samples_per_req", "count"),
    ("sampler.ns_per_membership", "ns"),
    ("trace.residual_us", "us"),
    ("trace.overhead_us", "us"),
    # whole-run figures of the untraced half of a traced run: on a shared
    # host they measure the host's stalls as much as the program, so they
    # are kept out of the end-to-end metrics and their bounds
    ("run.throughput_rps", "req/s"),
    ("run.lat_p90_ms", "ms"),
    ("run.lat_p99_ms", "ms"),
    ("run.fresh_p90_ms", "ms"),
]


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build cqa and the load generator from this checkout's sources."""
    for need in ("dune-project", "bin/cqa.ml", "lib/serve/client.ml",
                 "e2ebench/loadgen/dune"):
        if not os.path.exists(need):
            fail("not a source checkout: %s is missing (run from the repository "
                 "root)" % need)
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD_DIR, "xdg")))
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", os.path.abspath(os.path.join(BUILD_DIR, "dune")),
           "./bin/cqa.exe", "./e2ebench/loadgen/loadgen.exe"]
    try:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("build failed")
    out = os.path.abspath(os.path.join(BUILD_DIR, "dune", "default"))
    return (os.path.join(out, "bin", "cqa.exe"),
            os.path.join(out, "e2ebench", "loadgen", "loadgen.exe"))


def drive(exes, sched, sched_path, seconds, setups, stats, tag, setup_seconds=0.0):
    cqa, loadgen = exes
    log = os.path.join(BUILD_DIR, "log-%d-%s.txt" % (os.getpid(), tag))
    cmd = [loadgen, "drive", "--cqa", cqa, "--schedule", sched_path,
           "--socket", os.path.join(BUILD_DIR, "s%d.sock" % os.getpid()),
           "--seconds", str(seconds), "--setups", str(setups),
           "--setup-seconds", str(setup_seconds), "--rss-rounds",
           str(sched.rss_rounds), "--log", log]
    if stats:
        cmd.append("--stats")
    # its own process group, which the server it spawns joins, so that a
    # hung run can be stopped whole
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        stdout, stderr = p.communicate(timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("load generator timed out")
    if p.returncode != 0:
        sys.stderr.write(stderr)
        fail("load generator failed")
    out = {}
    for ln in stdout.splitlines():
        k, _, v = ln.partition(" ")
        out[k] = v
    res = {
        "setup_s": [float(x) for x in out["setup_s"].split()],
        "rss_kb": int(out["rss_kb"]),
        "cpu_ns": int(out["server_cpu_ns"]),
        "ping_ns": [int(x) for x in out["ping_ns"].split()],
        "stats_before": json.loads(out["stats_before"]),
        "stats_after": json.loads(out["stats_after"]),
        "entries": check.read_log(log),
    }
    os.unlink(log)
    return res


def pct(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p * len(s)) - 1)]


def blocks(sched, entries):
    """The timed requests cut into blocks of whole rounds, each holding at
    least BLOCK requests (the remainder joins the last block)."""
    n = len(sched.round_requests())
    per = n * math.ceil(BLOCK / n)
    cuts = list(range(0, len(entries) - per + 1, per)) or [0]
    return [entries[c:cuts[i + 1] if i + 1 < len(cuts) else len(entries)]
            for i, c in enumerate(cuts)]


def latencies(sched, entries):
    """Every percentile is taken per block and reported as the median
    block: a stall of the machine during part of a run moves it less than
    it would move the whole run's figure, while a change in the program
    moves every block alike."""
    per_block = []
    for b in blocks(sched, entries):
        lat = [(r - s) / 1e6 for s, r, _ in b]
        # without writes, every answer reflects the state it was asked of
        # when it arrives, so time-to-fresh-answer is the round trip itself
        fresh = [x / 1e6 for x in check.freshness_ns(sched, b)] or lat
        per_block.append({
            "lat_p50_ms": pct(lat, 0.50),
            "lat_p90_ms": pct(lat, 0.90),
            "lat_p99_ms": pct(lat, 0.99),
            "fresh_p50_ms": pct(fresh, 0.50),
            "fresh_p90_ms": pct(fresh, 0.90),
        })
    return {k: statistics.median(b[k] for b in per_block) for k in per_block[0]}


def throughput(sched, entries):
    """Requests of one round / that round's wall time; the median round."""
    n = len(sched.round_requests())
    return statistics.median(n / ((entries[i + n - 1][1] - entries[i][0]) / 1e9)
                             for i in range(0, len(entries), n))


def end_to_end(sched, res):
    entries = res["entries"]
    m = latencies(sched, entries)
    m["setup_s"] = statistics.median(res["setup_s"])
    m["server_cpu_ms_per_req"] = res["cpu_ns"] / 1e6 / len(entries)
    m["server_peak_rss_mb"] = res["rss_kb"] / 1024.0
    return {k: m[k] for k, _ in E2E}


def version_base(sched):
    return sched.writes_in_setup + sum(r.kind == "write" for r in sched.warmup_requests())


def per_layer(sched, traced, plain, replay):
    before, after = traced["stats_before"]["telemetry"], traced["stats_after"]["telemetry"]

    def c(name):
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    def tm(name):
        a = after["timers"].get(name, {"count": 0, "total_ns": 0})
        b = before["timers"].get(name, {"count": 0, "total_ns": 0})
        return a["count"] - b["count"], a["total_ns"] - b["total_ns"]

    def ratio(hit, miss):
        return hit / (hit + miss) if hit + miss else 0.0

    reqs = sched.round_requests()
    entries = traced["entries"]
    kinds = [reqs[i % len(reqs)].kind for i in range(len(entries))]
    n_vol = max(1, sum(k in ("read", "approx") for k in kinds))
    n_write = sum(k == "write" for k in kinds)
    # writes never pass through the batch queue, so the serve ledger
    # speaks of volume requests only
    vol_us = statistics.fmean((r - s) / 1e3 for (s, r, _), k in zip(entries, kinds)
                              if k in ("read", "approx"))
    mean_us = statistics.fmean((r - s) / 1e3 for s, r, _ in entries)
    plain_us = statistics.fmean((r - s) / 1e3 for s, r, _ in plain["entries"])
    jobs, queue_ns = tm("serve.queue_ns")
    _, exec_ns = tm("serve.exec_ns")
    compiles, compile_ns = tm("plan.compile")
    m = {
        "serve.ping_rtt_us": statistics.median(traced["ping_ns"]) / 1e3,
        # a flush is timed whole; its time is shared out over its requests.
        # A request also waits for the requests ahead of it in its flush,
        # which lands in serve.residual_us
        "serve.queue_us": queue_ns / jobs / 1e3 if jobs else 0.0,
        "serve.exec_us": exec_ns / jobs / 1e3 if jobs else 0.0,
        "serve.coalesced_per_req": c("serve.coalesced") / n_vol,
        "plan.compile_us": compile_ns / compiles / 1e3 if compiles else 0.0,
        "plan.cache_hit_ratio": ratio(c("plan.cache.hit"), c("plan.cache.miss")),
        "exec.state_hit_ratio": ratio(c("plan.state.hit"), c("plan.state.miss")),
        "exec.param_fast_ratio": ratio(c("plan.param.fast"), c("plan.param.slow")),
        "exec.invalidate_cells_per_write":
            c("exec.invalidate.cells") / n_write if n_write else 0.0,
        "exec.reuse_cells_per_write":
            c("exec.reuse.cells") / n_write if n_write else 0.0,
        "exec.invalidate_full": c("exec.invalidate.full"),
        "dispatch.fallbacks": c("serve.fallback"),
        "db.coalesced": c("db.update.coalesced"),
        "fm.projections_per_query": c("fm.qe.projections") / n_vol,
        "fm.atoms_after_per_query": c("fm.qe.atoms_after") / n_vol,
        "fm.filter_sure_ratio": ratio(c("fm.filter.sure"), c("fm.filter.fallback")),
        "fm.sat_memo_hit_ratio": ratio(c("fm.sat_memo.hit"), c("fm.sat_memo.miss")),
        "simplex.pivots_per_query": c("simplex.pivots") / n_vol,
        "simplex.filter_sure_ratio":
            ratio(c("simplex.filter.sure"), c("simplex.filter.fallback")),
        "simplex.basis_hit_ratio": ratio(c("simplex.basis.hit"), c("simplex.basis.miss")),
        "volume.sections_per_query": c("volume.sweep.sections") / n_vol,
        "volume.breakpoints_per_query": c("volume.sweep.breakpoints") / n_vol,
        "volume.arrangement_vertices_per_query":
            c("volume.arrangement.vertices") / n_vol,
    }
    m.update(replay)
    m["serve.residual_us"] = vol_us - m["serve.queue_us"] - m["serve.exec_us"]
    # What the wire floor, parsing, queueing, execution and compilation
    # leave unexplained of the mean volume round trip.
    m["trace.residual_us"] = vol_us - (
        m["serve.ping_rtt_us"] + m["protocol.parse_us"] + m["serve.queue_us"]
        + m["serve.exec_us"] + compile_ns / n_vol / 1e3)
    m["trace.overhead_us"] = mean_us - plain_us
    tails = latencies(sched, plain["entries"])
    for k in ("lat_p90_ms", "lat_p99_ms", "fresh_p90_ms"):
        m["run." + k] = tails[k]
    m["run.throughput_rps"] = throughput(sched, plain["entries"])
    return m


def run_replay(exes, name, sched_path):
    p = subprocess.run([exes[1], "replay", "--workload", name, "--schedule",
                        sched_path], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=170)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("layer replay failed")
    return {k: float(v) for k, v in (ln.split() for ln in p.stdout.splitlines())}


def run_workload(exes, name, seed, seconds, trace):
    sched = workloads.build(name, seed)
    sched_path = os.path.join(BUILD_DIR, "sched-%d-%s.txt" % (os.getpid(), name))
    sched.write(sched_path)
    base = version_base(sched)
    try:
        if not trace:
            res = drive(exes, sched, sched_path, seconds, SETUPS, False, "plain", SETUP_SECONDS)
            verdict = check.check(sched, res["entries"], base)
            metrics, units = end_to_end(sched, res), dict(E2E)
        else:
            plain = drive(exes, sched, sched_path, seconds / 2, 1, False, "plain")
            traced = drive(exes, sched, sched_path, seconds / 2, 1, True, "traced")
            verdict = check.check(sched, traced["entries"], base)
            untraced = check.check(sched, plain["entries"], base)
            verdict.attempted += untraced.attempted
            verdict.failed += untraced.failed
            verdict.wrong += untraced.wrong
            verdict.problems += untraced.problems
            metrics = per_layer(sched, traced, plain,
                                run_replay(exes, name, sched_path))
            units = dict(LAYER)
    finally:
        os.unlink(sched_path)
    print("== %s (seed %d, %s)" % (name, seed, "traced" if trace else "untraced"))
    print("attempted %d failed %d correct %s" % (verdict.attempted, verdict.failed,
                                                 verdict.correct))
    for p in verdict.problems:
        print("WRONG: " + p)
    for k in units:
        print("%-40s %14.6f %s" % (k, metrics[k], units[k]))
    return verdict, {k: {"value": metrics[k], "unit": units[k]} for k in units}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    exes = build()
    names = workloads.WORKLOADS if a.workload == "all" else [a.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        v, m = run_workload(exes, name, a.seed, a.seconds, a.trace)
        correct &= v.correct
        attempted += v.attempted
        failed += v.failed
        if a.workload == "all":
            m = {"%s/%s" % (name, k): x for k, x in m.items()}
        metrics.update(m)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
