#!/usr/bin/env python3
"""Self-test of the benchmark's answer checkers (no server needed).

    python3 e2ebench/selftest.py

For every workload it builds a schedule, writes the log a correct server
would produce, and requires the checker to accept it.  Then it plants one
wrong answer at a time and requires the checker to flag each:

  nudge    an exact rational moved by one unit in its numerator's last place;
  drop     one response missing from the log;
  stale    the first read after a write answered with its pre-write value
           (update-mixed);
  window   every sampled estimate moved 2 eps off its closed form, more
           misses than delta allows (approx-sampler);
  double   every disc or ellipse of area under 0.2 estimated at twice its
           area, a plausible sampler fault (approx-sampler);
  engine   an exact answer where a sampled one is due (approx-sampler).

A sampled estimate nudged by one unit still lies within eps, which is all
Theorem 4 promises, so the sampler checker is not given the nudge.
Exits 1 if any planted answer goes unflagged.
"""

import os
import sys
from fractions import Fraction

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 3


def correct_log(sched, base):
    """The log a correct server produces for ROUNDS timed rounds."""
    reqs = sched.round_requests()
    out, version, t = [], base, 0
    for _ in range(ROUNDS):
        for r in reqs:
            if r.kind == "read":
                ans = "E:" + r.expect
            elif r.kind == "write":
                version += 1
                ans = "V:%d" % version
            else:
                ans = "A:%s" % Fraction(r.expect).limit_denominator(1000)
            out.append((t, t + 1000, ans))
            t += 2000
    return out


def nudge(ans):
    kind, _, val = ans.partition(":")
    num, _, den = val.partition("/")
    return "%s:%d%s" % (kind, int(num) + 1, "/" + den if den else "")


def mutations(sched, log):
    reqs = sched.round_requests()
    first_read = next(i for i, r in enumerate(reqs) if r.kind in ("read", "approx"))
    out = {"drop": log[:first_read] + log[first_read + 1:]}
    if reqs[first_read].kind == "read":
        bad = list(log)
        s, r, ans = bad[first_read]
        bad[first_read] = (s, r, nudge(ans))
        out["nudge"] = bad
    fresh = [i for i, r in enumerate(reqs) if r.first_after_write]
    if fresh:
        # the same read's latest answer before the write, in the round
        # or (rounds repeat) at the end of the previous one
        i = len(reqs) + fresh[0]
        prev = next(j for j in range(i - 1, -1, -1)
                    if reqs[j % len(reqs)].text == reqs[fresh[0]].text)
        stale = reqs[prev % len(reqs)].expect
        assert stale != reqs[fresh[0]].expect
        bad = list(log)
        s, r, _ = bad[i]
        bad[i] = (s, r, "E:" + stale)
        out["stale"] = bad
    if any(r.kind == "approx" for r in reqs):
        eps2 = Fraction(2 * workloads.EPS).limit_denominator(100)
        out["window"] = [(s, r, "A:%s" % (Fraction(a[2:]) + eps2)) for s, r, a in log]
        bad = list(log)
        s, r, ans = bad[first_read]
        bad[first_read] = (s, r, "E" + ans[1:])
        out["engine"] = bad
        small = [r.kind == "approx" and "budget" not in r.text and r.expect < 0.2
                 for r in reqs]
        out["double"] = [(s, r, "A:%s" % (2 * Fraction(a[2:])) if small[i % len(reqs)]
                          else a) for i, (s, r, a) in enumerate(log)]
    return out


def main():
    ok = True
    for name in workloads.WORKLOADS:
        sched = workloads.build(name, 1)
        base = sched.writes_in_setup + sum(r.kind == "write"
                                           for r in sched.warmup_requests())
        log = correct_log(sched, base)
        v = check.check(sched, log, base)
        print("%-15s %-7s %s" % (name, "correct", "accepted" if v.correct else
                                 "REJECTED: %s" % v.problems))
        ok &= v.correct
        for what, bad in mutations(sched, log).items():
            v = check.check(sched, bad, base)
            print("%-15s %-7s %s" % (name, what, "flagged: " + v.problems[0]
                                     if not v.correct else "NOT FLAGGED"))
            ok &= not v.correct
    print("selftest " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
