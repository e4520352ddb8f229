"""Checkers for the end-to-end benchmark's answer logs.

A log holds one entry per timed request, in schedule order: the send and
receive times (ns from the start of the timed phase) and the answer field
the load generator extracted (E:<p/q> exact volume, A:<p/q> sampled
volume, V:<n> database version, X:<code> error).  Expected answers come
from workloads.py's closed forms and occupancy model; nothing here calls
the engine.
"""

import math
from fractions import Fraction

from workloads import DELTA, EPS

# A run whose sampler misses are this unlikely under the Theorem 4
# guarantee (one-sided binomial tail at DELTA) is flagged.
ALPHA = 1e-3


def binomial_tail(n, p, k):
    """P(X >= k) for X ~ Binomial(n, p)."""
    if k <= 0:
        return 1.0
    return sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in range(k, n + 1))


def read_log(path):
    entries = []
    with open(path) as f:
        for ln in f:
            s, r, v = ln.rstrip("\n").split(" ", 2)
            entries.append((int(s), int(r), v))
    return entries


class Verdict:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []  # descriptions of wrong answers (first few kept)
        self.wrong = 0
        self.sampled = 0
        self.misses = 0

    @property
    def correct(self):
        return self.wrong == 0 and not self.problems

    def flag(self, msg):
        self.wrong += 1
        if len(self.problems) < 5:
            self.problems.append(msg)


def check(schedule, entries, version_base):
    """Check every answer of a log against the schedule's expectations.

    version_base is the database version the timed phase starts from, so
    the k-th timed write must answer version_base + k.  Errors count as
    failed operations, not wrong answers.
    """
    reqs = schedule.round_requests()
    v = Verdict()
    v.attempted = len(entries)
    if len(entries) % len(reqs):
        v.problems.append("log holds %d answers, not whole rounds of %d"
                          % (len(entries), len(reqs)))
    version = version_base
    for i, (_, _, ans) in enumerate(entries):
        req = reqs[i % len(reqs)]
        if req.kind == "write":
            version += 1
        if ans.startswith("X:"):
            v.failed += 1
            continue
        if req.kind == "read":
            if ans != "E:" + req.expect:
                v.flag("request %d: got %s, closed form %s" % (i, ans, req.expect))
        elif req.kind == "write":
            if ans != "V:%d" % version:
                v.flag("write %d: got %s, expected version %d" % (i, ans, version))
        elif req.kind == "approx":
            if not ans.startswith("A:"):
                v.flag("request %d: got %s, expected a sampled estimate" % (i, ans))
                continue
            v.sampled += 1
            if abs(float(Fraction(ans[2:])) - req.expect) > EPS:
                v.misses += 1
    if v.sampled and binomial_tail(v.sampled, DELTA, v.misses) < ALPHA:
        v.problems.append("%d of %d estimates miss the closed form by more than "
                          "eps=%g: too many for delta=%g" % (v.misses, v.sampled,
                                                             EPS, DELTA))
    return v


def freshness_ns(schedule, entries):
    """Time from sending each write to receiving the answer of the first
    read issued after it."""
    reqs = schedule.round_requests()
    out, pending = [], None
    for i, (s, r, _) in enumerate(entries):
        req = reqs[i % len(reqs)]
        if req.kind == "write":
            pending = s
        elif req.first_after_write and pending is not None:
            out.append(r - pending)
            pending = None
    return out
