"""Seeded workload generators for the end-to-end benchmark.

Every workload is a fixed schedule built from the seed alone: a set-up
section, a warm-up and one *round* of steps that the load generator
repeats until the run's time is up.  A step is a list of
requests sent together; the next step starts only when every reply of the
step has arrived (a closed loop).  Only serve-warm puts more than one
request of a step on a connection.

Request lines may carry placeholders the load generator fills in:

  $P<k>  the plan id the server returned for set-up registration k;
  $N     the 1-based index of the request in the server's life, so a
         template yields a new text on every request;
  $K     an integer that is new in every round (100 in the warm-up,
         1000 + r in timed round r).

Every request comes with its expected answer, computed here with
``fractions.Fraction`` from closed forms (or, for ``update-mixed``, from
an occupancy model of the database), never by the engine.
"""

import json
import math
import random
import re
from fractions import Fraction as F

WORKLOADS = ("serve-warm", "adhoc-cold", "update-mixed", "approx-sampler")

# The sampler's accuracy contract for approx-sampler (Theorem 4): each
# estimate lies within EPS of the true volume with probability 1 - DELTA.
# The true volumes lie between 0.11 and 0.79, so EPS must stay well below
# them for a wrong estimate to miss the window; the sample count grows as
# 1/EPS but hardly with DELTA, so DELTA is small and the binomial test on
# the misses strict.
EPS = 0.1
DELTA = 0.01


def q(x):
    """A Fraction in the server's "p/q" wire spelling."""
    return str(F(x))


def line(obj):
    return json.dumps(obj, separators=(",", ":"))


class Request:
    """One request of a step.

    kind: "read" (an exact volume), "approx" (a degraded volume),
    "write" (insert/remove), "plan" (set-up registration).
    expect: the expected exact answer ("p/q"), the true volume as a
    float for "approx", or None.
    """

    __slots__ = ("conn", "text", "kind", "expect", "tag", "first_after_write")

    def __init__(self, conn, text, kind, expect=None, tag=None):
        self.conn = conn
        self.text = text
        self.kind = kind
        self.expect = expect
        self.tag = tag
        self.first_after_write = False


class Schedule:
    def __init__(self, name, conns, rss_rounds):
        self.name = name
        self.conns = conns
        self.setup = []  # steps run once per server, before warm-up
        self.warmup = None  # steps run once after set-up; None = one round
        self.round = []  # steps repeated in the timed phase
        self.writes_in_setup = 0
        # server_peak_rss_mb is read after this many timed rounds (or at
        # the end of a run that does fewer): 6-9 s of work on a quiet
        # host, so that a host half as fast still gets there in 20 s
        self.rss_rounds = rss_rounds

    def warmup_steps(self):
        return self.round if self.warmup is None else self.warmup

    def warmup_requests(self):
        return [r for step in self.warmup_steps() for r in step]

    def round_requests(self):
        return [r for step in self.round for r in step]

    def write(self, path):
        with open(path, "w") as f:
            f.write("conns %d\n" % self.conns)
            for section, steps in (("setup", self.setup),
                                   ("warmup", self.warmup_steps()),
                                   ("round", self.round)):
                f.write(section + "\n")
                for step in steps:
                    f.write("step\n")
                    for r in step:
                        f.write("%d %s %s\n" % (r.conn, r.tag or "-", r.text))
            f.write("end\n")


def mark_fresh_reads(schedule):
    """Flag, in every round, the first read issued after each write."""
    pending = False
    for step in schedule.round:
        if pending and any(r.kind == "read" for r in step):
            for r in step:
                if r.kind == "read":
                    r.first_after_write = True
                    break
            pending = False
        if any(r.kind == "write" for r in step):
            pending = True


# ---------------------------------------------------------------------------
# serve-warm: about a dozen one-parameter Lemma 5 shapes with closed forms
# ---------------------------------------------------------------------------


def _tri_sweep(u):
    if u <= 0:
        return F(1, 2)
    if u >= 1:
        return F(0)
    return (1 - u * u) / 2


def _square_cut(u):
    if u <= 0:
        return F(0)
    if u <= 1:
        return u * u / 2
    if u <= 2:
        return 1 - (2 - u) * (2 - u) / 2
    return F(1)


def _trapezoid(u):
    if u <= -1:
        return F(0)
    if u <= 0:
        return (1 + u) * (1 + u) / 2
    return F(1, 2) + u


def _notch(u):
    if u <= 0:
        return F(4)
    if u >= 2:
        return F(0)
    return 4 - u * u


def _window(u):
    return max(F(0), min(u + 1, F(2)) - max(u, F(0)))


def _pos(u):
    return max(F(0), u)


# (name, binders, atoms, extra conjunct, closed form, breakpoints)
# An atom is (lhs, op, rhs); the parameter is u.
WARM_SHAPES = [
    ("tri_sweep", [], [("u", "<", "y1"), ("y1", "<", "1"), ("0", "<=", "y2"),
                       ("y2", "<=", "y1")], None, _tri_sweep, [0, 1]),
    ("strip", [], [("0", "<", "y1"), ("y1", "<", "u"), ("0", "<=", "y2"),
                   ("y2", "<=", "y1")], None, lambda u: _pos(u) ** 2 / 2, [0]),
    ("corner_tri", [], [("0", "<=", "y1"), ("0", "<=", "y2"),
                        ("y1 + y2", "<=", "u")], None,
     lambda u: _pos(u) ** 2 / 2, [0]),
    ("simplex3", [], [("0", "<=", "y1"), ("0", "<=", "y2"), ("0", "<=", "y3"),
                      ("y1 + y2 + y3", "<=", "u")], None,
     lambda u: _pos(u) ** 3 / 6, [0]),
    ("square_cut", [], [("0", "<=", "y1"), ("y1", "<=", "1"), ("0", "<=", "y2"),
                        ("y2", "<=", "1"), ("y1 + y2", "<=", "u")], None,
     _square_cut, [0, 1, 2]),
    ("proj_wedge", ["w"], [("0", "<=", "w"), ("w", "<=", "y1"), ("y2", "<=", "w"),
                           ("0", "<=", "y2"), ("y1", "<=", "u")], None,
     lambda u: _pos(u) ** 2 / 2, [0]),
    ("trapezoid", [], [("0", "<=", "y1"), ("y1", "<=", "1"), ("0", "<=", "y2"),
                       ("y2", "<=", "y1 + u")], None, _trapezoid, [-1, 0]),
    ("order3", [], [("0", "<=", "y1"), ("y1", "<=", "y2"), ("y2", "<=", "y3"),
                    ("y3", "<=", "u")], None, lambda u: _pos(u) ** 3 / 6, [0]),
    ("diamond", [], [("y1 + y2", "<=", "u"), ("y1 - y2", "<=", "u"),
                     ("y2 - y1", "<=", "u"), ("-y1 - y2", "<=", "u")], None,
     lambda u: 2 * _pos(u) ** 2, [0]),
    ("notch", [], [("0", "<=", "y1"), ("y1", "<=", "2"), ("0", "<=", "y2"),
                   ("y2", "<=", "2")], "not (y1 <= u /\\ y2 <= u)", _notch, [0, 2]),
    ("window", [], [("u", "<=", "y1"), ("y1", "<=", "u + 1"), ("0", "<=", "y1"),
                    ("y1", "<=", "2"), ("0", "<=", "y2"), ("y2", "<=", "1")], None,
     _window, [-1, 0, 1, 2]),
    ("proj_chain", ["w1", "w2"], [("0", "<=", "y1"), ("y1", "<=", "w1"),
                                  ("w1", "<=", "w2"), ("w2", "<=", "y2"),
                                  ("y2", "<=", "u")], None,
     lambda u: _pos(u) ** 2 / 2, [0]),
]


def _render(binders, atoms, extra, rename=None):
    parts = ["%s %s %s" % atom for atom in atoms]
    if extra:
        parts.append(extra)
    body = " /\\ ".join(parts)
    if binders:
        body = "exists %s . (%s)" % (" ".join(binders), body)
    for old, new in (rename or {}).items():
        body = re.sub(r"\b%s\b" % old, new, body)
    return body


def _fresh_template(rng, shape):
    """A spelling of the shape that is new on every request: conjuncts in
    a fixed random order, one atom scaled by the positive request index,
    binders renamed after it."""
    _, binders, atoms, extra, _, _ = shape
    atoms = list(atoms)
    rng.shuffle(atoms)
    i = rng.randrange(len(atoms))
    l, op, r = atoms[i]
    atoms[i] = ("$N*(%s)" % l, op, "$N*(%s)" % r)
    rename = {b: "%s_$N" % b for b in binders}
    return _render(binders, atoms, extra, rename)


def _interior(rng, bps, piece):
    """A rational strictly inside piece [piece] of the shape's closed form
    (piece 0 lies left of the first breakpoint)."""
    edges = [F(bps[0] - 1)] + [F(b) for b in bps] + [F(bps[-1] + 1)]
    lo, hi = edges[piece], edges[piece + 1]
    den = rng.choice([3, 5, 7, 8, 11, 16, 25, 49])
    num = rng.randrange(1, den)
    return lo + (hi - lo) * F(num, den)


# Per shape and round: how many requests go by plan id, by the repeated
# spelling and by a fresh spelling; how many bind a breakpoint; how many
# pairs of connections ask the same question in one step.
WARM_PER_SHAPE = {"id": 24, "repeat": 10, "fresh": 6, "breakpoint": 2, "dup_pairs": 2}
# Requests each connection has in flight at once: the "many users" are
# multiplexed over two connections, WARM_DEPTH users on each.  With one
# request in flight, a ~30 us warm answer costs less than the two wake-ups
# of a round trip, and on a shared host those wake-ups, not the server,
# set the figures.
WARM_DEPTH = 8


def serve_warm(seed):
    """Every seed gets the same make-up (WARM_PER_SHAPE for each shape,
    interior bindings cycling through the pieces); the seed draws the
    bindings, the fresh spellings and the order."""
    rng = random.Random("serve-warm/%d" % seed)
    s = Schedule("serve-warm", conns=2, rss_rounds=150)
    for k, shape in enumerate(WARM_SHAPES):
        text = _render(shape[1], shape[2], shape[3])
        s.setup.append([Request(0, line({"op": "plan", "query": text,
                                          "params": ["u"]}), "plan", tag="P%d" % k)])
    mix = WARM_PER_SHAPE
    singles, pairs = [], []
    for k, (name, binders, atoms, extra, form, bps) in enumerate(WARM_SHAPES):
        fresh = [_fresh_template(rng, WARM_SHAPES[k]) for _ in range(3)]
        spellings = (["id"] * mix["id"] + ["repeat"] * mix["repeat"]
                     + ["fresh"] * mix["fresh"])
        rng.shuffle(spellings)
        n_bind = len(spellings) - 2 * mix["dup_pairs"]
        binds = [F(bps[i % len(bps)]) for i in range(mix["breakpoint"])]
        binds += [_interior(rng, bps, i % (len(bps) + 1))
                  for i in range(n_bind - mix["breakpoint"])]
        binds += [_interior(rng, bps, i % (len(bps) + 1)) for i in range(mix["dup_pairs"])]

        def request(spelling, u):
            if spelling == "id":
                text = line({"op": "vol", "plan": 0, "args": [q(u)]}).replace(
                    '"plan":0', '"plan":$P%d' % k)
            else:
                query = (_render(binders, atoms, extra) if spelling == "repeat"
                         else rng.choice(fresh))
                text = line({"op": "vol", "query": query, "params": ["u"],
                             "args": [q(u)]})
            return Request(0, text, "read", q(form(u)))

        for spelling, u in zip(spellings, binds[:n_bind]):
            singles.append(request(spelling, u))
        for spelling, u in zip(spellings[n_bind::2], binds[n_bind:]):
            pairs.append(request(spelling, u))
    rng.shuffle(singles)
    for i in range(0, len(singles) - 1, 2):
        a, b = singles[i], singles[i + 1]
        b.conn = 1
        s.round.append([a, b])
    for a in pairs:
        s.round.append([a, Request(1, a.text, "read", a.expect)])
    rng.shuffle(s.round)
    # WARM_DEPTH of these pairs go out together as one step, so the server
    # wakes once per WARM_DEPTH requests of a connection, not once per
    # request; in-step duplicates stay together
    s.round = [sum(s.round[i:i + WARM_DEPTH], [])
               for i in range(0, len(s.round), WARM_DEPTH)]
    return s


# ---------------------------------------------------------------------------
# adhoc-cold: never-seen query texts with known exact volumes
# ---------------------------------------------------------------------------


def det(m):
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[F(x) for x in row] for row in m]
    n = len(a)
    d = F(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return F(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for j in range(c, n):
                a[r][j] -= f * a[c][j]
    return d


def inverse(m):
    n = len(m)
    a = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _shear(rng, n):
    """A small integer matrix with nonzero determinant: a diagonal of 1s
    and 2s, one or two unit shears, and a row permutation."""
    while True:
        m = [[(rng.choice([1, 1, 2]) if i == j else 0) for j in range(n)]
             for i in range(n)]
        for _ in range({2: rng.randrange(1, 3), 3: 1, 4: 1}.get(n, 0)):
            i, j = rng.sample(range(n), 2)
            m[i][j] = rng.choice([-1, 1])
        rng.shuffle(m)
        if det(m) != 0:
            return m


def _base(kind, n, rng):
    """(atoms, vertices, volume) of a base polytope in y-space; an atom is
    (c, d) meaning c . y <= d."""
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    if kind == "box":
        sides = [rng.choice([1, 1, 2]) for _ in range(n)]
        atoms = []
        for i in range(n):
            atoms.append(([-x for x in unit[i]], 0))
            atoms.append((unit[i], sides[i]))
        verts = [[sides[i] * ((b >> i) & 1) for i in range(n)] for b in range(2 ** n)]
        vol = F(math.prod(sides))
    elif kind == "simplex":  # 0 <= y1 <= ... <= yn <= 1
        atoms = [([-x for x in unit[0]], 0), (unit[n - 1], 1)]
        for i in range(n - 1):
            atoms.append(([a - b for a, b in zip(unit[i], unit[i + 1])], 0))
        verts = [[0] * (n - k) + [1] * k for k in range(n + 1)]
        vol = F(1, math.factorial(n))
    else:  # cross-polytope sum |y_i| <= 1
        atoms = [([1 if (b >> i) & 1 else -1 for i in range(n)], 1)
                 for b in range(2 ** n)]
        verts = [[s * x for x in unit[i]] for i in range(n) for s in (1, -1)]
        vol = F(2 ** n, math.factorial(n))
    return atoms, verts, vol


def _lin(coeffs, names, shift):
    """Render sum c_i*(name_i - $K - shift_i) with integer c_i."""
    out = []
    for c, v, t in zip(coeffs, names, shift):
        if c == 0:
            continue
        var = "(%s - $K)" % v if t == 0 else "(%s - $K - %d)" % (v, t)
        term = var if abs(c) == 1 else "%d*%s" % (abs(c), var)
        if not out:
            out.append(term if c > 0 else "-" + term)
        else:
            out.append(("+ " if c > 0 else "- ") + term)
    return " ".join(out) if out else "0"


def _decorate(rng, atoms_txt, redundant, negated):
    """Spell atoms (lhs, op, rhs) with some negated and some implied
    duplicates, neither of which changes the set."""
    out = []
    for (l, op, r) in atoms_txt:
        if negated and rng.random() < 0.3:
            out.append("not (%s > %s)" % (l, r) if op == "<=" else
                       "not (%s < %s)" % (l, r))
        else:
            out.append("%s %s %s" % (l, op, r))
    if redundant:
        for (l, op, r) in rng.sample(atoms_txt, min(2, len(atoms_txt))):
            out.append("%s %s %s + 1" % (l, op, r) if op == "<=" else
                       "%s %s %s - 1" % (l, op, r))
    rng.shuffle(out)
    return " /\\ ".join(out)


def _affine_piece(rng, kind, n, names, shift, redundant, negated, variant):
    """The preimage {x : M (x - K - shift) in B} = M^-1 B + K + shift, of
    volume vol(B) / |det M|; returns (text, volume, x-extent along axis 0).
    M is one of a few fixed matrices per dimension (by variant): the cost
    of a sweep depends strongly on M, and a fixed menu used in fixed
    shares keeps that cost the same for every seed."""
    atoms, verts, vol = _base(kind, n, rng)
    m = _shear(random.Random("%d/%d" % (n, variant)), n)
    minv = inverse(m)
    # c . M z <= d for z = x - K - shift
    txt = []
    for c, d in atoms:
        cm = [sum(c[i] * m[i][j] for i in range(n)) for j in range(n)]
        txt.append((_lin(cm, names, shift), "<=", str(d)))
    xs = [sum(minv[0][j] * v[j] for j in range(n)) for v in verts]
    return (_decorate(rng, txt, redundant, negated), vol / abs(det(m)),
            (min(xs), max(xs)))


def _chain(rng, n, k, redundant, negated, shifted=True, gap=None):
    """An order chain 0 <= s1 y1 <= ... <= sn yn <= 1 over y = x - K (or
    y = x unshifted) with k existential variables spliced between
    consecutive links (all in gap [gap] when given, else at random);
    projecting them leaves the chain, of volume 1 / (n! prod s_i)."""
    scale = [rng.choice([1, 1, 2]) if shifted else 1 for _ in range(n)]
    names = ["x%d" % (i + 1) for i in range(n)]
    links = [("%s(%s - $K)" if shifted else "%s%s")
             % ("" if s == 1 else "%d*" % s, v) for s, v in zip(scale, names)]
    gaps = [0] * (n + 1)
    for _ in range(k):
        gaps[rng.randrange(n + 1) if gap is None else gap] += 1
    seq, binders, z = ["0"], [], 0
    for i in range(n + 1):
        for _ in range(gaps[i]):
            z += 1
            binders.append("z%d" % z)
            seq.append("z%d" % z)
        seq.append(links[i] if i < n else "1")
    txt = [(a, "<=", b) for a, b in zip(seq, seq[1:])]
    body = _decorate(rng, txt, redundant, negated)
    vol = F(1, math.factorial(n) * math.prod(scale))
    if binders:
        body = "exists %s . (%s)" % (" ".join(binders), body)
    return body, vol


def _adhoc_query(rng, fam, n, redundant, negated, k):
    """(text, volume) of one query of class (fam, n); k picks the matrix
    variant or, for chains, the number of existential variables."""
    names = ["x%d" % (j + 1) for j in range(n)]
    if fam == "chain":
        return _chain(rng, n, k, redundant, negated)
    if fam == "union":
        kinds = [("box", "simplex")[k % 2], ("simplex", "box")[k // 2 % 2]]
        t1, v1, (_, hi1) = _affine_piece(rng, kinds[0], n, names, [0] * n,
                                         redundant, negated, k % 4)
        sub = rng.randrange(1 << 30)
        _, _, (lo2, _) = _affine_piece(random.Random(sub), kinds[1], n, names,
                                       [0] * n, False, False, (k + 1) % 4)
        gap = math.ceil(hi1 - lo2) + 1
        t2, v2, _ = _affine_piece(random.Random(sub), kinds[1], n, names,
                                  [gap] + [0] * (n - 1), False, False, (k + 1) % 4)
        return "(%s) \\/ (%s)" % (t1, t2), v1 + v2
    query, vol, _ = _affine_piece(rng, fam, n, names, [0] * n, redundant,
                                  negated, k % 4)
    return query, vol


# The warm-up: one query of every (family, dimension) class in a fixed
# order, with its own decorations and variants, drawn from a generator of
# its own, so every seed's set-up does the same work.
ADHOC_WARMUP = ([(f, n) for n in (2, 3)
                 for f in ("box", "simplex", "cross", "union", "chain")]
                + [(f, n) for n in (4, 5) for f in ("box", "simplex", "chain")])


def adhoc_cold(seed):
    rng = random.Random("adhoc-cold/%d" % seed)
    s = Schedule("adhoc-cold", conns=1, rss_rounds=8)
    warm_rng = random.Random("adhoc-cold/warm-up")
    s.warmup = []
    for i, (fam, n) in enumerate(ADHOC_WARMUP):
        query, vol = _adhoc_query(warm_rng, fam, n, i % 3 == 1, i % 3 == 2, i % 7)
        s.warmup.append([Request(0, line({"op": "vol", "query": query}), "read",
                                 q(vol))])
    # A fixed make-up of (family, dimension) for every seed; the seed
    # draws the matrices, sides, splits and spellings.  Cross-polytopes
    # (2^n facets) and unions stay at n <= 3 and shears thin out with n:
    # beyond that, one query costs seconds, not milliseconds.
    plan = ([(f, 2) for f in ("box", "simplex", "cross", "union", "chain", "chain")] * 6
            + [(f, 3) for f in ("box", "simplex", "cross", "union", "chain", "chain")] * 5
            + [(f, 4) for f in ("box", "simplex", "chain", "chain")] * 4
            + [(f, 5) for f in ("box", "simplex", "chain", "chain")] * 2) * 4
    # Within each (family, dimension) class the decorations, the chain
    # splits and the matrix variants follow a fixed cycle, so every seed
    # sees the same proportions.
    seen = {}
    for i, (fam, n) in enumerate(plan):
        c = seen[fam, n] = seen.get((fam, n), -1) + 1
        plan[i] = (fam, n, c % 3 == 1, c % 3 == 2, c % 7)
    rng.shuffle(plan)
    for fam, n, redundant, negated, k in plan:
        query, vol = _adhoc_query(rng, fam, n, redundant, negated, k)
        s.round.append([Request(0, line({"op": "vol", "query": query}), "read",
                                q(vol))])
    return s


# ---------------------------------------------------------------------------
# update-mixed: writes beside reads on one schema's shared database
# ---------------------------------------------------------------------------

SCHEMA = "R:3"


class Piece:
    """A simplex {x0 >= a, x1 >= b, x2 >= c, sum of offsets <= s} or a
    triangular prism {x0 >= a, x1 >= b, offsets sum <= s} x [c, c + h]; the
    last axis x2 is the one the slab read cuts."""

    def __init__(self, kind, a, b, c, s, h=None):
        self.kind, self.a, self.b, self.c, self.s, self.h = kind, a, b, c, s, h

    def region(self):
        a, b, c, s = map(q, (self.a, self.b, self.c, self.s))
        if self.kind == "simplex":
            top = q(self.a + self.b + self.c + self.s)
            return ("x0 >= %s /\\ x1 >= %s /\\ x2 >= %s /\\ x0 + x1 + x2 <= %s"
                    % (a, b, c, top))
        return ("x0 >= %s /\\ x1 >= %s /\\ x0 + x1 <= %s /\\ x2 >= %s /\\ x2 <= %s"
                % (a, b, q(self.a + self.b + self.s), c, q(self.c + self.h)))

    def below(self, u):
        """Volume of the piece below the plane x2 = u."""
        s = self.s
        if self.kind == "simplex":
            t = min(max(u - self.c, F(0)), s)
            return (s ** 3 - (s - t) ** 3) / 6
        return s * s / 2 * min(max(u - self.c, F(0)), self.h)

    def volume(self):
        return self.below(self.c + self.s + (self.h or 0))


# (kind, size s, height h or None, x1 offset b, base height c) per slot:
# slots 0-2 hold the base pieces, slots 3-6 the inserted ones.  The
# geometry is fixed because how far removals fragment the relation, and so
# what a fresh answer costs, depends on it: this one levels off near 10
# disjuncts, where x1 and x2 offsets drawn at random gave 60 to 320.  The
# seed translates the whole database, which leaves the arrangement, and
# every answer, as it is.
UPDATE_PIECES = [
    ("simplex", F(1), None, F(0), F(0)), ("prism", F(3, 2), F(1), F(0), F(0)),
    ("simplex", F(3, 2), None, F(0), F(0)), ("prism", F(1), F(1, 2), F(0), F(0)),
    ("simplex", F(1), None, F(0), F(0)), ("prism", F(3, 2), F(3, 2), F(0), F(0)),
    ("simplex", F(3, 2), None, F(0), F(0)),
]


def update_mixed(seed):
    rng = random.Random("update-mixed/%d" % seed)
    s = Schedule("update-mixed", conns=2, rss_rounds=25)
    # x2 moves by quarters, so piece ends stay on multiples of 1/4
    t0, t1, t2 = rng.randrange(10), F(rng.randrange(8), 2), F(rng.randrange(8), 4)
    pieces = [Piece(kind, F(3 * slot) + t0, b + t1, c + t2, size, h)
              for slot, (kind, size, h, b, c) in enumerate(UPDATE_PIECES)]
    base, extra = pieces[:3], pieces[3:]
    for p in base:
        s.setup.append([Request(0, line({"op": "insert", "schema": SCHEMA,
                                         "rel": "R", "region": p.region()}),
                                "write")])
    s.writes_in_setup = len(base)
    s.setup.append([Request(0, line({"op": "plan", "query": "R(a, b, c)",
                                     "schema": SCHEMA}), "plan", tag="P0")])
    s.setup.append([Request(0, line({"op": "plan", "query": "R(a, b, c) /\\ c <= u",
                                     "schema": SCHEMA, "params": ["u"]}),
                            "plan", tag="P1")])
    live = list(base)
    # sevenths avoid every breakpoint (piece ends are multiples of 1/4)
    slabs = [F(k, 7) + t2 for k in (2, 4, 6, 8, 10, 12)]
    next_slab = []

    def full(conn):
        return Request(conn, '{"op":"vol","plan":$P0}', "read",
                       q(sum(p.volume() for p in live)))

    def slab(conn):
        if not next_slab:
            next_slab.extend(slabs)
            rng.shuffle(next_slab)
        u = next_slab.pop()
        return Request(conn, '{"op":"vol","plan":$P1,"args":["%s"]}' % q(u),
                       "read", q(sum(p.below(u) for p in live)))

    a, b, c, d = extra
    writes = [("insert", a), ("insert", b), ("remove", a), ("insert", c),
              ("remove", b), ("insert", d), ("remove", c), ("remove", d)]
    for op, p in writes:
        if op == "insert":
            live.append(p)
        else:
            live.remove(p)
        s.round.append([Request(1, line({"op": op, "schema": SCHEMA, "rel": "R",
                                         "region": p.region()}), "write")])
        s.round.append([full(1), slab(0)])
        # then five steps of reads against the warm state, the same mix of
        # full and slab reads after every write
        pattern = [(full, slab), (slab, full), (slab, slab), (full, full), (slab, full)]
        rng.shuffle(pattern)
        for first, second in pattern:
            s.round.append([first(1), second(0)])
    assert len(live) == len(base)
    mark_fresh_reads(s)
    # Removals fragment the relation's DNF for the first rounds before its
    # piece count levels off; two warm-up rounds start the timed phase there.
    s.warmup = s.round * 2
    return s


# ---------------------------------------------------------------------------
# approx-sampler: requests that degrade to the Theorem 4 sampler
# ---------------------------------------------------------------------------


# (free coordinates, quantified variables) of the chains in one round, and
# the number of discs and ellipses beside them: a fixed make-up, so every
# seed's round costs the same.  Chains are few (5 %): their membership tests
# fill the server's memo tables, which makes their cost swing by a factor
# of three to five within a run and from run to run.  At 5 % they set
# the 99th percentile and leave lat_p50_ms to the discs and ellipses.
APPROX_CHAINS = [(2, 2), (3, 2)]
APPROX_CONICS = 38


def approx_sampler(seed):
    rng = random.Random("approx-sampler/%d" % seed)
    s = Schedule("approx-sampler", conns=1, rss_rounds=4)
    opts = {"eps": EPS, "delta": DELTA}
    every = (APPROX_CONICS + len(APPROX_CHAINS)) // len(APPROX_CHAINS)
    for i in range(APPROX_CONICS + len(APPROX_CHAINS)):
        if i % every != every - 1:
            a, b = F(rng.randrange(3, 6), 8), F(rng.randrange(3, 6), 8)
            room = min(a, 1 - a, b, 1 - b)
            if i % 2 == 0:
                r = room * F(rng.randrange(2, 5), 4)
                query = ("(x - %s)*(x - %s) + (y - %s)*(y - %s) <= %s"
                         % (q(a), q(a), q(b), q(b), q(r * r)))
                truth = math.pi * float(r * r)
            else:
                al = room * F(rng.randrange(2, 5), 4)
                be = room * F(rng.randrange(2, 5), 4)
                query = ("%s*(x - %s)*(x - %s) + %s*(y - %s)*(y - %s) <= %s"
                         % (q(be * be), q(a), q(a), q(al * al), q(b), q(b),
                            q(al * al * be * be)))
                truth = math.pi * float(al * be)
            req = {"op": "vol", "query": query, **opts, "seed": 0}
        else:
            n, k = APPROX_CHAINS[i // every]
            # unshifted, the chain lies in [0, 1]^n, where VOL_I and VOL agree
            query, vol = _chain(rng, n, k, False, False, shifted=False, gap=1)
            truth = float(vol)
            req = {"op": "vol", "query": query, "budget": 1, **opts, "seed": 0}
        text = line(req).replace('"seed":0', '"seed":$N')
        s.round.append([Request(0, text, "approx", truth)])
    s.warmup = s.round[:4]
    return s


def build(name, seed):
    return {"serve-warm": serve_warm, "adhoc-cold": adhoc_cold,
            "update-mixed": update_mixed,
            "approx-sampler": approx_sampler}[name](seed)
