"""Seeded op streams for the geonorm benchmark.

Every workload is an endless, deterministic stream of ops.  Op ``i`` of a
workload draws its inputs from its own ``random.Random`` keyed by
(seed, workload, i), so any slice of the stream can be generated on its
own and no two ops share an input object.  Op kinds (and the dimension or
arena they use) cycle in a fixed order, so every seed runs the same mix
and only the random entries change between seeds.

An op is a closure over its prebuilt inputs: ``Op.run()`` is the timed
part and calls only geonorm's public functions.  ``Op.canon(result)``
renders the exact result as text (rationals as ``num/den``) for the
reference comparison, and ``Op.check(result)`` tests the exact identities
the result must satisfy on any seed.

geonorm is imported by ``bind()``, after ``run.py`` has put the checkout's
``src`` directory on ``sys.path``.  Library functions are looked up as
module attributes at call time, so the traced run's wrappers see every
call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
from fractions import Fraction as F

G = None  # namespace of geonorm modules, filled by bind()

SYM_TS = (F(1, 3), F(1, 2), F(3, 4))
DET_TS = (F(1, 4), F(1, 2), F(2, 3))
GRADED_TS = (F(1, 4), F(1, 2), F(3, 4))
SEGMENT_TS = (F(1, 4), F(1, 2), F(2, 3), F(3, 4))


class _Modules:
    def __init__(self):
        import geonorm
        from geonorm import (cli, config, field, geodesics, graded, linalg,
                             linprog, norms, plconvex, segments, toric)
        self.geonorm = geonorm
        self.cli = cli
        self.config = config
        self.field = field
        self.geodesics = geodesics
        self.graded = graded
        self.linalg = linalg
        self.linprog = linprog
        self.norms = norms
        self.plconvex = plconvex
        self.segments = segments
        self.toric = toric


def bind():
    """Import geonorm; returns the package module."""
    global G
    if G is None:
        G = _Modules()
    return G.geonorm


class Op:
    """One measured operation: prebuilt inputs plus how to run and check it."""

    __slots__ = ("index", "kind", "run", "canon", "check", "cleanup")

    def __init__(self, index, kind, run, canon, check, cleanup=None):
        self.index = index
        self.kind = kind
        self.run = run
        self.canon = canon
        self.check = check
        self.cleanup = cleanup


def _fmt(q):
    return G.field.format_fraction(F(q))


def _fmts(qs):
    return [_fmt(q) for q in qs]


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# random inputs


def _rand_fraction(rng, span=6):
    return F(rng.randint(-span, span), rng.choice((1, 2, 3, 4)))


def _t_powers(rng, dim, bases):
    """Exponents of t for the entries of ``bases`` dim x dim bases over Q(t).

    The verification suites multiply about a quarter of the entries by a
    random t^0..t^2, so a sixth of them carry t or t^2 on average.  Here
    exactly a sixth of them (rounded) do, alternating t and t^2, at random
    places: the cost of a Q(t) op grows steeply with the count, and a
    fixed count keeps one seed's ops from being much heavier than
    another's.
    """
    size = dim * dim
    count = round(size * bases / 6)
    first = rng.randint(1, 2)
    powers = [0] * (size * bases - count) + [1 + (first + j) % 2 for j in range(count)]
    rng.shuffle(powers)
    return [tuple(powers[b * size:(b + 1) * size]) for b in range(bases)]


def _rand_norm(rng, field, dim, integer_weights, powers=None):
    """A DiagNorm on a random invertible small-integer basis.

    Over Q(t), entry k of the basis (row-major) is multiplied by
    t^powers[k].  Construction inverts the basis, which rejects singular
    draws.
    """
    if field is G.field.TADIC and powers is None:
        powers = _t_powers(rng, dim, 1)[0]
    while True:
        rows = []
        for i in range(dim):
            row = []
            for j in range(dim):
                c = field.of(F(rng.randint(-3, 3)))
                if powers is not None and powers[i * dim + j]:
                    c = c * G.field.RatFunc.t_power(powers[i * dim + j])
                row.append(c)
            rows.append(tuple(row))
        if integer_weights:
            weights = tuple(F(rng.randint(-6, 6)) for _ in range(dim))
        else:
            weights = tuple(_rand_fraction(rng) for _ in range(dim))
        try:
            return G.norms.DiagNorm(field, tuple(rows), weights)
        except G.norms.NormError:
            continue


def _lattice_weights(rng, n, d, span=4):
    return {a: _rand_fraction(rng, span) for a in G.graded.lattice_points(n, d)}


# ---------------------------------------------------------------------------
# norm ops (tadic-norms and rational-norms)


def _sorted_ok(lam, dim, integral):
    return (len(lam) == dim and list(lam) == sorted(lam)
            and (not integral or all(x.denominator == 1 for x in lam)))


def _norm_op(index, kind, rng, field, dim, integer_weights):
    N = G.norms
    p0, p1 = _t_powers(rng, dim, 2) if field is G.field.TADIC else (None, None)
    n0 = _rand_norm(rng, field, dim, integer_weights, p0)
    n1 = _rand_norm(rng, field, dim, integer_weights, p1)
    integral = integer_weights

    if kind == "spectrum":
        return Op(index, kind, lambda: N.spectrum(n0, n1), lambda r: _fmts(r),
                  lambda r: _sorted_ok(r, dim, integral))
    if kind in ("distance_1", "distance_inf"):
        p = 1 if kind == "distance_1" else math.inf
        return Op(index, kind, lambda: N.distance(n0, n1, p), _fmt,
                  lambda r: F(r) >= 0)
    if kind == "volume":
        return Op(index, kind, lambda: N.volume(n0, n1), _fmt,
                  lambda r: not integral or F(r).denominator == 1)
    if kind == "join":
        return Op(index, kind, lambda: N.join(n0, n1),
                  lambda r: _dumps(r.to_json()),
                  lambda r: r.dim == dim)
    if kind == "det_geodesic":
        def run():
            geo = G.geodesics.geodesic(n0, n1)
            det_geo = G.geodesics.geodesic(N.det_norm(n0), N.det_norm(n1))
            out = []
            for t in DET_TS:
                img = det_geo.at(t)
                out.append((N.det_norm(geo.at(t)) == img, img.weights))
            return out
        return Op(index, kind, run,
                  lambda r: [[eq, _fmts(w)] for eq, w in r],
                  lambda r: all(eq for eq, _ in r))
    if kind == "sym2_geodesic":
        t = SYM_TS[index % len(SYM_TS)]

        def run():
            geo = G.geodesics.geodesic(n0, n1)
            sym_geo = G.geodesics.geodesic(N.sym_power_norm(geo.start, 2),
                                           N.sym_power_norm(geo.end, 2))
            img = sym_geo.at(t)
            return N.sym_power_norm(geo.at(t), 2) == img, img.weights
        return Op(index, kind, run, lambda r: [r[0], _fmts(r[1])],
                  lambda r: r[0])
    raise ValueError(kind)


# Over Q(t), ops use dimension 3 twice as often as dimension 2, and Sym^2
# ops dimension 2 only.  At the seed commit one dimension-3 Sym^2 op over
# Q(t) takes 1.5 s to 27 s and one dimension-4 det op up to 2 s, so a 20 s
# run would hold a handful of them and its throughput would swing with the
# seed.  A dimension-4 op of the other kinds takes 100-650 ms, five times a
# dimension-3 one; with dimension 4 in the mix, a few dozen of them set
# both the throughput and the 90th percentile of a run, and those swung by
# 15-28% between seeds.  With dimensions 2 and 3 evenly, the median fell
# in the gap between dimension-2 ops (about 5 ms) and the rest (30 ms up).
_NORM_KINDS = ("spectrum", "distance_1", "distance_inf", "volume", "join",
               "det_geodesic", "sym2_geodesic")


def _tadic_op(seed, index):
    rng = random.Random(f"{seed}:tadic-norms:{index}")
    kind = _NORM_KINDS[index % len(_NORM_KINDS)]
    occurrence = index // len(_NORM_KINDS)
    dims = (2,) if kind == "sym2_geodesic" else (2, 3, 3)
    dim = dims[occurrence % len(dims)]
    return _norm_op(index, kind, rng, G.field.TADIC, dim, integer_weights=True)


# rational-norms: two passes over the norm kinds, then one graded op
_RATIONAL_CYCLE = _NORM_KINDS + _NORM_KINDS + ("graded_geodesic", "asymptotic")
_GRADED_ARENAS = ((1, 1, 10), (1, 2, 10), (2, 1, 6))  # (n, m, kmax)


def _graded_op(index, kind, rng, arena):
    Gr = G.graded
    n, m, kmax = arena
    ring = Gr.SectionRing(n, m)
    table0 = _lattice_weights(rng, n, m)
    table1 = _lattice_weights(rng, n, m)
    if kind == "graded_geodesic":
        def run():
            gn0 = Gr.generate_degree_one(ring, table0, kmax)
            gn1 = Gr.generate_degree_one(ring, table1, kmax)
            out = []
            for t in GRADED_TS:
                gt = Gr.graded_geodesic(gn0, gn1, t)
                top = gt.degree_weights(kmax)
                out.append((Gr.check_submultiplicative(gt),
                            [top[a] for a in ring.basis(kmax)]))
            return out

        def canon(r):
            return [[None if v is None else Gr.serialize_counterexample(v),
                     _fmts(top)] for v, top in r]
        return Op(index, kind, run, canon,
                  lambda r: all(v is None for v, _ in r))
    # asymptotic statistics of a pair generated in set-up
    gn0 = Gr.generate_degree_one(ring, table0, kmax)
    gn1 = Gr.generate_degree_one(ring, table1, kmax)

    def run():
        return [Gr.asymptotic_stats(gn0, gn1, p)[0] for p in (1, 2, math.inf)]

    def check(r):
        return all(len(vals) == kmax and all(v >= 0 for _, v in vals)
                   for vals in r)
    return Op(index, kind, run,
              lambda r: [[[k, _fmt(v)] for k, v in vals] for vals in r], check)


def _rational_op(seed, index):
    rng = random.Random(f"{seed}:rational-norms:{index}")
    cycle = len(_RATIONAL_CYCLE)
    kind = _RATIONAL_CYCLE[index % cycle]
    occurrence = index // cycle
    if kind in ("graded_geodesic", "asymptotic"):
        arena = _GRADED_ARENAS[occurrence % len(_GRADED_ARENAS)]
        return _graded_op(index, kind, rng, arena)
    # each norm kind appears twice per cycle; alternate the dimension list.
    # Dimension 4 comes twice in five: with 2, 3, 4, 5 evenly, exactly half
    # of all ops cost under 4 ms and half over 5 ms, and the median fell in
    # that gap, where it moved by 20% between runs of one seed.
    slot = 2 * occurrence + (index % cycle >= len(_NORM_KINDS))
    dims = (2, 3) if kind == "sym2_geodesic" else (2, 3, 4, 4, 5)
    dim = dims[slot % len(dims)]
    return _norm_op(index, kind, rng, G.field.TRIVIAL, dim,
                    integer_weights=False)


# ---------------------------------------------------------------------------
# toric-segments


_TORIC_KINDS = ("maximal_k4", "maximal_k8", "legendre", "energy", "d1",
                "dual_roundtrip", "fs_supnorm")
# One pair in five lives on P^2.  Pairs are level 2, except that Legendre
# ops on P^2 use level-1 pairs: at level 2 one such op takes up to 14 s at
# the seed commit (one LP-backed envelope per critical shift).
_TORIC_ARENAS = ((1, 1), (1, 2), (1, 1), (1, 2), (2, 1))


def _toric_pair(rng, n, m, level):
    T = G.toric
    ring = T.section_ring(n, m)
    w0 = _lattice_weights(rng, n, level * m)
    w1 = _lattice_weights(rng, n, level * m)
    return ring, w0, w1


def _potential_json(phi):
    return _dumps(phi.potential.to_json())


def _convergence_canon(res):
    return [[[k, _fmt(v)] for k, v in res.per_k], _fmt(res.limit)]


def _toric_op(seed, index):
    T, S = G.toric, G.segments
    rng = random.Random(f"{seed}:toric-segments:{index}")
    kind = _TORIC_KINDS[index % len(_TORIC_KINDS)]
    n, m = _TORIC_ARENAS[(index // len(_TORIC_KINDS)) % len(_TORIC_ARENAS)]
    kcap = 8 if n == 1 else 4  # tables and chains stop at k = 4 on P^2
    level = 1 if n == 2 and kind in ("legendre", "dual_roundtrip") else 2
    ring, w0, w1 = _toric_pair(rng, n, m, level)
    t = rng.choice(SEGMENT_TS)

    if kind == "dual_roundtrip":
        seg = S.fs_segment(ring, level, w0, w1)

        def run():
            back = S.segment_from_dual(seg, t)
            return T.compare_metrics(back, seg.eval(t)).relation, back
        return Op(index, kind, run,
                  lambda r: [r[0], _potential_json(r[1])],
                  lambda r: r[0] == "eq")

    phi0 = T.fs_from_norm(ring, level, w0)
    phi1 = T.fs_from_norm(ring, level, w1)
    if kind in ("maximal_k4", "maximal_k8"):
        kmax = min(4 if kind == "maximal_k4" else 8, kcap)
        return Op(index, kind,
                  lambda: S.maximal_segment(phi0, phi1, t, kmax=kmax),
                  _potential_json, lambda r: r.n == n and r.m == m)
    if kind == "legendre":
        return Op(index, kind, lambda: S.legendre_segment(phi0, phi1, t),
                  _potential_json, lambda r: r.n == n and r.m == m)
    if kind in ("energy", "d1"):
        fn = T.energy if kind == "energy" else T.d1_metric

        def check(r):
            return (len(r.per_k) == kcap
                    and (kind == "energy" or r.limit >= 0))
        return Op(index, kind, lambda: fn(phi0, phi1, kmax=kcap),
                  _convergence_canon, check)
    if kind == "fs_supnorm":
        def run():
            top = T.supnorm(level, phi0)
            back = T.fs_from_norm(ring, level, top)
            return T.compare_metrics(back, phi0).relation, top.weights
        return Op(index, kind, run, lambda r: [r[0], _fmts(r[1])],
                  lambda r: r[0] in ("eq", "le"))
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# cli-run: one experiment config through `geonorm run` per op


# (level, kmax, norm dimension) of a config cycle with the op index, so
# that every run holds the same mix of light and heavy configs.
_CLI_SHAPES = tuple((level, kmax, dim) for level in (1, 2) for kmax in (2, 3, 4)
                    for dim in (2, 3))


def _cli_config(rng, index):
    T, Gr = G.toric, G.graded
    TR, TA = G.field.TRIVIAL, G.field.TADIC
    n, m = 1, 1
    ring = T.section_ring(n, m)
    level, kmax, dim = _CLI_SHAPES[index % len(_CLI_SHAPES)]
    phi0 = T.fs_from_norm(ring, level, _lattice_weights(rng, n, level * m))
    phi1 = T.fs_from_norm(ring, level, _lattice_weights(rng, n, level * m))
    gkmax = 4
    graded = {
        name: Gr.generate_degree_one(ring, _lattice_weights(rng, n, m), gkmax).to_json()
        for name in ("g0", "g1")
    }
    # a sampled honest FS segment: weights linear in t, so it is psh
    w0 = [_rand_fraction(rng, 4) for _ in ring.basis(1)]
    w1 = [_rand_fraction(rng, 4) for _ in ring.basis(1)]
    samples = [{"t": _fmt(t), "weights": _fmts((1 - t) * a + t * b
                                               for a, b in zip(w0, w1))}
               for t in (F(0), F(1, 2), F(1))]
    objects = {
        "norms": {
            "a": _rand_norm(rng, TR, dim, False).to_json(),
            "b": _rand_norm(rng, TR, dim, False).to_json(),
            "c": _rand_norm(rng, TA, 2, True).to_json(),
            "d": _rand_norm(rng, TA, 2, True).to_json(),
        },
        "graded": graded,
        "metrics": {"phi0": phi0.to_json(), "phi1": phi1.to_json()},
        "paths": {"p": {"ring": {"n": n, "m": m}, "k": 1, "samples": samples}},
    }
    t = _fmt(rng.choice(SEGMENT_TS))
    pair = ["phi0", "phi1"]
    tasks = [
        {"op": "spectrum", "norms": ["a", "b"]},
        {"op": "distance", "norms": ["a", "b"], "p": 1},
        {"op": "distance", "norms": ["c", "d"], "p": "inf"},
        {"op": "volume", "norms": ["c", "d"]},
        {"op": "join", "norms": ["a", "b"]},
        {"op": "geodesic", "norms": ["a", "b"], "t": t},
        {"op": "asymptotic", "graded": ["g0", "g1"], "p": rng.choice((1, 2, "inf"))},
        {"op": "energy", "metrics": pair, "kmax": kmax},
        {"op": "d1", "metrics": pair, "kmax": kmax},
        {"op": "maximal", "metrics": pair, "t": t, "kmax": kmax},
        {"op": "legendre", "metrics": pair, "t": t},
        {"op": "diagnostics", "metrics": pair, "kmax": 2},
        {"op": "verify", "target": "submultiplicative", "graded": "g0"},
        {"op": "verify", "target": "segment_psh", "path": "p"},
        {"op": "verify", "target": "theoremB", "metrics": pair, "kmax": 2},
    ]
    fmt = rng.choice(("csv", "json"))
    return {"arena": {"n": n, "m": m, "backend": "trivial"},
            "objects": objects, "tasks": tasks,
            "output": {"format": fmt}}


def read_artifacts(out_dir):
    """Artifact name -> text, for every file a `geonorm run` wrote."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
            out[name] = fh.read()
    return out


def _cli_op(seed, index, workdir):
    rng = random.Random(f"{seed}:cli-run:{index}")
    doc = _cli_config(rng, index)
    cfg_path = os.path.join(workdir, f"config_{seed}_{index:05d}.json")
    out_dir = os.path.join(workdir, f"out_{seed}_{index:05d}")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    n_tasks = len(doc["tasks"])

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return G.cli.main(["run", "--config", cfg_path, "--out", out_dir])

    def canon(code):
        return [code, read_artifacts(out_dir)]

    def check(code):
        files = read_artifacts(out_dir)
        if code != 0 or "report.json" not in files:
            return False
        report = json.loads(files["report.json"])
        return (len(report) == n_tasks
                and all(e["status"] == "pass" for e in report)
                and len(files) == n_tasks + 1)

    def cleanup():
        shutil.rmtree(out_dir, ignore_errors=True)
        os.remove(cfg_path)

    return Op(index, "config", run, canon, check, cleanup)


# ---------------------------------------------------------------------------


def make_op(workload, seed, index, workdir=None):
    """Build op ``index`` of a workload's stream for ``seed``."""
    if workload == "tadic-norms":
        return _tadic_op(seed, index)
    if workload == "rational-norms":
        return _rational_op(seed, index)
    if workload == "toric-segments":
        return _toric_op(seed, index)
    if workload == "cli-run":
        return _cli_op(seed, index, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_stream(workload, seed, count, workdir=None):
    """Ops from a stream disjoint from the measured one, for warm-up."""
    return [make_op(workload, f"warm-{seed}", i, workdir) for i in range(count)]
