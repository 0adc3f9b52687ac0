"""Pinned outputs of the convex-hull kernel on P^1, P^2 and P^3.

Each digest is the sha256 of ``json.dumps(..., sort_keys=True)`` of one
kind of output over the same functions: seeded max-affine functions on
n = 1 and n = 2 (gradients on small grids, offsets random or tied to one
affine function so that many lifted points share a facet), the
potentials of seeded level-1 to level-3 Fubini-Study metrics, and
degenerate inputs:

- one gradient (a point domain);
- gradients on a line along either axis, and on slanted lines (segment
  domains);
- lifted points inside a facet and on its edges.

The pinned kinds are the public views of ``conjugate`` (so the order of
``vertices``, ``cells`` and ``planes``), the domain rows (N, R, e) of
each profile and of the degenerate profiles that the integer clipper
``oracles.min_profile`` builds on a segment or a point, the pieces of
``prune``, and the witnesses of ``le_witness``, ``compare`` and
``mix_witness`` on pairs of functions.

On P^3 the views of ``conjugate`` and the domain rows are pinned over
seeded functions, FS potentials and flat gradients (on a plane, on a line
and at one point of R^3), so that the gift-wrap above the plane, its
upper facets in R^4 and its every-facet rows in R^3, is pinned too.

On the same functions, the domain rows that a conjugate keeps from its
domain wrap must be ``_hull_rows`` of its domain points, and the calls
to the echelon ``_independent`` are counted by shape: a change that
brings an echelon back into the full-rank P^1 or P^2 path fails by
count.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

from oracles import min_profile, mix_witness_minkowski
from geonorm import plconvex
from geonorm.graded import lattice_points
from geonorm.plconvex import (
    MaxAffine,
    compare,
    conjugate,
    le_witness,
    mix_witness,
    prune,
)
from geonorm.toric import fs_from_norm, section_ring

F = Fraction


def _seeded(n, i):
    """A seeded function on R^n: random gradients, ties to one plane."""
    rng = random.Random(f"hull-pins:{n}:{i}")
    grid = [F(k, 2) for k in range(-3, 4)]
    grads = {tuple(rng.choice(grid) for _ in range(n))
             for _ in range(rng.randint(2, 9))}
    w = [rng.choice(grid) for _ in range(n)]
    b = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    pieces = []
    for g in sorted(grads):
        if rng.random() < 0.5:
            c = sum(x * y for x, y in zip(w, g)) + b - rng.choice((0, 0, 1))
        else:
            c = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        pieces.append((g, c))
    return MaxAffine(n, pieces)


def _potentials():
    """Potentials of seeded FS metrics on O(m) over P^1 and P^2."""
    out = []
    for n in (1, 2):
        for m in (1, 2):
            for level in (1, 2, 3):
                rng = random.Random(f"hull-pins:fs:{n}:{m}:{level}")
                ring = section_ring(n, m)
                weights = {a: F(rng.randint(-8, 8), rng.choice((1, 2, 3)))
                           for a in lattice_points(n, level * m)}
                out.append(fs_from_norm(ring, level, weights).potential)
    return out


def _lattice(level):
    return [(F(i, level), F(j, level))
            for i in range(level + 1) for j in range(level + 1 - i)]


def _degenerate():
    """Functions whose conjugate has a point or segment domain, or lifted
    points inside a facet and on its edges."""
    rng = random.Random("hull-pins:degenerate")

    def offsets(grads):
        return [(g, F(rng.randint(-6, 6), rng.choice((1, 2, 3))))
                for g in grads]

    lines = [
        [(0, 0), (1, 0), (F(1, 2), 0), (2, 0)],              # along axis 0
        [(0, 1), (0, 0), (0, -1), (0, F(5, 2))],             # along axis 1
        [(0, 0), (F(1, 2), F(1, 4)), (1, F(1, 2)), (2, 1)],  # slope 1/2
        [(1, -1), (0, 0), (-1, 1), (2, -2)],                 # slope -1
        [(F(1, 3), 2), (1, 0), (F(2, 3), 1)],                # slope -3
    ]
    out = [MaxAffine(1, [((F(1, 2),), 3)]),
           MaxAffine(2, [((1, F(1, 3)), -2)]),
           MaxAffine(1, [((0,), 0), ((1,), 0), ((2,), 0)])]
    for _ in range(2):
        for grads in lines:
            out.append(MaxAffine(2, offsets(grads)))
            # every lifted point on one plane: a single segment
            out.append(MaxAffine(2, [(g, 2 * g[0] - g[1] + 1) for g in grads]))
    for level in (2, 3, 4):
        # the lattice on one plane: one cell with points on its edges and,
        # from level 3, inside it
        out.append(MaxAffine(2, [(g, g[0] - 2 * g[1] + 1)
                                 for g in _lattice(level)]))
        # the same cell cut in two along a ridge through lattice points
        out.append(MaxAffine(2, [(g, min(g[0], g[1]))
                                 for g in _lattice(level)]))
    out.append(MaxAffine(2, [((0, 0), 0), ((1, 0), 1), ((2, 0), 2),
                             ((0, 2), 2), ((2, 2), 0), ((1, 1), 2)]))
    out.append(MaxAffine(2, [((0, 0), 0), ((1, 0), 0), ((0, 1), 0),
                             ((1, 1), 0)]))
    return out


FUNCTIONS = ([_seeded(n, i) for n in (1, 2) for i in range(12)]
             + _potentials() + _degenerate())


def _p3():
    """Functions on R^3: seeded ones, FS potentials of levels 1 to 3, the
    level-2 and level-3 lattices on one plane and cut along a ridge, and
    gradients on a plane, on a line and at one point of R^3."""
    out = [_seeded(3, i) for i in range(12)]
    ring = section_ring(3, 1)
    for level in (1, 2, 3):
        rng = random.Random(f"hull-pins:fs:3:1:{level}")
        weights = {a: F(rng.randint(-8, 8), rng.choice((1, 2, 3)))
                   for a in lattice_points(3, level)}
        out.append(fs_from_norm(ring, level, weights).potential)
    for level in (2, 3):
        grads = [tuple(F(x, level) for x in a)
                 for a in lattice_points(3, level)]
        out.append(MaxAffine(3, [(g, g[0] - 2 * g[1] + g[2] + 1)
                                 for g in grads]))
        out.append(MaxAffine(3, [(g, min(g[0], g[1] + g[2]))
                                 for g in grads]))
    rng = random.Random("hull-pins:flat:3")
    grid = [F(k, 2) for k in range(-2, 3)]
    for _ in range(3):
        uv = {(rng.choice(grid), rng.choice(grid)) for _ in range(7)}
        plane = [(u, v, 2 * u - v + 1) for u, v in sorted(uv)]
        out.append(MaxAffine(3, [(g, F(rng.randint(-6, 6), rng.choice((1, 2))))
                                 for g in plane]))
        out.append(MaxAffine(3, [(g, g[0] + g[2]) for g in plane]))
    out.append(MaxAffine(3, [((s, 2 * s, -s), F(rng.randint(-6, 6), 3))
                             for s in (F(-1), F(0), F(1, 2), F(2))]))
    out.append(MaxAffine(3, [((1, F(1, 3), -2), 5)]))
    return out


FUNCTIONS_P3 = _p3()

# (planes, domain) of min_profile on a segment or a point of the plane
FLAT_DOMAINS = [
    ([((1, 0), 0), ((0, 1), 0), ((0, 0), F(1, 3))],
     [(1, 0), (F(1, 2), F(1, 2)), (0, 1)]),
    ([((1, 0), 0), ((0, 1), 1)], [(1, 0)]),
    ([((F(1, 2), -1), 1), ((0, 2), 0)], [(0, 2), (0, -1)]),
    ([((1, 1), 0), ((-1, 0), 2), ((0, 0), 1)], [(-1, F(1, 2)), (3, F(1, 2))]),
]

PINNED = {
    "conjugate": (
        "820d5500788f3de00436bf860d65f1cdce977f7bfe66d541da9ee125f08d7877"),
    "domain_rows": (
        "2dd19fae2891fd86fe11e6af431f06eac7bc257dddf3c31b79e4d9f4369bf7d9"),
    "prune": (
        "0bca82223658c0012664e2e81158d680f44a586eb97290ceff4e680c40fec12b"),
    "witnesses": (
        "62ec1c6ba172573340e802a226c77c7c5866a9e8302d9073c57da1b853a9ab2c"),
    "conjugate_p3": (
        "f0c9632745cf1b116a7a01104f7e40c3509f2c2d9767954ee4ec9b7ba386977a"),
    "domain_rows_p3": (
        "477ddb3dfefe8864497877f3e2d25ea500d6583026a2d112f9b3985c95418a9c"),
}


def _strs(xs):
    return [str(x) for x in xs]


def _views(q):
    return [[[_strs(p), str(v)] for p, v in q.vertices],
            [[[_strs(p) for p in c.vertices], _strs(c.grad), str(c.offset)]
             for c in q.cells],
            [[_strs(w), str(b)] for w, b in q.planes]]


def _rows(q):
    return [[_strs(N), str(R), e] for N, R, e in plconvex._domain_hrep(q)]


def _point(p):
    return None if p is None else _strs(p)


def _pairs():
    """(f, g) for every ordered pair of pinned functions on one n, thinned
    to every third pair to keep the run short."""
    pairs = [(f, g) for f in FUNCTIONS for g in FUNCTIONS if f.n == g.n]
    return pairs[::3]


def _outputs(kind):
    out = []
    if kind == "conjugate":
        out = [_views(conjugate(f)) for f in FUNCTIONS]
    elif kind == "domain_rows":
        out = [_rows(conjugate(f)) for f in FUNCTIONS]
        out += [_rows(min_profile(planes, domain, [], 2))
                for planes, domain in FLAT_DOMAINS]
    elif kind == "prune":
        out = [prune(f).to_json() for f in FUNCTIONS]
    elif kind == "conjugate_p3":
        out = [_views(conjugate(f)) for f in FUNCTIONS_P3]
    elif kind == "domain_rows_p3":
        out = [_rows(conjugate(f)) for f in FUNCTIONS_P3]
    elif kind == "witnesses":
        for i, (f, g) in enumerate(_pairs()):
            c = compare(f, g)
            out.append([_point(le_witness(f, g)), c.relation,
                        _point(c.witness_first_gt),
                        _point(c.witness_second_gt)])
            if i % 4 == 0:
                h = FUNCTIONS[i % len(FUNCTIONS)]
                if h.n == f.n:
                    out.append(_point(mix_witness(f, g, h, F(1, 3))))
    return out


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_pinned_cases_reach_the_degenerate_shapes() -> None:
    # point and segment domains on P^1 and P^2, and lifted points that are
    # on a facet without being its vertices
    shapes = set()
    for f in FUNCTIONS:
        q = conjugate(f)
        verts = {p for p, _ in q.vertices}
        on_facets = sum(1 for g, c in f.pieces
                        if g not in verts and q.value(g) == c)
        shapes.add((f.n, len(q.cells) > 0, len(q.vertices) == 1,
                    on_facets > 0))
    assert {(1, False, True, False), (2, False, True, False),
            (2, False, False, False), (2, False, False, True),
            (2, True, False, True), (1, True, False, True)} <= shapes


def test_p3_pins_reach_every_wrap_shape() -> None:
    # domains of every affine rank 0 to 3, with and without lifted points
    # that lie on a facet without being its vertices
    shapes = set()
    for f in FUNCTIONS_P3:
        q = conjugate(f)
        verts = {p for p, _ in q.vertices}
        on_facets = sum(1 for g, c in f.pieces
                        if g not in verts and q.value(g) == c)
        pts = [r[:-1] for r in q._verts]
        rank = len(plconvex._independent(pts, range(len(pts)), 3)[1])
        assert (len(q.cells) > 0) == (rank == 3)
        shapes.add((rank, on_facets > 0))
    assert {(3, True), (3, False), (2, True), (2, False), (1, True),
            (1, False), (0, False)} <= shapes


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_hull_outputs_pinned(kind) -> None:
    assert _digest(_outputs(kind)) == PINNED[kind]


def test_minkowski_slopes_give_the_former_witness_pins(monkeypatch) -> None:
    # with the mix witness read off the Minkowski slopes, as before it was
    # le_witness against the pruned mix, the witnesses hash to their former
    # pin; the two routes differ on 2 of the 155 mix witnesses, both on P^2
    now = _outputs("witnesses")
    monkeypatch.setattr(sys.modules[__name__], "mix_witness",
                        mix_witness_minkowski)
    before = _outputs("witnesses")
    assert _digest(before) == (
        "0273b24e1fac6e8e3d713209744d8ac18b1964287bbea751f9c08a6c403c565c")
    moved = [(a, b) for a, b in zip(before, now) if a != b]
    assert len(moved) == 2
    assert all(len(a) == len(b) == 2 for a, b in moved)


def test_kept_domain_rows_are_the_rows_of_the_domain_points() -> None:
    # a conjugate that wrapped a full-rank domain keeps its rows, scaled to
    # the profile's denominator, and one on the line the rows of its
    # chain's ends; every other profile computes them on use
    kept = 0
    for f in FUNCTIONS + FUNCTIONS_P3:
        q = conjugate(f)
        if q._hrep is None:
            assert f.n > 1 and not q._cells
            continue
        kept += 1
        assert q._hrep == plconvex._hull_rows([r[:-1] for r in q._verts])
    assert kept == 61


def test_echelon_runs_only_where_the_rank_or_key_needs_it(monkeypatch) -> None:
    # the rank comes from the domain wrap and the facet order from the
    # indices on each facet, on every n: no full-rank conjugate runs an
    # echelon; flat gradients still take their pivots (and their flat
    # domain rows its frames)
    calls = []
    real = plconvex._independent

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(plconvex, "_independent", counted)
    counts = {}
    for f in FUNCTIONS + FUNCTIONS_P3:
        before = len(calls)
        shape = (f.n, bool(conjugate(f)._cells))
        counts[shape] = counts.get(shape, 0) + len(calls) - before
    assert counts == {(1, True): 0, (1, False): 0, (2, True): 0,
                      (2, False): 102, (3, True): 0, (3, False): 61}
