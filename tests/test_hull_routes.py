"""The hull kernel against the routes it replaced.

``plconvex._chain`` keeps the points that its monotone chain pops with a
zero turn as the points of each edge, where ``oracles.chain_scanning``
finds them by a pass over every point per edge.  ``plconvex.conjugate``
reads the rank of the gradients off their domain wrap and each facet's
sort key off its first indices, where ``oracles.conjugate_echelon`` runs
an echelon for both.  A profile whose domain was wrapped keeps those
rows, which must be the rows ``_hull_rows`` gives for its domain points.
The upper and lower facets of points of Z^3 come from the upper wrap of
d = 3, ``plconvex._upper_wrap``, where they came from the general
gift-wrap ``plconvex._wrap``, which still serves d >= 4 and every facet.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import oracles
from geonorm import plconvex
from geonorm.plconvex import MaxAffine, conjugate

F = Fraction
_C = st.integers(-6, 6)


@st.composite
def _plane_points(draw):
    """Distinct integer points of the plane, in drawn order: free points,
    with a collinear run of 3 to 6 points (on a hull edge when the other
    points keep to one side of it), a vertical run at the least or largest
    x, every point on one line, or two points."""
    pts = draw(st.lists(st.tuples(_C, _C), max_size=8))
    kind = draw(st.sampled_from(("free", "run", "vertical", "line", "two")))
    if kind == "two":
        pts = draw(st.lists(st.tuples(_C, _C), min_size=2, max_size=2,
                            unique=True))
    elif kind != "free":
        size = draw(st.integers(3, 6))
        if kind == "vertical":
            xs = [x for x, _ in pts] or [0]
            x0 = draw(st.sampled_from((min(xs), max(xs))))
            step = (0, draw(st.integers(1, 2)))
        else:
            x0 = draw(_C)
            step = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2))
                        .filter(lambda v: v != (0, 0)))
        y0 = draw(_C)
        run = [(x0 + k * step[0], y0 + k * step[1]) for k in range(size)]
        if kind == "line":
            pts = run
        elif kind == "run" and draw(st.booleans()):
            dx, dy = step
            pts = [(x, y) for x, y in pts
                   if dx * (y - y0) - dy * (x - x0) >= 0]
        pts = pts + run
    pts = list(dict.fromkeys(pts))
    return draw(st.permutations(pts)) if pts else [(0, 0)]


@settings(max_examples=400)
@given(_plane_points())
@example([(0, 0), (1, 0), (2, 0), (3, 0), (1, 2)])
@example([(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])
@example([(0, 0), (1, 1), (2, 2), (3, 3)])
@example([(2, 1), (0, 0)])
def test_chain_edges_match_the_scanning_oracle(pts) -> None:
    # every facet, the upper and the lower ones: the same rows, points on
    # each edge and vertices, in the same order
    for sign in (-1, 0, 1):
        assert plconvex._facets(pts, sign) == oracles.chain_scanning(
            pts, sign)


@st.composite
def _functions(draw):
    """A max-affine function on R^n, n = 1..3, whose gradients span an
    affine subspace of a drawn rank (so point, segment and plane domains
    come on R^2 and R^3), with offsets free or on one plane less 0 or 1
    (so many lifted points share a facet)."""
    n = draw(st.integers(1, 3))
    rank = draw(st.integers(0, n) | st.just(n))
    small = st.integers(-2, 2)
    base = draw(st.tuples(*[small] * n))
    # a full rank draws grid points, a lower one combinations of directions
    dirs = ([tuple(int(i == j) for j in range(n)) for i in range(n)]
            if rank == n else
            [draw(st.tuples(*[small] * n).filter(any)) for _ in range(rank)])
    coefs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank),
                          min_size=2, max_size=10))
    den = draw(st.sampled_from((1, 2, 3)))
    grads = {tuple(F(b + sum(c * d[j] for c, d in zip(cs, dirs)), den)
                   for j, b in enumerate(base)) for cs in coefs}
    w = draw(st.tuples(*[small] * n))
    on_plane = draw(st.booleans())
    pieces = []
    for g in sorted(grads):
        if on_plane:
            c = sum(x * y for x, y in zip(w, g)) - draw(
                st.sampled_from((0, 0, 1)))
        else:
            c = F(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2))))
        pieces.append((g, c))
    return MaxAffine(n, pieces)


@settings(max_examples=300)
@given(_functions())
def test_conjugate_matches_the_echelon_route(f) -> None:
    q = conjugate(f)
    assert q == oracles.conjugate_echelon(f)
    # the domain rows kept from the wrap, or from the chain's ends on the
    # line, are the rows of the domain points
    if f.n == 1 or q._cells:
        assert q._hrep == plconvex._hull_rows([r[:-1] for r in q._verts])
    else:
        assert q._hrep is None


_SMALL, _BIG = st.integers(-6, 6), st.integers(-10 ** 6, 10 ** 6)


@st.composite
def _line_functions(draw):
    """A max-affine function on R^1 from integer rows (G, C) over a den in
    {1, 2, 3, 6, 7}, entries small or up to 10^6: free rows, free rows
    with a collinear run of 3 to 6 (on the upper chain when the others
    keep below its line), every offset tied to one line less 0 or 1, or
    one or two pieces."""
    ent = draw(st.sampled_from((_SMALL, _BIG)))
    kind = draw(st.sampled_from(("free", "run", "tied", "one", "two")))
    size = {"one": 1, "two": 2}.get(kind)
    gs = draw(st.lists(ent, min_size=size or 2, max_size=size or 9,
                       unique=True))
    if kind == "tied":
        a, b = draw(_SMALL), draw(ent)
        rows = [(g, a * g + b - draw(st.sampled_from((0, 0, 1))))
                for g in gs]
    else:
        rows = [(g, draw(ent)) for g in gs]
    if kind == "run":
        g0, c0 = draw(ent), draw(ent)
        dg, dc = draw(st.integers(1, 3)), draw(_SMALL)
        if draw(st.booleans()):
            rows = [(g, c) for g, c in rows
                    if dg * (c - c0) - dc * (g - g0) < 0]
        rows += [(g0 + j * dg, c0 + j * dc)
                 for j in range(draw(st.integers(3, 6)))]
    return MaxAffine._from_ints(1, draw(st.sampled_from((1, 2, 3, 6, 7))),
                                rows)


@settings(max_examples=400)
@given(_line_functions())
@example(MaxAffine._from_ints(1, 6, [(0, 0), (1, 2), (2, 4), (3, 0)]))
@example(MaxAffine._from_ints(1, 7, [(-4, 3)]))
@example(MaxAffine._from_ints(1, 3, [(0, 6), (6, 0)]))
def test_line_conjugate_matches_the_wrap_route(f) -> None:
    # the upper chain read straight off the sorted rows: the wrap's rows
    # over the same den, its domain rows from the chain's ends, and the
    # Fraction views of an independent chain
    q, want = conjugate(f), oracles.conjugate_line_by_wrap(f)
    assert (q._den, q._verts, q._cells, q._planes) == (
        want._den, want._verts, want._cells, want._planes)
    assert q._hrep == plconvex._hull_rows([r[:-1] for r in q._verts])
    if len(f._rows) == 1:
        (g, c), = f.pieces
        assert (q.vertices, q.cells, q.planes) == (
            ((g, c),), (), (((F(0),), c),))
        return
    vertices, cells, planes = oracles.conjugate_1d_chain(f.pieces)
    assert (q.vertices, q.planes) == (vertices, planes)
    assert tuple((c.vertices, c.grad, c.offset) for c in q.cells) == cells


@st.composite
def _lifted(draw):
    """Integer rows (x, y, z) with distinct heads (x, y) on a small grid,
    sorted as a function's rows are: z free or on one plane less 0 or 1
    (coplanar runs, quadrilateral cells and collinear points on edges);
    or rows (x, y, c x + a y, z), gradients on a plane of R^3."""
    kind = draw(st.sampled_from(("free", "tied", "plane3")))
    heads = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)),
                          min_size=3, max_size=14, unique=True))
    a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
    zs = [draw(st.integers(-4, 4)) if kind == "free"
          else a * x + b * y - draw(st.sampled_from((0, 0, 0, 1)))
          for x, y in heads]
    pts = sorted(h + (z,) for h, z in zip(heads, zs))
    if kind == "plane3":
        # gradients g = (x, y, c x + a y) on a plane of R^3 with offsets z
        pts = sorted((x, y, c * x + a * y, z) for x, y, z in pts)
    return pts


def _facet_set(facets):
    return sorted(facets, key=lambda facet: facet[3])


def _by_general_wrap(f):
    """``conjugate(f)`` with the upper facets of d = 3 from ``_wrap``."""
    with mock.patch.object(plconvex, "_upper_wrap", plconvex._wrap):
        return conjugate(f)


def _bytes(q):
    return (q._den, q._verts, q._cells, q._planes, q._hrep)


@settings(max_examples=300)
@given(_lifted())
@example([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)])
@example([(0, 0, 0), (0, 2, 0), (1, 1, 1), (2, 0, 0), (2, 2, 0)])
@example([(0, 0, 0), (1, 2, 0), (2, 0, 1)])
def test_upper_wrap_matches_the_general_wrap(pts) -> None:
    # the same facets, rows, points and vertex orders, for the upper and
    # the lower hull, given the domain's facets or not; and the same
    # conjugate, byte for byte and in order, on R^2 and on a plane of R^3
    n = len(pts[0]) - 1
    f = MaxAffine._from_ints(n, 1, pts)
    assert _bytes(conjugate(f)) == _bytes(_by_general_wrap(f))
    if n == 3:
        piv = plconvex._independent([r[:-1] for r in f._rows],
                                    range(len(f._rows)), 3)[1]
        pts = [tuple(r[k] for k in piv) + r[-1:] for r in f._rows]
    heads = [p[:-1] for p in pts]
    if len(plconvex._independent(heads, range(len(heads)), 2)[1]) < 2:
        return
    dom = plconvex._facets(heads, 0)
    for sign in (1, -1):
        for given_dom in (None, dom):
            assert _facet_set(plconvex._facets(pts, sign, given_dom)) == (
                _facet_set(plconvex._wrap(pts, sign, given_dom)))
