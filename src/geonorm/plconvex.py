"""Exact piecewise-linear convex analysis on R^n.

Convex functions are max-affine: ``f(v) = max_i (<g_i, v> + c_i)`` with
rational data.  The module provides Legendre conjugation (the concave
profile ``q = -f*`` on the convex hull of the gradients, as the upper
concave envelope of the points ``(g_i, c_i)``), exact comparison with
witness points, run on the conjugate side with no linear program (also
against a convex combination of two functions, formed from their pruned
pieces), constrained convex envelopes by vertex enumeration, marginal
minimization over a leading variable by Fourier-Motzkin elimination of
the epigraph, and exact integration of piecewise-linear data over
rational polytopes.

One hull routine, ``_facets``, serves every n: it gift-wraps the facets
of integer points across ridges, each facet's ridges coming from its own
points one dimension down, down to Andrew's monotone chain in the plane
and the min and the max on the line.  The upper (lower) facets of points
of Z^3 have a base case of their own, ``_upper_wrap``, which wraps the
edges of each facet's polygon in the plane of the heads.  Conjugation on
the line reads the upper chain of the sorted rows, whose ends give its
domain rows; above, it takes the upper facets of the lifted points
(through ``_upper_wrap`` on R^2, and on R^3 for gradients on a plane),
after every facet of the gradients, which gives their rank and the
profile's domain rows.  Other domain rows take every facet of the domain
points.  One vertex
routine, ``_vertices``, serves every n too: the double description
method on homogeneous integer rows, which needs no interior point, gives
the vertices of the hypograph of a min of planes on a cut region, with
the rows tight at each.  That gives the
constrained envelope, and the overlay of two profiles as the hypograph
of the min of their summed planes, and one reader, ``_upper_facets``,
takes the upper facets of either hypograph off those tight rows: the
cells of the envelope's profile, which it returns with the envelope, and
those of the overlay.  Integrals pull each cell into simplices from a
vertex, reading its faces off the same rows; ``_homogeneous_integral``
sums them on homogeneous integer points, for |q0 - q1|^p on the overlay
and for the envelope's profile, which so needs no conjugate.  So
conjugation, pruning, comparison, ``==``, envelopes, marginal minima,
overlays and integrals run for every n, and so does ``mix_witness``,
which compares against the mix of two functions' pruned pieces.
Functions that need a profile the caller already holds have private
variants that take it (``_le_witness``, ``_compare``, ``_mix_witness``,
``_envelope``).

The kernels run on integers.  A ``MaxAffine`` is one positive denominator
D and integer rows ``(G_1, ..., G_n, C)``, the piece (G/D, C/D), with D
the least common denominator of the pieces (so D and the rows have gcd 1)
and the rows deduplicated and sorted on their integer gradients.  A
``ConcaveProfile`` keeps one such denominator for all of its hypograph
vertices, cell vertices and planes.  Hulls, conjugates, comparisons and
Fourier-Motzkin elimination read those rows directly.  The public
``pieces``, ``planes``, ``vertices`` and ``cells`` are ``Fraction`` views
built each time they are read, never stored.  A profile is read at the
lattice points of a dilation k (the sup-norm weights k q(a/k) of a toric
metric) straight from its integer planes, by
``ConcaveProfile.lattice_values``.  The overlay of two profiles
(``_overlay``, on the line one merge of their left-to-right cells) keeps
each common cell as homogeneous integer points ``(X.., W)``, W > 0 and
gcd 1, standing for X/W, with their tight rows and the two profiles'
integer plane rows over one denominator; the integral and the sup of
|q0 - q1| and the pieces of the interpolated profile (1 - t) q0 + t q1
are read off it, and build one ``Fraction`` each, and on the line so are
the integer level sums of q0 - q1 and |q0 - q1| at the lattice points of
a dilation (``_overlay_line_sum``).  Ranks and primitive rows come from
``linalg`` (``_extend_echelon``, ``_primitive``).
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, gcd, lcm, prod
from operator import add, and_, itemgetter, mul, neg, sub

from .field import format_fraction, json_list, parse_fraction
from .linalg import _extend_echelon, _primitive


class PLError(ValueError):
    pass


class EnvelopeError(PLError):
    """No finite convex minorant with the requested slope constraint."""


_flat = itertools.chain.from_iterable


def _rational(x):
    """x as an int or a Fraction, both of which carry numerator/denominator."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


def _point(y, n: int):
    """A point of R^n with rational coordinates; PLError on a wrong length."""
    y = tuple(_rational(x) for x in y)
    if len(y) != n:
        raise PLError(f"point has length {len(y)}, expected {n}")
    return y


def _int_rows(rows):
    """(D, integer rows) of rational rows over their least common
    denominator."""
    den = lcm(*(x.denominator for r in rows for x in r))
    return den, [tuple(x.numerator * (den // x.denominator) for x in r)
                 for r in rows]


def _over(den: int, rows):
    """Fraction view of integer rows over den: ((head...), last) per row."""
    return tuple((tuple(Fraction(x, den) for x in r[:-1]),
                  Fraction(r[-1], den)) for r in rows)


# ---------------------------------------------------------------------------
# Max-affine functions.
# ---------------------------------------------------------------------------


class MaxAffine:
    """max of affine pieces; pieces with equal gradient keep the best offset.

    Stored as ``_den`` and integer ``_rows`` (see the module docstring);
    ``pieces`` is the ``Fraction`` view, in gradient order.
    """

    __slots__ = ("n", "_den", "_rows")

    def __init__(self, n: int, pieces):
        rows = []
        for g, c in pieces:
            g = tuple(_rational(x) for x in g)
            if len(g) != n:
                raise PLError(f"piece gradient has length {len(g)}, expected {n}")
            rows.append(g + (_rational(c),))
        if not rows:
            raise PLError("a max-affine function needs at least one piece")
        self._set(n, *_int_rows(rows))

    @classmethod
    def _from_ints(cls, n: int, den: int, rows) -> "MaxAffine":
        """The function with integer rows (G_1, ..., G_n, C) over den > 0.

        Rows may repeat gradients and come in any order.
        """
        self = object.__new__(cls)
        self._set(n, den, rows)
        return self

    def _set(self, n, den, rows):
        # sorted rows end each run of equal gradients with the best offset
        rows = sorted(rows)
        kept = [r for r, nxt in zip(rows, rows[1:]) if r[:-1] != nxt[:-1]]
        kept.append(rows[-1])
        g = gcd(den, *_flat(kept))
        if g > 1:
            den //= g
            kept = [tuple(x // g for x in r) for r in kept]
        self.n, self._den, self._rows = n, den, tuple(kept)

    @property
    def pieces(self):
        return _over(self._den, self._rows)

    def __call__(self, v):
        v = _point(v, self.n)
        dv = lcm(*(x.denominator for x in v))
        V = [x.numerator * (dv // x.denominator) for x in v]
        return Fraction(max(sum(map(mul, r, V)) + r[-1] * dv
                            for r in self._rows), self._den * dv)

    def __eq__(self, other):
        if not isinstance(other, MaxAffine):
            return NotImplemented
        _require_same_n(self, other)
        return (le_witness(self, other) is None
                and le_witness(other, self) is None)

    __hash__ = None

    def __repr__(self):
        return f"MaxAffine(n={self.n}, {len(self._rows)} pieces)"

    def scaled(self, k) -> "MaxAffine":
        """(k * f) for k > 0: pieces scale as (k g, k c)."""
        k = Fraction(k)
        if k <= 0:
            raise PLError("scaling factor must be positive")
        return MaxAffine._from_ints(
            self.n, self._den * k.denominator,
            [tuple(x * k.numerator for x in r) for r in self._rows])

    def shifted(self, c) -> "MaxAffine":
        c = _rational(c)
        den = lcm(self._den, c.denominator)
        s, off = den // self._den, c.numerator * (den // c.denominator)
        return MaxAffine._from_ints(
            self.n, den,
            [tuple(x * s for x in r[:-1]) + (r[-1] * s + off,)
             for r in self._rows])

    def plus(self, other: "MaxAffine") -> "MaxAffine":
        """Pointwise sum (pairwise piece sums)."""
        if self.n != other.n:
            raise PLError("dimension mismatch in sum")
        den = lcm(self._den, other._den)
        s0, s1 = den // self._den, den // other._den
        return MaxAffine._from_ints(self.n, den, [
            tuple(a * s0 + b * s1 for a, b in zip(r0, r1))
            for r0 in self._rows for r1 in other._rows
        ])

    def max_with(self, *others) -> "MaxAffine":
        for o in others:
            if o.n != self.n:
                raise PLError("dimension mismatch in max")
        funcs = (self,) + others
        den = lcm(*(f._den for f in funcs))
        return MaxAffine._from_ints(self.n, den, [
            tuple(x * (den // f._den) for x in r)
            for f in funcs for r in f._rows])

    def gradients(self):
        return tuple(g for g, _ in self.pieces)

    def to_json(self):
        return {"n": self.n, "pieces": [
            {"g": [format_fraction(x) for x in g], "c": format_fraction(c)}
            for g, c in self.pieces
        ]}

    @classmethod
    def from_json(cls, obj) -> "MaxAffine":
        try:
            pieces = [
                (tuple(parse_fraction(x) for x in json_list(p["g"], "g")),
                 parse_fraction(p["c"]))
                for p in json_list(obj["pieces"], "pieces")
            ]
            n = obj["n"] if "n" in obj else len(pieces[0][0])
        except (KeyError, TypeError, IndexError) as exc:
            raise PLError(f"malformed max-affine JSON: {exc}") from exc
        # a bool, float, list or string n would pass until a gradient's
        # length is compared with it
        if type(n) is not int or n < 1:
            raise PLError(f"max-affine n must be a positive integer, got {n!r}")
        return cls(n, pieces)


def prune(f: MaxAffine) -> MaxAffine:
    """Drop pieces that never strictly achieve the maximum (any n).

    A piece is non-redundant exactly when its lifted point ``(g, c)`` is a
    vertex of the upper hull, and those vertices are what ``conjugate``
    keeps, so conjugating back prunes.
    """
    return _pruned(f)[0]


def _pruned(f: MaxAffine):
    """``(prune(f), q)`` with q = ``conjugate(f)``, which is also the
    profile of ``prune(f)``, so a caller that needs it conjugates nothing.

    The pruned rows are the vertices of q, and conjugating them gives q's
    vertices, cells and planes again.  Only the order of the cells (and of
    their planes) may differ: it follows the indices of the pieces on each
    facet, and a piece of f that lies on a facet of n >= 2 without being
    one of its vertices is gone after pruning.  Integrals and the relation
    of a comparison do not read that order.
    """
    q = conjugate(f)
    return q.to_max_affine(), q


# ---------------------------------------------------------------------------
# Comparison with witnesses.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    relation: str  # "eq" | "le" | "ge" | "incomparable"
    witness_first_gt: tuple | None  # point where first > second
    witness_second_gt: tuple | None


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def le_witness(f: MaxAffine, g: MaxAffine):
    """None if f <= g everywhere, else a point where f > g (any n)."""
    return _le_witness(f, g, conjugate(g))


def _le_witness(f: MaxAffine, g: MaxAffine, q: ConcaveProfile):
    """``le_witness(f, g)`` given q = conjugate(g).

    q is the min of its integer planes (rows (W, B) over its den) on the
    polytope of its domain rows; ``g`` is only evaluated.  A piece
    <a, v> + c lies below g iff c <= q(a), with q taken as -inf off its
    domain (Rockafellar, Convex Analysis, section 12).
    """
    fden, den, planes = f._den, q._den, q._planes
    hrep = _domain_hrep(q)
    for r in f._rows:
        A, C = r[:-1], r[-1]
        # <N / den^e, A / fden> > R / den^(e+1), times den^(e+1) fden
        out = next((h for h in hrep
                    if sum(map(mul, h[0], A)) * den > h[1] * fden), None)
        if out is not None:
            # <grad, s nu> <= s b on g's domain: f outgrows g along nu
            N, R, e = out
            nu = tuple(Fraction(x, den ** e) for x in N)
            b = Fraction(R, den ** (e + 1))
            a = tuple(Fraction(x, fden) for x in A)
            c = Fraction(C, fden)
            top = g(tuple(Fraction(0) for _ in A))
            s = max(Fraction(1), (top - c) / (_dot(nu, a) - b) + 1)
            return tuple(s * x for x in nu)
        # q(a) = min over planes of (<W, A> + B fden) / (den fden)
        vals = [sum(map(mul, p, A)) + p[-1] * fden for p in planes]
        qa = min(vals)
        if C * den > qa:
            # g(-w) = beta for a plane (w, beta) of q active at a
            w = planes[vals.index(qa)]
            return tuple(Fraction(-x, den) for x in w[:-1])
    return None


def mix_witness(f: MaxAffine, g0: MaxAffine, g1: MaxAffine, lam):
    """``le_witness(f, h)`` for h = lam*g0 + (1-lam)*g1, 0 <= lam <= 1.

    Any n: h is formed from the pruned pieces of g0 and g1, which their
    profiles hold, and conjugated, and the witness is the one
    ``le_witness`` gives against it; at lam = 0 or 1 that is
    ``le_witness`` against one end.  A lam outside [0, 1] raises
    ``PLError``.
    """
    return _mix_witness(f, lam, conjugate(g0), conjugate(g1))


def _mix_witness(f, lam, q0: ConcaveProfile, q1: ConcaveProfile):
    """``mix_witness(f, g0, g1, lam)`` given q0, q1 = conjugate(g0, g1)."""
    lam = Fraction(lam)
    if not 0 <= lam <= 1:
        raise PLError(f"mix weight must lie in [0, 1], got {lam}")
    if lam == 0 or lam == 1:
        q = q0 if lam == 1 else q1
        return _le_witness(f, q.to_max_affine(), q)
    h = q0.to_max_affine().scaled(lam).plus(q1.to_max_affine().scaled(1 - lam))
    return _le_witness(f, h, conjugate(h))


def _require_same_n(f: MaxAffine, g: MaxAffine):
    if f.n != g.n:
        raise PLError("cannot compare functions of different dimensions")


def compare(f: MaxAffine, g: MaxAffine) -> Comparison:
    """Exact pointwise comparison of two max-affine functions (any n)."""
    _require_same_n(f, g)
    return _compare(f, g, conjugate(f), conjugate(g))


def _compare(f, g, qf: ConcaveProfile, qg: ConcaveProfile) -> Comparison:
    """``compare(f, g)`` given qf, qg = conjugate(f), conjugate(g)."""
    w_fg = _le_witness(f, g, qg)   # point where f > g, if any
    w_gf = _le_witness(g, f, qf)   # point where g > f, if any
    if w_fg is None and w_gf is None:
        return Comparison("eq", None, None)
    if w_fg is None:
        return Comparison("le", None, w_gf)
    if w_gf is None:
        return Comparison("ge", w_fg, None)
    return Comparison("incomparable", w_fg, w_gf)


# ---------------------------------------------------------------------------
# Polytopes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polytope:
    n: int
    hrep: tuple        # ((a, b), ...) meaning <a, y> <= b
    vertices: tuple    # tuple of points

    @cached_property
    def _cuts(self):
        """``hrep`` as primitive integer rows (a_1.., b), computed once."""
        return tuple(_primitive(_int_rows([tuple(map(
            _rational, (*a, b)))])[1][0]) for a, b in self.hrep)


@cache
def moment_simplex(n: int, m) -> Polytope:
    """The simplex {y >= 0, sum y_i <= m} in R^n."""
    m = Fraction(m)
    hrep = [(tuple(Fraction(-1 if i == j else 0) for j in range(n)), Fraction(0))
            for i in range(n)]
    hrep.append((tuple(Fraction(1) for _ in range(n)), m))
    vertices = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n):
        vertices.append(tuple(m if j == i else Fraction(0) for j in range(n)))
    return Polytope(n, tuple(hrep), tuple(vertices))


def _canon(p):
    """A homogeneous integer point (X.., W) with W > 0 and gcd 1."""
    return _primitive(tuple(map(neg, p)) if p[-1] < 0 else p)


# ---------------------------------------------------------------------------
# Convex hulls of integer points, gift-wrapped in every dimension.
# ---------------------------------------------------------------------------


def _independent(pts, idxs, rank):
    """The first ``rank + 1`` of ``idxs``, in order, whose points are
    affinely independent (fewer if they span less), and the pivot
    coordinates of the span of the points taken.

    The differences from the first point go through the integer echelon
    ``linalg._extend_echelon``, whose pivots do not depend on the order.
    """
    idxs = iter(idxs)
    first = next(idxs)
    p0, kept, echelon = pts[first], [first], []
    for i in idxs:
        if len(echelon) == rank:
            break
        if _extend_echelon(echelon, tuple(map(sub, pts[i], p0))):
            kept.append(i)
    return kept, sorted(p for p, _ in echelon)


def _det(m):
    """Determinant of a square integer matrix, by Laplace expansion."""
    if len(m) < 3:
        return (m[0][0] * m[1][1] - m[0][1] * m[1][0] if len(m) == 2
                else m[0][0] if m else 1)
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j, x in enumerate(m[0]) if x)


def _form(rows):
    """N with <N, x> = det(rows..., x), for d - 1 integer rows of length d."""
    if not rows:
        return (1,)
    sign, out = (-1) ** len(rows), []
    for i in range(len(rows) + 1):
        out.append(sign * _det([r[:i] + r[i + 1:] for r in rows]))
        sign = -sign
    return tuple(out)


def _neg(v):
    return tuple(map(neg, v))


def _frame(pts, idxs, rank):
    """The first point of ``idxs`` and the differences to it from the next
    ``rank`` points that are affinely independent of the earlier ones."""
    kept, _ = _independent(pts, idxs, rank)
    p0 = pts[kept[0]]
    return p0, [tuple(a - b for a, b in zip(pts[i], p0)) for i in kept[1:]]


def _facets(pts, sign=0, dom=None):
    """Facets of the convex hull of distinct integer points of Z^d.

    Gift-wrapping (Chand and Kapur, 1970): from a first facet (``_first``)
    cross each ridge into the facet beyond it (``_cross``), the ridges of
    a facet being the facets of its own points one dimension down
    (``_facet``).  The recursion ends at d = 2 in Andrew's monotone chain
    (``_chain``), which lists a polygon's edges counterclockwise from its
    smallest point, and at d = 1 in the min and the max.  With ``sign`` 0
    every facet comes, and points spanning an affine subspace of rank
    r < d get ``_flat_facets``.  With ``sign`` +1 (-1) the heads of the
    points (all coordinates but the last) must be distinct and span
    R^(d-1), and only the upper (lower) facets come, those whose normal
    has a positive (negative) last coordinate; the wrap crosses only into
    them.  At d = 3 those come from ``_upper_wrap``, which wraps the
    edges of the upper facets in the plane of their heads, and the heads
    must come in increasing order.  ``dom``, when given, is the list of
    ``_facets`` of the heads with ``sign`` 0, which the wrap above d = 2
    then takes instead of wrapping the heads again.

    Gives a list of ``(N, c, e, on, verts)``: <N, p> <= c for every
    point, with equality exactly at the indices ``on`` (increasing), and
    ``verts`` indexes the facet's vertices in the order its ridges list
    them (a polygon counterclockwise from its smallest vertex).  At d = 2
    ``on`` is the two ends of an edge and the points that the chain
    popped off it with a zero turn, and above it every point on the
    facet's plane, which ``_cross`` (or ``_upper_wrap``) finds in the pass
    that finds the facet.  For
    points Y = D y the row stands for <N / D^e, y> <= c / D^(e + 1):
    above d = 2, N is primitive and e = 0; at d = 2, N is the edge turned
    clockwise and e = 1; at d = 1, N = +-1 and e = 0; ``_flat_facets``
    gives its cofactors with their degrees.
    """
    d = len(pts[0])
    if d == 3 and sign:
        return _upper_wrap(pts, sign, dom)
    return _ends(pts, sign) if d == 1 else (
        _chain(pts, sign) if d == 2 else _wrap(pts, sign, dom))


def _ends(pts, sign):
    """``_facets`` at d = 1: the min and the max."""
    xs = [x for x, in pts]
    out = []
    if sign <= 0:
        i = xs.index(min(xs))
        out.append(((-1,), -xs[i], 0, (i,), (i,)))
    if sign >= 0:
        i = xs.index(max(xs))
        out.append(((1,), xs[i], 0, (i,), (i,)))
    return out


def _wrap(pts, sign, dom=None):
    """``_facets`` above d = 3, and at d = 3 with every facet: the
    gift-wrap itself.

    With ``sign`` +-1, d points make one facet.  More points have their
    domain, the hull of the heads, wrapped first (or given as ``dom``): a
    ridge whose points all lie on one facet of it bounds the upper (lower)
    hull and is not crossed, and the first facet rises from the vertical
    hyperplane over the domain's first facet.
    """
    if sign and len(pts) == len(pts[0]):
        # the heads of d points span R^(d-1): one facet holds them all
        p0, on = pts[0], tuple(range(len(pts)))
        N = _form([tuple(map(sub, p, p0)) for p in pts[1:]])
        g = gcd(*N) if sign * N[-1] > 0 else -gcd(*N)
        N = tuple([x // g for x in N])
        return [(N, sum(map(mul, N, p0)), 0, on, _facet(
            pts, N, on, lambda ridge: True)[0])]
    walls = None
    if sign:
        if dom is None:
            dom = _facets([p[:-1] for p in pts], 0)
        # bit k of walls[i]: the head of point i is on the domain's facet k
        walls = [0] * len(pts)
        for k, facet in enumerate(dom):
            for i in facet[3]:
                walls[i] |= 1 << k
        rho, c, _, on, _ = dom[0]
        normal, c, on, entry = _rise(pts, rho + (0,), c, on, sign)
    else:
        normal, c, on, entry = _first(pts, sign)
        if len(on) == len(pts):
            return _flat_facets(pts)
    done, seen, todo = {entry}, {on}, [(normal, c, on)]

    def crossed(ridge):
        return ridge in done or walls and reduce(
            and_, map(walls.__getitem__, ridge))

    out = []
    while todo:
        normal, c, on = todo.pop()
        verts, ridges = _facet(pts, normal, on, crossed)
        out.append((normal, c, 0, on, verts))
        for rho, cr, ridge in ridges:
            done.add(ridge)
            got = _cross(pts, normal, c, rho, cr)
            if got[2] not in seen:
                seen.add(got[2])
                todo.append(got)
    return out


def _upper_wrap(pts, sign, dom=None):
    """``_facets`` at d = 3 with ``sign`` +-1: the upper (lower) facets,
    wrapped across the edges of their own polygons.

    The heads must come in increasing order, as ``conjugate`` gives them,
    so that a facet's smallest index is its smallest head.  A directed
    edge u -> v of the upper hull has its facet on its left: one pass over
    the points whose heads lie strictly left of it keeps the plane through
    the lifted u and v that has each of them on or below it, and a second
    pass takes the points on that plane.  The facet's vertices run
    counterclockwise from its smallest index: a triangle by its
    orientation, more points by Andrew's chain of their heads (``_half``).
    Each edge of a found facet is crossed reversed, except the domain's
    walls, the edges whose ends lie on one facet of ``dom`` (the heads'
    ``_facets`` with every facet, taken here when not given).  The first
    edge lies over the domain's first facet, which runs from head 0: the
    first edge of the upper chain of the points over it.  Three points
    make one facet, and the lower facets are the upper ones of the points
    reflected in the last coordinate.
    """
    if sign < 0:
        return [((x, y, -z), c, 0, on, vs) for (x, y, z), c, _, on, vs
                in _upper_wrap([(x, y, -z) for x, y, z in pts], 1, dom)]
    if len(pts) == 3:
        # one facet, its vertices counterclockwise when (b - a) x (c - a)
        # points up
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = pts
        bx, by, bz = bx - ax, by - ay, bz - az
        cx, cy, cz = cx - ax, cy - ay, cz - az
        nx, ny, nz = by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx
        g = gcd(nx, ny, nz) if nz > 0 else -gcd(nx, ny, nz)
        nx, ny, nz = nx // g, ny // g, nz // g
        return [((nx, ny, nz), nx * ax + ny * ay + nz * az, 0, (0, 1, 2),
                 (0, 1, 2) if g > 0 else (0, 2, 1))]
    heads = [p[:2] for p in pts]
    if dom is None:
        dom = _chain(heads, 0)
    walls = [0] * len(pts)
    for k, facet in enumerate(dom):
        for i in facet[3]:
            walls[i] |= 1 << k
    # the steepest rise from head 0 along the domain's first facet
    line = dom[0][3]
    x0, y0, z0 = pts[0]
    ex, ey = pts[line[-1]][0] - x0, pts[line[-1]][1] - y0
    v, vt, vz = 0, 1, 0
    for i in line[1:]:
        x, y, z = pts[i]
        t = ex * (x - x0) + ey * (y - y0)
        if not v or (z - z0) * vt > vz * t:
            v, vt, vz = i, t, z - z0
    out, done, todo = [], set(), [(0, v)]
    while todo:
        u, v = todo.pop()
        if (u, v) in done:
            continue
        ux, uy, uz = pts[u]
        ex, ey, ez = pts[v][0] - ux, pts[v][1] - uy, pts[v][2] - uz
        # p is left of the edge when ex y - ey x > k, above the plane
        # through it when <N, p> > h
        k, h = ex * uy - ey * ux, 0
        nx = ny = nz = 0
        for x, y, z in pts:
            if ex * y - ey * x > k and (
                    not nz or nx * x + ny * y + nz * z > h):
                x, y, z = x - ux, y - uy, z - uz
                nx, ny, nz = ey * z - ez * y, ez * x - ex * z, ex * y - ey * x
                h = nx * ux + ny * uy + nz * uz
        g = gcd(nx, ny, nz)
        nx, ny, nz = N = (nx // g, ny // g, nz // g)
        c = nx * ux + ny * uy + nz * uz
        on = tuple([i for i, (x, y, z) in enumerate(pts)
                    if nx * x + ny * y + nz * z == c])
        if len(on) == 3:
            a, b, e = on
            (px, py), (qx, qy), (rx, ry) = heads[a], heads[b], heads[e]
            verts = on if (qx - px) * (ry - py) > (qy - py) * (rx - px) else (
                a, e, b)
        else:
            verts = tuple([i for *_, i, _ in _half(heads, on)[:-1]
                           + _half(heads, on[::-1])[:-1]])
        out.append((N, c, 0, on, verts))
        for a, b in zip(verts, verts[1:] + verts[:1]):
            done.add((a, b))
            if not walls[a] & walls[b]:
                todo.append((b, a))
    return out


def _half(pts, seq):
    """Andrew's monotone chain through points of the plane taken in the
    order ``seq`` of indices: the lower chain for increasing points, the
    upper one for decreasing, collinear points dropped.

    Gives (x, y, i, inside) for each point i of the chain, ``inside`` the
    indices of the points strictly inside the edge that ends at i.  A
    point popped with a zero turn lies on the edge that replaces it,
    together with the points inside the edge it ended; one popped with a
    negative turn lies off that edge, and so do they.
    """
    chain = []
    for i in seq:
        x, y = pts[i]
        on = ()
        while len(chain) > 1:
            ox, oy, _, _ = chain[-2]
            ax, ay, a, ins = chain[-1]
            turn = (ax - ox) * (y - oy) - (ay - oy) * (x - ox)
            if turn > 0:
                break
            chain.pop()
            on = () if turn else on + ins + (a,)
        chain.append((x, y, i, on))
    return chain


def _chain(pts, sign):
    """``_facets`` at d = 2: the edges of Andrew's monotone chain.

    The lower chain runs from the smallest point to the largest and the
    upper chain back, so all edges come counterclockwise from the
    smallest point; sign -1 (+1) takes the lower (upper) chain alone, less
    its vertical edges.  Each edge lists its two vertices in increasing
    index order, the order its ridges come one dimension down, and its
    ``on`` set is its two ends and the points that ``_half`` kept inside
    it.  N is the edge from a to b turned clockwise, outward for a
    counterclockwise edge.
    """
    order = sorted(range(len(pts)), key=pts.__getitem__, reverse=sign > 0)
    edges = []
    for seq in (order, order[::-1]) if not sign else (order,):
        chain = _half(pts, seq)
        edges += zip(chain, chain[1:])
    if not sign and len(edges) < 3:
        return _flat_facets(pts)
    out = []
    for (ax, ay, a, _), (bx, by, b, ins) in edges:
        nx, ny = by - ay, ax - bx
        if sign and sign * ny <= 0:
            continue
        if a > b:
            a, b = b, a
        out.append(((nx, ny), nx * ax + ny * ay, 1,
                    tuple(sorted(ins + (a, b))) if ins else (a, b), (a, b)))
    return out


def _first(pts, sign):
    """(normal, c, on, ridge) of the first facet ``_facets`` gives.

    At d <= 2 the first that the min and max or the chain give.  Above,
    V is the vertical supporting hyperplane over the first facet of the
    heads (a lower one in the upper and lower modes, where the heads span
    R^(d-1)), turned into the first facet by ``_rise``.  When V holds
    every point it is returned with ``ridge`` None: the points are flat.
    """
    if len(pts[0]) < 3:
        normal, c, _, on, _ = _facets(pts, sign)[0]
        return normal, c, on, None
    rho, c, _, _ = _first(list(dict.fromkeys(p[:-1] for p in pts)),
                          sign and -1)
    normal = rho + (0,)
    on = tuple(i for i, p in enumerate(pts) if sum(map(mul, normal, p)) == c)
    if len(on) == len(pts):
        return normal, c, on, None
    return _rise(pts, normal, c, on, sign)


def _rise(pts, normal, c, on, sign):
    """(normal, c, on, ridge) of a facet next to the vertical supporting
    hyperplane <normal, p> <= c through the points ``on`` (not all).

    The points on it have a lower (upper for sign +1) facet R, found one
    dimension down after dropping the last coordinate where the normal is
    nonzero: a ridge of the hull, across which the hyperplane turns into
    the facet, and ``ridge`` indexes R.
    """
    j = _last(normal)
    mu, cr, ridge, _ = _first([pts[i][:j] + pts[i][j + 1:] for i in on],
                              sign or -1)
    return _cross(pts, normal, c, mu[:j] + (0,) + mu[j:], cr) + (
        tuple(on[i] for i in ridge),)


def _facet(pts, normal, on, crossed):
    """(verts, ridges) of the facet of the points ``on`` (indices) with
    outward normal ``normal``.

    Each ridge for which ``crossed`` is false is (rho, c_R, indices) with
    <rho, p> <= c_R on the facet, equality on the ridge.  The facet's
    points are projected by dropping the last coordinate where its normal
    is nonzero, which is one to one on the facet.  A simplex (d points in
    Z^d) has the ridges that drop one vertex each, and lists its vertices
    from the smallest index, in increasing order except the last two when
    that order is negatively oriented (a triangle counterclockwise); any
    other facet has the ridges and the vertex order of ``_facets`` one
    dimension down.
    """
    d = len(normal)
    j = d - 1 if normal[-1] else _last(normal)
    proj = [p[:j] + p[j + 1:] for p in map(pts.__getitem__, on)]
    if len(on) > d:
        inner = _facets(proj, 0)
        ridges = [(mu[:j] + (0,) + mu[j:], cr, tuple(on[i] for i in ridge))
                  for mu, cr, _, ridge, _ in inner]
        return (tuple(dict.fromkeys(on[i] for *_, vs in inner for i in vs)),
                [r for r in ridges if not crossed(r[2])])
    q0 = proj[0]
    verts = on
    if _det([tuple(map(sub, q, q0)) for q in proj[1:]]) < 0:
        verts = on[:-2] + (on[-1], on[-2])
    ridges = []
    for k, qk in enumerate(proj):
        ridge = on[:k] + on[k + 1:]
        if crossed(ridge):
            continue
        rest = proj[:k] + proj[k + 1:]
        r0 = rest[0]
        rho = _form([tuple(map(sub, q, r0)) for q in rest[1:]])
        cr = sum(map(mul, rho, r0))
        if sum(map(mul, rho, qk)) > cr:
            rho, cr = _neg(rho), -cr
        ridges.append((rho[:j] + (0,) + rho[j:], cr, ridge))
    return verts, ridges


def _last(v):
    """The last coordinate where v is nonzero."""
    return max(i for i, x in enumerate(v) if x)


def _cross(pts, normal, c, rho, cr):
    """The facet beyond a ridge: (N, c', on) with <N, p> <= c' on every
    point, equality exactly at the indices ``on``, N primitive.

    The facet is <normal, p> <= c, not holding every point, and the ridge
    its part where <rho, p> = cr, with <rho, p> <= cr on the facet.  Every
    hyperplane through the ridge is B (<normal, p> - c) - A (<rho, p> - cr)
    = 0 for some (A, B); the one through a point p off the facet has
    A = <normal, p> - c < 0 and B = <rho, p> - cr, and the next facet
    goes through the point with the largest B / -A.  One pass finds it
    and the points on it: those that tie with it, and the ridge's own.
    """
    ridge, ties, a_best = [], [], None
    for i, p in enumerate(pts):
        a = c - sum(map(mul, normal, p))
        b = sum(map(mul, rho, p)) - cr
        if not a:
            if not b:
                ridge.append(i)
        elif a_best is None or b * a_best > b_best * a:
            a_best, b_best, ties = a, b, [i]
        elif b * a_best == b_best * a:
            ties.append(i)
    N = [b_best * x + a_best * y for x, y in zip(normal, rho)]
    g = gcd(*N)
    return (tuple([x // g for x in N]), (b_best * c + a_best * cr) // g,
            tuple(sorted(ridge + ties)))


def _flat_facets(pts):
    """Rows of points whose affine span S has rank r < d.

    First, for each coordinate k off the pivots of S, the equality pair
    +-C_k with <C_k, x> = det(M) for M the unit vectors of those
    coordinates followed by a frame of S, x standing in for the unit
    vector of k (so a point gets the unit vectors themselves and a
    segment from p to q in the plane the rotation (q - p)_2, -(q - p)_1).
    Then the facets of the points inside S, from their projection onto the
    pivots: each normal is the cofactor of the C_k and the facet's frame,
    so it lies in S.
    """
    d = len(pts[0])
    _, piv = _independent(pts, range(len(pts)), d)
    r = len(piv)
    inner = (_facets([tuple(p[k] for k in piv) for p in pts], 0)
             if r else ())
    verts = tuple(dict.fromkeys(i for *_, vs in inner for i in vs)) or (0,)
    p0, frame = _frame(pts, verts, r)
    units = [tuple(int(i == k) for i in range(d)) for k in range(d)
             if k not in piv]
    normals = [tuple((-1) ** (d - 1 - pos) * x
                     for x in _form(units[:pos] + units[pos + 1:] + frame))
               for pos in range(len(units))]
    everything, out = tuple(range(len(pts))), []
    for C in normals:
        c = sum(map(mul, C, p0))
        out.append((C, c, r, everything, verts))
        out.append((_neg(C), -c, r, everything, verts))
    for *_, on, fverts in inner:
        q0, fframe = _frame(pts, fverts, r - 1)
        N = _form(normals + fframe)
        off = next(p for i, p in enumerate(pts) if i not in on)
        c = sum(map(mul, N, q0))
        if sum(map(mul, N, off)) > c:
            N, c = _neg(N), -c
        out.append((N, c, (d - r) * r + r - 1, on, fverts))
    return out


# ---------------------------------------------------------------------------
# Concave profiles: q = -f* on the convex hull of the gradients.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """Full-dimensional linearity cell: its vertices plus affine data.

    An interval lists its ends in increasing order and a polygon runs
    counterclockwise from its smallest vertex; above, a simplex lists its
    vertices in increasing order (the last two swapped if that order is
    negatively oriented) and any other cell in the order its facets list
    them.  Integrals and overlays read no order, only tight rows.
    """

    vertices: tuple            # points (length-n tuples)
    grad: tuple
    offset: Fraction

    def affine(self, y):
        return sum(g * x for g, x in zip(self.grad, y)) + self.offset


class ConcaveProfile:
    """A concave PL function on a polytope domain, in any dimension n.

    ``value(y) = min over planes`` is valid on the domain only.  ``cells``
    are the full-dimensional linearity regions (empty when the domain is
    lower-dimensional, e.g. for conjugates of functions whose gradients lie
    on a line or a plane of R^n).  ``vertices`` are the hypograph vertices
    with their values.  Integrals and overlays run for every n.

    Stored over one denominator ``_den``: ``_verts`` rows (Y.., Z) of the
    hypograph vertices, ``_planes`` rows (W.., B) and ``_cells`` tuples
    of integer vertices, cell i lying on plane i (on the line, cells run
    left to right, which ``_overlay`` reads); ``_hrep`` keeps
    ``_domain_hrep`` once it is computed, or from the start when
    ``conjugate`` read a chain on the line or wrapped a full-rank domain.
    ``vertices``, ``cells`` and ``planes`` are ``Fraction`` views, rebuilt
    on every read.  ``==`` and ``hash`` read no order: the order of the
    cells, and of the vertices of a cell, depends on the route that built
    the profile, so they compare the sorted vertex rows, the sorted planes
    and the sorted cells, each with its vertices sorted (a cell's plane is
    the one through its vertices, valued as the vertex rows say).
    """

    __slots__ = ("n", "_den", "_verts", "_cells", "_planes", "_hrep")

    def __init__(self, n: int, den: int, verts, cells, planes):
        g = gcd(den, *_flat(verts))
        if g > 1:
            g = gcd(g, *_flat(planes))
        if g > 1:
            g = gcd(g, *_flat(_flat(cells)))
        if g > 1:
            den //= g
            verts = [tuple(x // g for x in r) for r in verts]
            planes = [tuple(x // g for x in r) for r in planes]
            cells = [tuple(tuple(x // g for x in p) for p in poly)
                     for poly in cells]
        self._set(n, den, verts, cells, planes)

    @classmethod
    def _lowest(cls, n: int, den: int, verts, cells, planes):
        """The profile of rows over den that share no factor with it."""
        self = object.__new__(cls)
        self._set(n, den, verts, cells, planes)
        return self

    def _set(self, n, den, verts, cells, planes):
        self.n, self._den = n, den
        self._verts, self._cells = tuple(verts), tuple(cells)
        self._planes, self._hrep = tuple(planes), None

    def _key(self):
        return (self.n, self._den, tuple(sorted(self._verts)),
                tuple(sorted(self._planes)),
                tuple(sorted(tuple(sorted(c)) for c in self._cells)))

    def __eq__(self, other):
        if not isinstance(other, ConcaveProfile):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"ConcaveProfile(n={self.n}, {len(self._verts)} vertices, "
                f"{len(self._cells)} cells, {len(self._planes)} planes)")

    @property
    def vertices(self):
        """((point, value), ...), the hypograph vertices."""
        return _over(self._den, self._verts)

    @property
    def planes(self):
        """((grad, offset), ...), q = min over them."""
        return _over(self._den, self._planes)

    @property
    def cells(self):
        den = self._den
        return tuple(
            Cell(tuple(tuple(Fraction(x, den) for x in p) for p in poly), w, b)
            for poly, (w, b) in zip(self._cells, self.planes))

    def value(self, y):
        y = _point(y, self.n)
        dy = lcm(*(x.denominator for x in y))
        Y = [x.numerator * (dy // x.denominator) for x in y]
        return Fraction(min(sum(map(mul, r, Y)) + r[-1] * dy
                            for r in self._planes), self._den * dy)

    def lattice_values(self, k: int, points):
        """``k * value(a / k)`` for each integer point a, on integers.

        k q(a/k) is the min over the planes (W, B) / D of (<W, a> + k B) / D.
        """
        den = self._den
        return tuple(Fraction(v, den)
                     for v in self._lattice_numerators(k, points))

    def _lattice_numerators(self, k: int, points):
        """``D * lattice_values(k, points)``, D = ``_den``, as integers."""
        planes = self._planes
        return [min(sum(map(mul, r, a)) + k * r[-1] for r in planes)
                for a in points]

    def domain_points(self):
        den = self._den
        return tuple(tuple(Fraction(x, den) for x in r[:-1])
                     for r in self._verts)

    def to_max_affine(self) -> MaxAffine:
        """Conjugate back: sup over the domain of <y, v> + q(y)."""
        return MaxAffine._from_ints(self.n, self._den, self._verts)

    def shifted(self, c) -> "ConcaveProfile":
        """The profile of f + c, for q the profile of f: q + c."""
        c = _rational(c)
        den = lcm(self._den, c.denominator)
        s, off = den // self._den, c.numerator * (den // c.denominator)

        def lift(r):
            return tuple(x * s for x in r[:-1]) + (r[-1] * s + off,)

        return ConcaveProfile(
            self.n, den, [lift(r) for r in self._verts],
            [tuple(tuple(x * s for x in p) for p in poly)
             for poly in self._cells],
            [lift(r) for r in self._planes])


def conjugate(f: MaxAffine) -> ConcaveProfile:
    """Concave profile of a convex max-affine function (any n).

    The profile is the upper concave envelope of the lifted points
    ``(g_i, c_i)``; its domain is the convex hull of the gradients.
    Redundant pieces land strictly below the envelope and disappear.  On
    R^1 the profile is read off the upper chain (``_line_conjugate``).
    Above, the lifted rows are wrapped by ``_facets`` (upper facets only),
    and the rank r of the gradients is n when their domain, wrapped once
    by ``_facets`` with every facet, has no facet holding every gradient.
    The upper wrap then reuses that domain, and the profile keeps its
    facets as its domain rows.  Only gradients spanning an affine
    subspace of rank r < n are echeloned (``_independent``), to be
    projected onto their r pivot coordinates, where each plane then has
    its slopes; such a profile has no cells.  Cells and planes come in the
    order of the lexicographically smallest affinely independent
    (r + 1)-tuple of indices of the pieces on each facet, which is the
    order of the facets' ``on`` (``_conjugate_wrap``), so ``planes``
    (whose first active entry is the witness ``le_witness`` returns) does
    not depend on how the hull is searched.
    """
    n, den, rows = f.n, f._den, f._rows
    if n == 1:
        return _line_conjugate(den, rows)
    heads = [g[:-1] for g in rows]
    if len(rows) > n:
        dom = _facets(heads, 0)
        # a flat domain leads with an equality row that holds every head
        if len(dom[0][3]) < len(rows):
            return _conjugate_wrap(n, den, rows, range(n), dom)
    return _conjugate_wrap(n, den, rows,
                           _independent(heads, range(len(rows)), n)[1])


def _line_conjugate(den, rows):
    """``conjugate`` on R^1: Andrew's upper chain (IPL 9, 1979) of the
    rows (G, C), sorted on distinct G, collinear points dropped.  Vertices
    (G_L, C_L) and (G_U, C_U) next on it bound a cell on the plane
    ((C_U - C_L) den s, (C_L G_U - C_U G_L) s) over den scale, s = scale /
    (G_U - G_L) and scale the lcm of those widths; one piece gives the
    plane (0, C).  Reduced as ``_conjugate_wrap`` reduces."""
    chain = []
    for G, C in rows:
        while len(chain) > 1:
            (g0, c0), (g1, c1) = chain[-2], chain[-1]
            if (g1 - g0) * (C - c0) < (c1 - c0) * (G - g0):
                break
            chain.pop()
        chain.append((G, C))
    pairs = list(zip(chain, chain[1:]))
    scale = lcm(*[gu - gl for (gl, _), (gu, _) in pairs])
    planes = []
    for (gl, cl), (gu, cu) in pairs:
        s = scale // (gu - gl)
        planes.append(((cu - cl) * den * s, (cl * gu - cu * gl) * s))
    planes = planes or [(0, chain[0][1])]
    g = gcd(den, *_flat(chain)) * scale
    if g > 1:
        g = gcd(g, *_flat(planes))
        planes = [(w // g, b // g) for w, b in planes]
    if g != scale:
        chain = [(x * scale // g, z * scale // g) for x, z in chain]
    prof = ConcaveProfile._lowest(1, den * scale // g, chain, [
        ((lo,), (hi,)) for (lo, _), (hi, _) in zip(chain, chain[1:])], planes)
    prof._hrep = [((-1,), -chain[0][0], 0), ((1,), chain[-1][0], 0)]
    return prof


def _conjugate_wrap(n, den, rows, piv, dom=None):
    """``conjugate`` of the integer rows over den from ``_facets``, the
    gradients projected onto their pivot coordinates ``piv``; ``dom``,
    when given, is the full-rank domain's ``_facets`` with every facet,
    kept as the profile's domain rows.

    The facets sort on their indices ``on``, which orders them as the
    lexicographically smallest affinely independent (r + 1)-tuples of
    those indices would: two facets whose ``on`` agree up to an index
    share the points before it, which span a face of both, and the first
    index where they differ, off that face, is taken by that tuple.
    """
    r = len(piv)
    pts = rows if r == n else [tuple(g[k] for k in piv) + (g[-1],)
                               for g in rows]
    facets = sorted(_facets(pts, 1, dom), key=itemgetter(3))
    # N . (G, C) = c on a facet: q = <-N_G / N_C, y> + c / (N_C den)
    scale = lcm(*[facet[0][-1] for facet in facets])
    planes, on = [], set()
    for N, c, _, _, vs in facets:
        s = scale // N[-1]
        ds = -den * s
        if r == n:
            grad = [x * ds for x in N]
        else:
            grad = [0] * (n + 1)
            for k, x in zip(piv, N):
                grad[k] = x * ds
        grad[-1] = c * s
        planes.append(grad)
        on.update(vs)
    on = sorted(on)
    verts = [rows[i] for i in on]
    # den * scale, the vertex rows times scale and the planes in lowest
    # terms (the cells' points are vertices); often g is scale, and the
    # vertex rows and the domain's stay as they are
    g = gcd(den, *_flat(verts)) * scale
    if g > 1:
        g = gcd(g, *_flat(planes))
    if g != scale:
        verts = [tuple([x * scale // g for x in v]) for v in verts]
    cells = ()
    if r == n:
        heads = dict(zip(on, [v[:-1] for v in verts]))
        cells = [tuple([heads[i] for i in facet[4]]) for facet in facets]
    prof = ConcaveProfile._lowest(
        n, den * scale // g, verts, cells,
        [tuple([x // g for x in p]) for p in planes] if g > 1
        else list(map(tuple, planes)))
    if dom:
        # the domain points scale by scale / g: N by its e-th power and
        # the right side by the next one, as ``_hull_rows`` states them
        # (e is 1 at n = 2 and 0 above)
        e = dom[0][2]
        u, v = scale ** e, g ** e
        prof._hrep = [facet[:3] for facet in dom] if g == scale else [
            (tuple([x * u // v for x in N]), c * u * scale // (v * g), e)
            for N, c, _, _, _ in dom]
    return prof


# ---------------------------------------------------------------------------
# Domains, vertices of integer cones and constrained envelopes.
# ---------------------------------------------------------------------------


def domain_hrep(profile: ConcaveProfile):
    """Halfplane description of a profile domain (hull of its points)."""
    den = profile._den
    return [(tuple(Fraction(x, den ** e) for x in normal),
             Fraction(rhs, den ** (e + 1)))
            for normal, rhs, e in _domain_hrep(profile)]


def _domain_hrep(profile: ConcaveProfile):
    """``_hull_rows`` of a profile's domain points, integers over its den,
    computed once per profile (``conjugate`` fills them in on the line
    and when it wrapped the domain)."""
    if profile._hrep is None:
        profile._hrep = _hull_rows([r[:-1] for r in profile._verts])
    return profile._hrep


def _hull_rows(pts):
    """Halfspace description of the convex hull of distinct integer points.

    The points are Y = D y for a positive D.  Each row (N, R, e) stands
    for <N, Y> <= R, that is for the rational halfspace <nu, y> <= b with
    nu = N / D^e and b = R / D^(e + 1): the facets of ``_facets``, a
    lower-dimensional hull led by its equality pairs.
    """
    return [facet[:3] for facet in _facets(pts, 0)]


def _hypograph_rows(cuts, profiles, den, planes):
    """The integer rows, for x = (y, z, w), of the cone over the hypograph
    of the min of distinct integer ``planes`` (W.., B) over den on the
    region of the integer ``cuts`` (a.., b) and of the profiles' domains
    (each ``_domain_hrep`` row over D is the cut (D N, R)):
    <a, y> - b w <= 0, -w <= 0 and den z - <W, y> - B w <= 0, in that
    order and without repeats, so the plane rows are the last
    ``len(planes)``.  A ray with w > 0 is the point (y / w, z / w)."""
    cuts = list(cuts) + [_primitive(tuple([x * pr._den for x in N]) + (R,))
                         for pr in profiles for N, R, _ in _domain_hrep(pr)]
    return ([c[:-1] + (0, -c[-1]) for c in dict.fromkeys(cuts)]
            + [(0,) * len(planes[0]) + (-1,)]
            + [tuple([-x for x in r[:-1]]) + (den, -r[-1]) for r in planes])


def _simplicial(rows, d):
    """(base, rays): the first d linearly independent of the integer rows
    and the extreme rays of the cone where those d are <= 0.

    One fraction-free Gauss-Jordan elimination of the rows, each carrying
    the unit vector of its place in the base: a reduced row is s e_k at
    its pivot column k, followed by c with c . B = s e_k for the base rows
    B.  Ray i solves B x = -e_i, so x_k = -c_i / s up to a positive factor.
    """
    base, red = [], []
    for i, a in enumerate(rows):
        v = list(a) + [0] * d
        v[d + len(base)] = 1
        for k, r in red:
            if v[k]:
                v = [p * r[k] - q * v[k] for p, q in zip(v, r)]
        k = next((k for k in range(d) if v[k]), None)
        if k is None:
            continue
        for e in red:
            if e[1][k]:
                e[1] = [p * v[k] - q * e[1][k] for p, q in zip(e[1], v)]
        red.append([k, v])
        base.append(i)
        if len(base) == d:
            break
    red.sort()
    L = lcm(*(v[k] for k, v in red))
    return base, [_primitive(tuple([-v[d + i] * (L // v[k]) for k, v in red]))
                  for i in range(d)]


def _vertices(rows):
    """Extreme rays of the pointed cone {x : <a, x> <= 0 for each row a}
    of integer rows of length d, as primitive integer vectors, and the
    bitmask of the row indices tight at each.

    The double description method (Motzkin, Raiffa, Thompson and Thrall,
    1953; Fukuda and Prodon, 1996).  It starts from the simplicial cone of
    the first d linearly independent rows (``_simplicial``), and adds one
    row a at a time.  Rays with <a, x> <= 0 stay, and each adjacent pair
    of a ray with <a, x> > 0 and one with <a, x> < 0 gives the ray of
    their 2-face with <a, x> = 0.  Two rays are adjacent when the rows
    tight at both number at least d - 2 and are not all tight at a third
    ray (the combinatorial test).
    """
    d = len(rows[0])
    base, rays = _simplicial(rows, d)
    start = sum(1 << i for i in base)
    masks = [start ^ 1 << i for i in base]
    for i, a in enumerate(rows):
        bit = 1 << i
        if start & bit:
            continue
        vals = [sum(map(mul, a, r)) for r in rays]
        keep = [j for j, v in enumerate(vals) if v <= 0]
        new_rays = [rays[j] for j in keep]
        new_masks = [masks[j] if vals[j] else masks[j] | bit for j in keep]
        neg = [j for j in keep if vals[j]]
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            rp, mp = rays[p], masks[p]
            for m in neg:
                common = mp & masks[m]
                if (common.bit_count() < d - 2 or len(
                        [1 for mk in masks if common & mk == common]) > 2):
                    continue
                vm = vals[m]
                new_rays.append(_primitive(tuple([
                    vp * x - vm * y for x, y in zip(rays[m], rp)])))
                new_masks.append(common | bit)
        rays, masks = new_rays, new_masks
    return rays, masks


def _upper_facets(rays, masks, first: int, n: int):
    """The upper facets of a hypograph in R^n x R whose cone (rows of
    ``_hypograph_rows``, the plane rows from index ``first`` on) has the
    extreme ``rays`` with the tight-row ``masks`` of ``_vertices``.

    A facet is a largest set of at least n + 1 vertices tight at one
    plane row (``_facet_sets``).  Each comes as (j, pts, masks): j the
    index of its plane among the plane rows, its vertices as homogeneous
    integer points (Y.., W), the value dropped, and their tight rows.
    """
    finite = [i for i, r in enumerate(rays) if r[-1]]
    pts = {i: _canon(rays[i][:n] + rays[i][-1:]) for i in finite}
    out = []
    for S, b in _facet_sets(finite, masks, -1 << first, n + 1).items():
        idx = [i for k, i in enumerate(finite) if S >> k & 1]
        out.append((b.bit_length() - 1 - first, tuple([pts[i] for i in idx]),
                    tuple([masks[i] for i in idx])))
    return out


def envelope_constrained(funcs, P: Polytope) -> MaxAffine:
    """Largest convex minorant of min(funcs) with gradients in P (any n).

    Computed on the conjugate side: the profile of the minorant is the
    pointwise min of the individual profiles restricted to P intersected
    with the conjugate domains, and the envelope's pieces are the vertices
    of its hypograph (``_envelope``).  Raises EnvelopeError ("empty
    domain") when that region is empty or, for n >= 2, of lower dimension.
    """
    funcs = list(funcs)
    if not funcs:
        raise PLError("envelope of an empty family")
    n = funcs[0].n
    if any(f.n != n for f in funcs):
        raise PLError("dimension mismatch in envelope")
    return _envelope([conjugate(f) for f in funcs], P)[0]


def _envelope(profiles, P: Polytope):
    """``(f, den, faces)``: f = ``envelope_constrained`` of the functions
    with these profiles, and the cells of its profile.

    The envelope's pieces are the vertices (y, z) of the hypograph of the
    min of the profiles' planes on P cut by their domains: the rays with
    w > 0 of the cone of ``_hypograph_rows`` (``_vertices``), each ray the
    piece (y / w, z / w).  Those are the pieces that pruning keeps, so f
    needs no prune.  The cells are the cone's upper facets
    (``_upper_facets``), each as (plane, pts, masks): its plane row
    (W.., B) over den, the lcm of the profiles' denominators, and its
    vertices with their tight rows, as ``_homogeneous_integral`` reads
    them.  An empty region raises EnvelopeError, and so does one of lower
    dimension for n >= 2, where a row of the cone is tight at every ray; a
    point of the line gives one piece and no cell.
    """
    n = profiles[0].n
    den = lcm(*(pr._den for pr in profiles))
    planes = list(dict.fromkeys(tuple([x * (den // pr._den) for x in r])
                                for pr in profiles for r in pr._planes))
    rows = _hypograph_rows(P._cuts, profiles, den, planes)
    rays, masks = _vertices(rows)
    pts = [r for r in rays if r[-1]]
    if not pts or n > 1 and reduce(and_, masks):
        raise EnvelopeError("empty domain")
    w = lcm(*(r[-1] for r in pts))
    faces = [(planes[j], fpts, fmasks) for j, fpts, fmasks
             in _upper_facets(rays, masks, len(rows) - len(planes), n)]
    return MaxAffine._from_ints(n, w, [
        tuple([x * (w // r[-1]) for x in r[:-1]]) for r in pts]), den, faces


# ---------------------------------------------------------------------------
# Marginal minimization over the leading variable (Fourier-Motzkin).
# ---------------------------------------------------------------------------


def marginal_min(F: MaxAffine, tau=0) -> MaxAffine:
    """inf over t in [0, 1] of (F(t, v) - t*tau), as a function of v.

    The epigraph of the objective is projected by eliminating t exactly;
    rows with positive and negative t-coefficients pair up, by the
    positive integer multipliers -rn_t and rp_t, and the rest pass
    through.  Redundant pieces are pruned afterwards by ``prune``; v has
    any number of coordinates.
    """
    tau = _rational(tau)
    n = F.n - 1
    if n < 0:
        raise PLError("marginal_min needs a leading variable")
    # rows: (a_t, a_v..., a_z, rhs) meaning a_t t + <a_v, v> + a_z z <= rhs,
    # each piece's row scaled by F's denominator times tau's
    den, tn, td = F._den, tau.numerator, tau.denominator
    rows = [(r[0] * td - tn * den,) + tuple(x * td for x in r[1:-1])
            + (-den * td, -r[-1] * td) for r in F._rows]
    zero_v = (0,) * n
    rows.append((-1,) + zero_v + (0, 0))  # t >= 0
    rows.append((1,) + zero_v + (0, 1))   # t <= 1
    pos = [r for r in rows if r[0] > 0]
    neg = [r for r in rows if r[0] < 0]
    projected = [r[1:] for r in rows if r[0] == 0]
    for rp in pos:
        for rn in neg:
            projected.append(tuple(a * -rn[0] + b * rp[0]
                                   for a, b in zip(rp[1:], rn[1:])))
    pieces = []
    for row in projected:
        a_v, a_z, rhs = row[:-2], row[-2], row[-1]
        if a_z == 0:
            if any(a_v) or rhs < 0:
                raise PLError("internal error: marginal is not finite")
            continue
        # a_z < 0 always (pieces contribute -den td each): the piece is
        # (a_v / -a_z, -rhs / -a_z), here in lowest terms
        g = gcd(a_z, rhs, *a_v)
        pieces.append((-a_z // g, tuple(x // g for x in a_v + (-rhs,))))
    if not pieces:
        raise PLError("internal error: empty marginal")
    scale = lcm(*(gamma for gamma, _ in pieces))
    return prune(MaxAffine._from_ints(n, scale, [
        tuple(x * (scale // gamma) for x in r) for gamma, r in pieces]))


# ---------------------------------------------------------------------------
# Exact integration of piecewise-linear data, by pulling triangulations.
# ---------------------------------------------------------------------------


def integrate_profile(prof: ConcaveProfile) -> Fraction:
    """Integral of the profile over its own (full-dimensional) domain.

    Summed on the profile's integers (``_integral``): a cell's plane
    over D takes the value V / D^2 at a vertex P / D.  When a cell is no
    simplex, a vertex is tight at bit i for each cell i it is a vertex of,
    where plane i takes the min, and at the domain's rows through it.
    """
    cells = prof._cells
    if not cells:
        raise PLError("profile has no full-dimensional cells to integrate")
    n, den = prof.n, prof._den
    tight = {}
    if any(len(poly) > n + 1 for poly in cells):
        for i, poly in enumerate(cells):
            for p in poly:
                tight[p] = tight.get(p, 0) | 1 << i
        for k, (N, R, _) in enumerate(_domain_hrep(prof), len(cells)):
            for p in tight:
                if sum(map(mul, N, p)) == R:
                    tight[p] |= 1 << k
    return _integral((
        (poly, tight and [tight[p] for p in poly],
         [sum(map(mul, plane, p)) + plane[-1] * den for p in poly])
        for poly, plane in zip(cells, prof._planes)), n, 1, den ** (n + 2))


def _h(values, p: int) -> int:
    """The complete homogeneous symmetric polynomial h_p of integers."""
    if p == 1:
        return sum(values)
    return sum(map(prod, combinations_with_replacement(values, p)))


def _integral(pieces, dim: int, p: int, scale: int) -> Fraction:
    """The integral of f^p over polytopes of dimension ``dim`` with f
    affine on each, given as ``(pts, masks, vals)``: integer vertices
    over a common denominator, their tight rows and the values of f at
    them, integers over the same, ``scale`` the denominator to the
    dim + p.  Each polytope is pulled into simplices (``_pulling``); over
    a simplex whose edges from its first vertex have determinant det, f^p
    integrates to |det| / dim! times h_p of its vertex values over
    C(p + dim, dim) (Baldoni et al., Math. Comp. 80, 2011)."""
    total = 0
    for pts, masks, vals in pieces:
        for spts, svals in (((pts, vals),) if len(pts) == dim + 1 else (
                ([pts[i] for i in s], [vals[i] for i in s])
                for s in _pulling(tuple(range(len(pts))), masks, dim))):
            p0 = spts[0]
            total += abs(_det([[a - b for a, b in zip(q, p0)]
                               for q in spts[1:]])) * _h(svals, p)
    return Fraction(total, factorial(dim) * comb(p + dim, dim) * scale)


def _pulling(face, masks, dim: int):
    """The simplices, as index tuples, of the pulling triangulation of a
    face of dimension ``dim`` with vertex indices ``face``: a face with
    dim + 1 vertices is one, and any other is pulled from its first
    vertex v, which joins each simplex of each facet that misses v
    (Lawrence, Math. Comp. 57, 1991)."""
    if len(face) == dim + 1:
        yield face
        return
    on = reduce(and_, [masks[i] for i in face])
    for F in _facet_sets(face, masks, ~on, dim):
        if not F & 1:
            for s in _pulling(tuple([i for k, i in enumerate(face)
                                     if F >> k & 1]), masks, dim - 1):
                yield face[:1] + s


def _facet_sets(face, masks, rows: int, dim: int):
    """The facets of a face of dimension ``dim`` cut out by the rows of
    the bitmask ``rows``, as {bitset of positions in ``face``: row bit}:
    the largest vertex sets tight at one such row, each set once."""
    sets = {}
    for k, i in enumerate(face):
        m = masks[i] & rows
        while m:
            b = m & -m
            sets[b] = sets.get(b, 0) | 1 << k
            m ^= b
    big = {S: b for b, S in sets.items() if S.bit_count() >= dim}
    return {S: b for S, b in big.items()
            if not any(S | T == T != S for T in big)}


# ---------------------------------------------------------------------------
# Overlays of two profiles, on integers.
# ---------------------------------------------------------------------------


class _Overlay:
    """The common refinement of the cells of two profiles q0 and q1.

    Held on integers over D, the lcm of the two profiles' denominators.
    ``cells`` are ``(pts, masks, r0, r1)``: the cell's vertices as
    homogeneous integer points (X.., W), their exact bitmasks of tight
    rows, and the integer rows (W.., B) over D of the planes of q0 and q1
    on it.  ``verts`` maps each vertex P to (V0, V1), q_i(P) = V_i / (D W),
    built on first read (level sums and integrals read none).  Profiles
    whose domains share no full-dimensional region have no cell.
    """

    def __init__(self, n: int, den: int, cells):
        self.n, self.den, self.cells = n, den, cells

    @cached_property
    def verts(self):
        verts = {}
        for pts, _, r0, r1 in self.cells:
            for P in pts:
                if P not in verts:
                    verts[P] = (sum(map(mul, r0, P)), sum(map(mul, r1, P)))
        return verts


def _overlay(q0: ConcaveProfile, q1: ConcaveProfile) -> _Overlay:
    """The common refinement of two profiles' cells, in every dimension.

    On the line one pass merges the two left-to-right lists of intervals
    on their integer ends over D; domains that only touch or are disjoint
    give no cell.  For n >= 2, q0 + q1 is
    the min of the summed planes P_i + P'_j on the common domain, whose
    cells are the common refinement, since kinks of concave functions
    cannot cancel.  So the upper facets (``_upper_facets``) of one
    ``_vertices`` call on that hypograph are the cells, with their
    vertices' tight rows, and q0 = P_i and q1 = P'_j on the facet of (i, j).
    """
    if q0.n != q1.n:
        raise PLError("profile dimension mismatch")
    n = q0.n
    d0, d1 = q0._den, q1._den
    den = lcm(d0, d1)
    s0, s1 = den // d0, den // d1
    rows0 = [tuple([x * s0 for x in r]) for r in q0._planes]
    rows1 = [tuple([x * s1 for x in r]) for r in q1._planes]
    cells = []
    if not (q0._cells and q1._cells):
        return _Overlay(n, den, cells)
    if n == 1:
        # the right ends of each profile's cells, left to right over D
        e0 = [poly[1][0] * s0 for poly in q0._cells]
        e1 = [poly[1][0] * s1 for poly in q1._cells]
        u = max(q0._cells[0][0][0] * s0, q1._cells[0][0][0] * s1)
        i, j = bisect_right(e0, u), bisect_right(e1, u)
        end, g = min(e0[-1], e1[-1]), gcd(u, den)
        Q = (u // g, den // g)
        while u < end:
            u = min(e0[i], e1[j])
            g = gcd(u, den)
            P, Q = Q, (u // g, den // g)
            cells.append(((P, Q), (0, 0), rows0[i], rows1[j]))
            i += e0[i] == u
            j += e1[j] == u
        return _Overlay(1, den, cells)
    pairs = {}
    for r0 in rows0:
        for r1 in rows1:
            pairs.setdefault(tuple(map(add, r0, r1)), (r0, r1))
    rows = _hypograph_rows((), (q0, q1), den, list(pairs))
    rays, masks = _vertices(rows)
    if reduce(and_, masks):
        # a row tight at every ray: the common domain is lower-dimensional
        return _Overlay(n, den, cells)
    plan = list(pairs.values())
    for j, pts, fmasks in _upper_facets(rays, masks, len(rows) - len(plan), n):
        cells.append((pts, fmasks, *plan[j]))
    return _Overlay(n, den, cells)


def overlay_vertices(p0: ConcaveProfile, p1: ConcaveProfile):
    """Vertices of the common refinement of two cell subdivisions."""
    return tuple(sorted(tuple(Fraction(x, P[-1]) for x in P[:-1])
                        for P in _overlay(p0, p1).verts))


def integrate_abs_difference(p0, p1, p: int = 1) -> Fraction:
    """Exact integral of |q0 - q1|^p over the common domain, p an int >= 1.

    Computed on the integers of the two profiles' overlay
    (``_overlay_integral``).
    """
    if type(p) is not int or p < 1:
        raise PLError(f"the power p must be an integer >= 1, got {p!r}")
    return _overlay_integral(_overlay(p0, p1), p)


def _overlay_integral(ov: _Overlay, p: int) -> Fraction:
    """Integral of |q0 - q1|^p over the cells of an overlay, p >= 1.

    A cell where d = r0 - r1 changes sign is split into its halves where
    d >= 0 and d <= 0: each keeps the cell's vertices on its side and the
    point f_P Q - f_Q P where d = 0 on the segment PQ of each pair of
    vertices of opposite signs (d is linear in the homogeneous point).
    That point is tight at the rows tight at both P and Q and at one more
    row, so its mask is exact, and ``_pulling`` reads the faces of each
    half off the masks whether or not PQ is an edge.  Each half, and each
    cell where d keeps its sign, goes to ``_homogeneous_integral`` with
    the form d or -d that is >= 0 on it, so the p-th power of the form is
    |q0 - q1|^p there.
    """
    pieces = []
    for pts, masks, r0, r1 in ov.cells:
        d = tuple(map(sub, r0, r1))
        f = [sum(map(mul, d, P)) for P in pts]
        if not any(f):
            continue
        if min(f) < 0 < max(f):
            bit = 1 << max(masks).bit_length()
            cut = [(_canon(tuple([fp * u - fq * v for u, v in zip(Q, P)])),
                    mp & mq | bit)
                   for (P, fp, mp), (Q, fq, mq)
                   in combinations(zip(pts, f, masks), 2) if fp * fq < 0]
            for sign, form in ((1, d), (-1, _neg(d))):
                pieces.append((form, *zip(*[
                    (P, m if x else m | bit)
                    for P, x, m in zip(pts, f, masks) if sign * x >= 0] + cut)))
        else:
            pieces.append((d if max(f) > 0 else _neg(d), pts, masks))
    return _homogeneous_integral(pieces, ov.n, p, ov.den)


def _homogeneous_integral(pieces, n: int, p: int, den: int) -> Fraction:
    """The integral of f^p over polytopes of dimension n, f affine on
    each, given as ``(d, pts, masks)``: f = <d, P> / (den W) at a
    homogeneous integer point P = (X.., W) standing for X / W, d an
    integer row (A.., B) over den, ``pts`` the polytope's vertices and
    ``masks`` their tight rows, as ``_pulling`` reads them.  f keeps its
    sign: over the lcm L of the points' W, the vertex X / L has the value
    (<A, X> + B L) / (den L), and ``_integral`` sums those numerators."""
    L = lcm(*(P[-1] for _, pts, _ in pieces for P in pts))
    out = []
    for d, pts, masks in pieces:
        X = [tuple([x * (L // P[-1]) for x in P[:-1]]) for P in pts]
        out.append((X, masks, [sum(map(mul, d, x)) + d[-1] * L for x in X]))
    return _integral(out, n, p, L ** n * (den * L) ** p)


def _overlay_line_sum(ov: _Overlay, m: int, k: int, term) -> int:
    """The sum over a = 0, ..., k m of term(D k (q0 - q1)(a / k)), D =
    ``ov.den``, for the overlay of two profiles on [0, m] of the line.

    The cells run left to right from 0, end to end.  On a cell whose right
    end is X / W, D (q0 - q1) is W' y + B, and a runs on from the previous
    cell's range to below k X / W, or to k m on the last cell (X = m W),
    split at the floor of the zero crossing so that W' a + k B keeps one
    sign on each part; each part sums in closed form.
    """
    total, lo = 0, 0
    for (_, (x1, w1)), _, (a0, b0), (a1, b1) in ov.cells:
        w, c = a0 - a1, k * (b0 - b1)
        hi = -(-k * x1 // w1) - (x1 < m * w1)
        x = min(max(-c // w, lo - 1), hi) if w else hi
        for i, j in ((lo, x), (x + 1, hi)):
            total += term(w * ((i + j) * (j - i + 1) // 2) + c * (j - i + 1))
        lo = hi + 1
    return total


def max_abs_difference(p0: ConcaveProfile, p1: ConcaveProfile) -> Fraction:
    """Exact sup of |q0 - q1| over the common domain (PL, so at vertices)."""
    return _overlay_sup(_overlay(p0, p1))


def _overlay_sup(ov: _Overlay) -> Fraction:
    """sup |q0 - q1| over an overlay: the largest |V0 - V1| / (D W) at its
    vertices, compared on integers."""
    best, w = 0, 1
    for P, (v0, v1) in ov.verts.items():
        x = abs(v0 - v1)
        if x * w > best * P[-1]:
            best, w = x, P[-1]
    return Fraction(best, ov.den * w)


def _overlay_taus(ov: _Overlay):
    """The distinct values of q1 - q0 at an overlay's vertices, sorted:
    (V1 - V0) / (D W) at each vertex P."""
    return tuple(sorted({Fraction(v1 - v0, ov.den * P[-1])
                         for P, (v0, v1) in ov.verts.items()}))


def _interpolated(ov: _Overlay, t: Fraction) -> MaxAffine:
    """The max-affine function whose profile is (1 - t) q0 + t q1 on the
    overlay's domain, for 0 <= t <= 1, unpruned.

    That mix is concave and affine on each cell, so its hypograph vertices
    are overlay vertices: each vertex P = (X.., W) gives the piece
    <X / W, v> + q_t(P), whose max is the conjugate of the mix.  For
    t = S / T, q_t(P) = ((T - S) V0 + S V1) / (D T W), and the rows are
    put over D T L, L the lcm of the vertices' W.
    """
    S, T = t.numerator, t.denominator
    dt = ov.den * T
    L = lcm(*(P[-1] for P in ov.verts))
    rows = []
    for P, (v0, v1) in ov.verts.items():
        s = L // P[-1]
        rows.append(tuple([x * s * dt for x in P[:-1]])
                    + (((T - S) * v0 + S * v1) * s,))
    return MaxAffine._from_ints(ov.n, dt * L, rows)
