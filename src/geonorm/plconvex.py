"""Exact piecewise-linear convex analysis on R^n.

Convex functions are max-affine: ``f(v) = max_i (<g_i, v> + c_i)`` with
rational data.  The module provides Legendre conjugation (the concave
profile ``q = -f*`` on the convex hull of the gradients, as the upper
concave envelope of the points ``(g_i, c_i)``), exact comparison with
witness points, run on the conjugate side with no linear program (also
against a convex combination of two functions, without forming it),
constrained convex envelopes, marginal minimization over a leading variable
by Fourier-Motzkin elimination of the epigraph, and exact integration of
piecewise-linear data over rational polytopes.

One hull routine, ``_facets``, serves every n: it gift-wraps the facets
of integer points across ridges, each facet's ridges coming from its own
points one dimension down, down to Andrew's monotone chain in the plane
and the min and the max on the line.  Conjugation takes the upper facets
of the lifted points, for every n, domain rows take every facet of the
domain points, and min profiles take their affine rank from it.  So
conjugation, pruning, comparison, ``==`` and marginal minima run for every
n.  Code that reads cells as intervals or polygons (integrals, overlays,
min profiles and the Minkowski slopes of ``mix_witness``) is implemented
for n <= 2, where every computation of the package's verification suites
lives (the projective line or plane), and refuses larger n.  Functions
that need a profile the caller already holds have private variants that
take it (``_le_witness``, ``_compare``, ``_mix_witness``, ``_envelope``).

The kernels run on integers.  A ``MaxAffine`` is one positive denominator
D and integer rows ``(G_1, ..., G_n, C)``, the piece (G/D, C/D), with D
the least common denominator of the pieces (so D and the rows have gcd 1)
and the rows deduplicated and sorted on their integer gradients.  A
``ConcaveProfile`` keeps one such denominator for all of its hypograph
vertices, cell polygons and planes.  Hulls, conjugates, comparisons and
Fourier-Motzkin elimination read those rows directly; polygons are
clipped on homogeneous integer points ``(X, Y, W)``, W > 0 and gcd 1,
standing for (X/W, Y/W).  The public ``pieces``, ``planes``, ``vertices``
and ``cells`` are ``Fraction`` views built each time they are read, never
stored.  A profile is read at the lattice points of a dilation k (the
sup-norm weights k q(a/k) of a toric metric) straight from its integer
planes, by ``ConcaveProfile.lattice_values``.  The overlay of two profiles
(``_overlay``) keeps each common cell as homogeneous integer points with
the two profiles' integer plane rows over one denominator; the integral
and the sup of |q0 - q1| and the pieces of min(q0, q1 - tau) are read
off it, and build one ``Fraction`` each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, product
from math import comb, gcd, lcm, prod
from operator import and_, mul, neg, sub

from .field import format_fraction, parse_fraction


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
            n = obj["n"] if "n" in obj else len(obj["pieces"][0]["g"])
            pieces = [
                (tuple(parse_fraction(x) for x in p["g"]), parse_fraction(p["c"]))
                for p in obj["pieces"]
            ]
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


def _walk(f: MaxAffine, g, pden, planes, hden, hrep):
    """First point where f > g, or None, given the profile q of g.

    q is the min of the integer ``planes`` (rows (W, B) over ``pden``) on
    the polytope ``hrep`` (``_hull_rows`` of points over ``hden``);
    ``g`` is only evaluated.  A piece <a, v> + c lies below g iff
    c <= q(a), with q taken as -inf off its domain (Rockafellar, Convex
    Analysis, section 12).
    """
    fden = f._den
    for r in f._rows:
        A, C = r[:-1], r[-1]
        # <N / hden^e, A / fden> > R / hden^(e+1), times hden^(e+1) fden
        out = next((h for h in hrep
                    if sum(map(mul, h[0], A)) * hden > h[1] * fden), None)
        if out is not None:
            # <grad, s nu> <= s b on g's domain: f outgrows g along nu
            N, R, e = out
            nu = tuple(Fraction(x, hden ** e) for x in N)
            b = Fraction(R, hden ** (e + 1))
            a = tuple(Fraction(x, fden) for x in A)
            c = Fraction(C, fden)
            top = g(tuple(Fraction(0) for _ in A))
            s = max(Fraction(1), (top - c) / (_dot(nu, a) - b) + 1)
            return tuple(s * x for x in nu)
        # q(a) = min over planes of (<W, A> + B fden) / (pden fden)
        vals = [sum(map(mul, p, A)) + p[-1] * fden for p in planes]
        qa = min(vals)
        if C * pden > qa:
            # g(-w) = beta for a plane (w, beta) of q active at a
            w = planes[vals.index(qa)]
            return tuple(Fraction(-x, pden) for x in w[:-1])
    return None


def le_witness(f: MaxAffine, g: MaxAffine):
    """None if f <= g everywhere, else a point where f > g (any n)."""
    return _le_witness(f, g, conjugate(g))


def _le_witness(f: MaxAffine, g: MaxAffine, q: ConcaveProfile):
    """``le_witness(f, g)`` given q = conjugate(g)."""
    return _walk(f, g, q._den, q._planes, q._den, _domain_hrep(q))


def mix_witness(f: MaxAffine, g0: MaxAffine, g1: MaxAffine, lam):
    """``le_witness(f, h)`` for h = lam*g0 + (1-lam)*g1, 0 <= lam <= 1.

    h has up to m0*m1 pieces and its profile is never built.  The
    hypograph of q_h is lam*hyp(q0) + (1-lam)*hyp(q1), and each facet of a
    Minkowski sum has the slope of a facet of a summand or is spanned by
    an edge of each.  Every slope w gives a plane <w, y> + h(-w) >= q_h
    that touches it (Fenchel-Young), so q_h is the min of those planes on
    the sum of the two domains.
    """
    return _mix_witness(f, g0, g1, lam, conjugate(g0), conjugate(g1))


def _mix_witness(f, g0, g1, lam, q0: ConcaveProfile, q1: ConcaveProfile):
    """``mix_witness(f, g0, g1, lam)`` given q0, q1 = conjugate(g0, g1)."""
    _require_plane(f.n, "mix_witness")
    lam = Fraction(lam)
    slopes = [w for w, _ in q0.planes + q1.planes]
    if f.n == 2:
        for d0, d1 in product(_edge_directions(q0), _edge_directions(q1)):
            uz = d0[0] * d1[1] - d0[1] * d1[0]
            if uz:
                slopes.append(((d0[1] * d1[2] - d0[2] * d1[1]) / -uz,
                               (d0[2] * d1[0] - d0[0] * d1[2]) / -uz))

    def h(v):
        return lam * g0(v) + (1 - lam) * g1(v)

    pden, planes = _int_rows([w + (h(tuple(-x for x in w)),)
                              for w in dict.fromkeys(slopes)])
    hden, pts = _int_rows({
        tuple(lam * x + (1 - lam) * y for x, y in zip(p, r))
        for p in q0.domain_points() for r in q1.domain_points()})
    return _walk(f, h, pden, planes, hden, _hull_rows(sorted(pts)))


def _edge_directions(q: ConcaveProfile):
    """Edge directions (dy, dz) of the hypograph of q (n = 2).

    Each is scaled to a leading 1, so parallel edges appear once.
    """
    cells = q.cells
    if cells:
        dirs = [(b[0] - a[0], b[1] - a[1], cell.affine(b) - cell.affine(a))
                for cell in cells
                for a, b in zip(cell.vertices, cell.vertices[1:]
                                + cell.vertices[:1])]
    else:
        vertices = q.vertices
        dirs = [(b[0] - a[0], b[1] - a[1], zb - za)
                for (a, za), (b, zb) in zip(vertices, vertices[1:])]
    out = set()
    for d in dirs:
        lead = next(x for x in d if x)
        out.add(tuple(x / lead for x in d))
    return sorted(out)


def _require_plane(n: int, what: str):
    """Refuse n > 2 in code that reads cells as intervals or polygons."""
    if n > 2:
        raise PLError(f"{what} implemented for n <= 2")


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
# Polytopes and polygon utilities (exact, dimension 1 and 2).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polytope:
    n: int
    hrep: tuple        # ((a, b), ...) meaning <a, y> <= b
    vertices: tuple    # tuple of points


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
    if p[-1] < 0:
        p = tuple(-x for x in p)
    g = gcd(*p)
    return p if g == 1 else tuple(x // g for x in p)


def _hom_point(p):
    """The homogeneous integer point of a rational point."""
    w, xs = _int_rows([tuple(_rational(x) for x in p)])
    return xs[0] + (w,)


def _hom_halfplane(a, b):
    """<a, y> <= b with rational a, b as the integer row (a_1.., b)."""
    return _int_rows([tuple(_rational(x) for x in a) + (_rational(b),)])[1][0]


def _common(points):
    """(L, integer points over L) of homogeneous points, L the lcm of the W."""
    den = lcm(*(p[-1] for p in points))
    return den, [tuple(x * (den // p[-1]) for x in p[:-1]) for p in points]


def _shoelace2(poly):
    """Twice the signed area of a polygon of points with exact coordinates."""
    s = 0
    for i in range(len(poly)):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % len(poly)]
        s += x0 * y1 - x1 * y0
    return s


def _orient_ccw(poly):
    """A polygon of homogeneous points, counterclockwise."""
    if _shoelace2(_common(poly)[1]) < 0:
        return tuple(reversed(poly))
    return tuple(poly)


def clip_polygon(poly, a, b):
    """Intersect a convex polygon with the halfplane <a, y> <= b.

    ``poly`` holds homogeneous integer points (X, Y, W); a and b are
    integers.  The sign of <a, (X, Y)> - b W is that of <a, y> - b.
    """
    if not poly:
        return ()
    a0, a1 = a
    f = [a0 * x + a1 * y - b * w for x, y, w in poly]
    out = []
    k = len(poly)
    for i in range(k):
        j = (i + 1) % k
        fp, fq = f[i], f[j]
        if fp <= 0:
            out.append(poly[i])
        if (fp < 0 < fq) or (fq < 0 < fp):
            # (fp q - fq p) / (fp - fq), homogeneously
            out.append(_canon(tuple(fp * u - fq * v
                                    for u, v in zip(poly[j], poly[i]))))
    # dedupe consecutive duplicates
    dedup = []
    for pt in out:
        if not dedup or pt != dedup[-1]:
            dedup.append(pt)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return tuple(dedup)


def polygon_hrep(poly):
    """Outward halfplane description of a CCW convex polygon."""
    out = []
    k = len(poly)
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        d = (q[0] - p[0], q[1] - p[1])
        normal = (d[1], -d[0])
        out.append((normal, normal[0] * p[0] + normal[1] * p[1]))
    return out


def _clip_region(poly, halfplanes):
    """Clip homogeneous points by integer rows (a_1, a_2, b): <a, y> <= b."""
    for a0, a1, b in halfplanes:
        poly = clip_polygon(poly, (a0, a1), b)
        if len(poly) < 3 or _shoelace2(_common(poly)[1]) == 0:
            return ()
    return _orient_ccw(poly)


def _clip_interval(lo, hi, a, b):
    """Intersect [lo, hi] with a*y <= b; None if empty.

    lo, hi are homogeneous (X, W) and a, b integers.
    """
    if a:
        y = _canon((b, a))
        if a > 0 and y[0] * hi[1] < hi[0] * y[1]:
            hi = y
        elif a < 0 and y[0] * lo[1] > lo[0] * y[1]:
            lo = y
    elif b < 0:
        return None
    if lo[0] * hi[1] > hi[0] * lo[1]:
        return None
    return lo, hi


# ---------------------------------------------------------------------------
# Convex hulls of integer points, gift-wrapped in every dimension.
# ---------------------------------------------------------------------------


def _independent(pts, idxs, rank):
    """The first ``rank + 1`` of ``idxs``, in order, whose points are
    affinely independent (fewer if they span less), and the pivot
    coordinates of the span of the points taken.

    A fraction-free echelon of the differences from the first point, its
    rows kept sorted by pivot.  The pivots are the leading columns of the
    span's reduced echelon form, so they do not depend on the order.
    """
    idxs = iter(idxs)
    first = next(idxs)
    p0, kept, rows = pts[first], [first], []
    for i in idxs:
        if len(rows) == rank:
            break
        v = list(map(sub, pts[i], p0))
        for k, r in rows:
            if v[k]:
                a, b = r[k], v[k]
                v = [x * a - y * b for x, y in zip(v, r)]
        for k, x in enumerate(v):
            if x:
                g = gcd(*v)
                rows.append((k, [x // g for x in v]))
                rows.sort()
                kept.append(i)
                break
    return kept, [k for k, _ in rows]


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


def _facets(pts, sign=0):
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
    them.

    Gives an iterable of ``(N, c, e, on, verts)``: <N, p> <= c for every
    point, with equality exactly at the indices ``on`` (increasing), and
    ``verts`` indexes the facet's vertices in the order its ridges list
    them (a polygon counterclockwise from its smallest vertex).  For points
    Y = D y the row stands for <N / D^e, y> <= c / D^(e + 1): above
    d = 2, N is primitive and e = 0; at d = 2, N is the edge turned
    clockwise and e = 1; at d = 1, N = +-1 and e = 0; ``_flat_facets``
    gives its cofactors with their degrees.
    """
    d = len(pts[0])
    return _ends(pts, sign) if d == 1 else (
        _chain(pts, sign) if d == 2 else _wrap(pts, sign))


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


def _wrap(pts, sign):
    """``_facets`` above d = 2: the gift-wrap itself.

    With ``sign`` +-1, d points make one facet.  More points have their
    domain, the hull of the heads, wrapped first: a ridge whose points all
    lie on one facet of it bounds the upper (lower) hull and is not
    crossed, and the first facet rises from the vertical hyperplane over
    the domain's first facet.
    """
    if sign and len(pts) == len(pts[0]):
        # the heads of d points span R^(d-1): one facet holds them all
        p0, on = pts[0], tuple(range(len(pts)))
        N = _form([tuple(map(sub, p, p0)) for p in pts[1:]])
        g = gcd(*N) if sign * N[-1] > 0 else -gcd(*N)
        N = tuple([x // g for x in N])
        yield N, sum(map(mul, N, p0)), 0, on, _facet(
            pts, N, on, lambda ridge: True)[0]
        return
    walls = None
    if sign:
        dom = list(_facets([p[:-1] for p in pts], 0))
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
            yield from _flat_facets(pts)
            return
    done, seen, todo = {entry}, {on}, [(normal, c, on)]

    def crossed(ridge):
        return ridge in done or walls and reduce(
            and_, map(walls.__getitem__, ridge))

    while todo:
        normal, c, on = todo.pop()
        verts, ridges = _facet(pts, normal, on, crossed)
        yield normal, c, 0, on, verts
        for rho, cr, ridge in ridges:
            done.add(ridge)
            got = _cross(pts, normal, c, rho, cr)
            if got[2] not in seen:
                seen.add(got[2])
                todo.append(got)


def _half(pts, seq):
    """Andrew's monotone chain through points of the plane taken in the
    order ``seq`` of indices: the lower chain for increasing points, the
    upper one for decreasing, collinear points dropped."""
    chain = []
    for i in seq:
        x, y = pts[i]
        while len(chain) > 1:
            (ox, oy), (ax, ay) = pts[chain[-2]], pts[chain[-1]]
            if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                break
            chain.pop()
        chain.append(i)
    return chain


def _chain(pts, sign):
    """``_facets`` at d = 2: the edges of Andrew's monotone chain.

    The lower chain runs from the smallest point to the largest and the
    upper chain back, so all edges come counterclockwise from the
    smallest point; sign -1 (+1) takes the lower (upper) chain alone, less
    its vertical edges.  Each edge lists its two vertices in increasing
    index order, the order its ridges come one dimension down.  N is the
    edge from a to b turned clockwise, outward for a counterclockwise
    edge.
    """
    order = sorted(range(len(pts)), key=pts.__getitem__)
    edges = []
    for seq in ((order, order[::-1]) if not sign
                else (order[::-1],) if sign > 0 else (order,)):
        chain = _half(pts, seq)
        edges += zip(chain, chain[1:])
    if not sign and len(edges) < 3:
        yield from _flat_facets(pts)
        return
    for a, b in edges:
        (ax, ay), (bx, by) = pts[a], pts[b]
        nx, ny = by - ay, ax - bx
        if sign and sign * ny <= 0:
            continue
        c = nx * ax + ny * ay
        yield ((nx, ny), c, 1,
               tuple([i for i, (x, y) in enumerate(pts)
                      if nx * x + ny * y == c]),
               (a, b) if a < b else (b, a))


def _first(pts, sign):
    """(normal, c, on, ridge) of the first facet ``_facets`` yields.

    At d <= 2 the first that the min and max or the chain give.  Above,
    V is the vertical supporting hyperplane over the first facet of the
    heads (a lower one in the upper and lower modes, where the heads span
    R^(d-1)), turned into the first facet by ``_rise``.  When V holds
    every point it is returned with ``ridge`` None: the points are flat.
    """
    if len(pts[0]) < 3:
        normal, c, _, on, _ = next(iter(_facets(pts, sign)))
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
        inner = list(_facets(proj, 0))
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
    goes through the point with the largest B / -A.
    """
    ab = [(c - sum(map(mul, normal, p)), sum(map(mul, rho, p)) - cr)
          for p in pts]
    a_best = b_best = None
    for a, b in ab:
        if a and (a_best is None or b * a_best > b_best * a):
            a_best, b_best = a, b
    N = [b_best * x + a_best * y for x, y in zip(normal, rho)]
    g = gcd(*N)
    return (tuple(x // g for x in N), (b_best * c + a_best * cr) // g,
            tuple([i for i, (a, b) in enumerate(ab)
                   if a * b_best == b * a_best]))


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
    inner = list(_facets([tuple(p[k] for k in piv) for p in pts], 0)
                 if r else ())
    verts = tuple(dict.fromkeys(i for *_, vs in inner for i in vs)) or (0,)
    p0, frame = _frame(pts, verts, r)
    units = [tuple(int(i == k) for i in range(d)) for k in range(d)
             if k not in piv]
    normals = [tuple((-1) ** (d - 1 - pos) * x
                     for x in _form(units[:pos] + units[pos + 1:] + frame))
               for pos in range(len(units))]
    everything = tuple(range(len(pts)))
    for C in normals:
        c = sum(map(mul, C, p0))
        yield C, c, r, everything, verts
        yield _neg(C), -c, r, everything, verts
    for *_, on, fverts in inner:
        q0, fframe = _frame(pts, fverts, r - 1)
        N = _form(normals + fframe)
        off = next(p for i, p in enumerate(pts) if i not in on)
        c = sum(map(mul, N, q0))
        if sum(map(mul, N, off)) > c:
            N, c = _neg(N), -c
        yield N, c, (d - r) * r + r - 1, on, fverts


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
    them.
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
    with their values.  Integrals and overlays read cells as intervals or
    polygons and need n <= 2.

    Stored over one denominator ``_den``: ``_verts`` rows (Y.., Z) of the
    hypograph vertices, ``_planes`` rows (W.., B) and ``_cells`` polygons
    of integer points, cell i lying on plane i.  ``vertices``, ``cells``
    and ``planes`` are ``Fraction`` views, rebuilt on every read.
    """

    __slots__ = ("n", "_den", "_verts", "_cells", "_planes")

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
        self._planes = tuple(planes)

    def _key(self):
        return (self.n, self._den, self._verts, self._cells, self._planes)

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
    Redundant pieces land strictly below the envelope and disappear.  The
    lifted rows are wrapped by ``_facets`` (upper facets only), after
    gradients spanning an affine subspace of rank r < n are projected
    onto its r pivot coordinates, where each plane then has its slopes;
    such a profile has no cells.  Cells and planes come in the order of
    the lexicographically smallest affinely independent (r + 1)-tuple of
    indices of the pieces on each facet, so ``planes`` (whose first active
    entry is the witness ``le_witness`` returns) does not depend on how
    the hull is searched.
    """
    n, den, rows = f.n, f._den, f._rows
    _, piv = _independent([g[:-1] for g in rows], range(len(rows)), n)
    return _conjugate_wrap(n, den, rows, piv)


def _conjugate_wrap(n, den, rows, piv):
    """``conjugate`` of the integer rows over den from ``_facets``, the
    gradients projected onto their pivot coordinates ``piv``."""
    r = len(piv)
    pts = rows if r == n else [tuple(g[k] for k in piv) + (g[-1],)
                               for g in rows]
    facets = list(_facets(pts, 1))
    if len(facets) > 1:
        facets.sort(key=lambda facet: facet[3] if len(facet[3]) == r + 1
                    else tuple(_independent(pts, facet[3], r)[0]))
    # N . (G, C) = c on a facet: q = <-N_G / N_C, y> + c / (N_C den)
    scale = lcm(*[facet[0][-1] for facet in facets])
    planes = []
    for N, c, _, _, _ in facets:
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
    on = sorted({i for facet in facets for i in facet[4]})
    # den * scale, the vertex rows times scale and the planes in lowest
    # terms (the cells' points are vertices)
    g = gcd(gcd(den, *_flat(map(rows.__getitem__, on))) * scale,
            *_flat(planes))
    verts = {i: tuple([x * scale // g for x in rows[i]]) for i in on}
    cells = () if r < n else [tuple([verts[i][:-1] for i in facet[4]])
                              for facet in facets]
    return ConcaveProfile._lowest(
        n, den * scale // g, list(verts.values()), cells,
        [tuple([x // g for x in p]) for p in planes])


# ---------------------------------------------------------------------------
# min-profiles and constrained envelopes.
# ---------------------------------------------------------------------------


def domain_hrep(profile: ConcaveProfile):
    """Halfplane description of a profile domain (hull of its points)."""
    den = profile._den
    return [(tuple(Fraction(x, den ** e) for x in normal),
             Fraction(rhs, den ** (e + 1)))
            for normal, rhs, e in _domain_hrep(profile)]


def _domain_hrep(profile: ConcaveProfile):
    """``_hull_rows`` of a profile's domain points, integers over its den."""
    return _hull_rows([r[:-1] for r in profile._verts])


def _hull_rows(pts):
    """Halfspace description of the convex hull of distinct integer points.

    The points are Y = D y for a positive D.  Each row (N, R, e) stands
    for <N, Y> <= R, that is for the rational halfspace <nu, y> <= b with
    nu = N / D^e and b = R / D^(e + 1): the facets of ``_facets``, a
    lower-dimensional hull led by its equality pairs.
    """
    return [facet[:3] for facet in _facets(pts, 0)]


def _profile_on_points(n, den, verts, cells, planes):
    """A profile from homogeneous vertices, over one common denominator.

    ``verts`` are (point (X.., W), V) with value V / (den W), ``cells``
    polygons of such points and ``planes`` integer rows over den; the
    vertices come out sorted by point.
    """
    scale = lcm(*(p[-1] for p, _ in verts))

    def lift(p):
        s = den * (scale // p[-1])
        return tuple(x * s for x in p[:-1])

    return ConcaveProfile(
        n, den * scale,
        sorted(lift(p) + (v * (scale // p[-1]),) for p, v in verts),
        [tuple(lift(p) for p in poly) for poly in cells],
        [tuple(x * scale for x in r) for r in planes])


def _min_at(planes, p):
    """den W q(p) at a homogeneous point p (X.., W), q the min of the
    planes, integer rows over den."""
    return min(sum(map(mul, r, p)) for r in planes)


def _degenerate_profile_2d(den, pts, planes) -> ConcaveProfile:
    """Min-of-planes profile on a segment or point domain: no cells.

    ``pts`` are distinct collinear integer points, sorted, so the first
    and last are the segment endpoints; they and the ``planes`` rows are
    over den.  Hypograph vertices sit at the endpoints and at plane
    crossings; that is all ``to_max_affine`` needs.
    """
    if len(pts) == 1:
        p = pts[0] + (den,)
        v = _min_at(planes, p)
        return ConcaveProfile(2, den * den, ((p[0] * den, p[1] * den, v),),
                              (), ((0, 0, v),))
    p, r = pts[0], pts[-1]
    d = (r[0] - p[0], r[1] - p[1])
    # plane j along p + s d, times den^2: A_j s + B_j
    lines = [(g0 * d[0] + g1 * d[1], g0 * p[0] + g1 * p[1] + c * den)
             for g0, g1, c in planes]
    svals = {(0, 1), (1, 1)}
    for (a0, b0), (a1, b1) in combinations(lines, 2):
        if a0 != a1:
            s = _canon((b1 - b0, a0 - a1))
            if 0 < s[0] < s[1]:
                svals.add(s)
    verts = []
    for sn, sd in svals:
        y = (p[0] * sd + sn * d[0], p[1] * sd + sn * d[1], den * sd)
        verts.append((y, _min_at(planes, y)))
    return _profile_on_points(2, den, verts, (), planes)


def min_profile(planes, domain_vertices, extra_hrep, n) -> ConcaveProfile:
    """Profile of min over affine planes restricted to a polytope.

    ``domain_vertices`` describe the starting polytope (interval endpoints
    for n = 1, CCW polygon for n = 2); ``extra_hrep`` are additional
    halfplanes cutting it down.  Returns the linearity cells of the
    pointwise minimum.
    """
    den, rows = _int_rows([tuple(_rational(x) for x in g) + (_rational(c),)
                           for g, c in planes])
    return _min_profile(n, den, rows,
                        [_hom_point(p) for p in domain_vertices],
                        [_hom_halfplane(a, b) for a, b in extra_hrep])


def _min_profile(n, den, planes, domain, cuts) -> ConcaveProfile:
    """``min_profile`` on integers.

    ``planes`` are integer rows over den, ``domain`` homogeneous integer
    points and ``cuts`` integer rows (a.., b) meaning <a, y> <= b.
    """
    planes = list(dict.fromkeys(planes))
    if n == 1:
        scale, xs = _common(domain)
        lo, hi = _canon((min(xs)[0], scale)), _canon((max(xs)[0], scale))
        for a, b in cuts:
            got = _clip_interval(lo, hi, a, b)
            if got is None:
                raise EnvelopeError("empty domain")
            lo, hi = got
        if lo == hi:
            # single admissible slope; the profile is one hypograph point
            v = _min_at(planes, lo)
            return ConcaveProfile(1, den * lo[1], ((lo[0] * den, v),), (),
                                  ((0, v),))
        cells = []
        vertices = {}
        active = []
        for idx, (g, c) in enumerate(planes):
            clo, chi = lo, hi
            for jdx, (g2, c2) in enumerate(planes):
                if jdx == idx:
                    continue
                got = _clip_interval(clo, chi, g - g2, c2 - c)
                if got is None:
                    break
                clo, chi = got
            else:
                if clo != chi:
                    cells.append((clo, chi))
                    active.append((g, c))
                    for x in (clo, chi):
                        vertices[x] = _min_at(planes, x)
        if not cells:
            raise EnvelopeError("empty domain")
        return _profile_on_points(1, den, vertices.items(), cells, active)
    if n == 2:
        base = _clip_region(tuple(domain), cuts)
        if not base:
            raise EnvelopeError("empty domain")
        scale, distinct = _common(set(base))
        distinct.sort()
        if len(_independent(distinct, range(len(distinct)), 2)[1]) < 2:
            return _degenerate_profile_2d(
                den * scale, [(x * den, y * den) for x, y in distinct],
                [tuple(x * scale for x in r) for r in planes])
        cells = []
        vertices = {}
        active = []
        for idx, (g0, g1, c) in enumerate(planes):
            poly = _clip_region(base, [
                (g0 - h0, g1 - h1, c2 - c)
                for jdx, (h0, h1, c2) in enumerate(planes) if jdx != idx])
            if not poly:
                continue
            cells.append(poly)
            active.append((g0, g1, c))
            for p in poly:
                vertices[p] = _min_at(planes, p)
        if not cells:
            raise EnvelopeError("empty domain")
        return _profile_on_points(2, den, vertices.items(), cells, active)
    raise PLError("min profiles implemented for n <= 2")


def envelope_constrained(funcs, P: Polytope) -> MaxAffine:
    """Largest convex minorant of min(funcs) with gradients in P.

    Computed on the conjugate side: the profile of the minorant is the
    pointwise min of the individual profiles restricted to P intersected
    with the conjugate domains; conjugating back gives the envelope.
    Raises EnvelopeError when no finite minorant exists (empty domain).
    """
    funcs = list(funcs)
    if not funcs:
        raise PLError("envelope of an empty family")
    n = funcs[0].n
    if any(f.n != n for f in funcs):
        raise PLError("dimension mismatch in envelope")
    return _envelope([conjugate(f) for f in funcs], P)


def _envelope(profiles, P: Polytope) -> MaxAffine:
    """``envelope_constrained`` of the functions with these profiles."""
    den = lcm(*(pr._den for pr in profiles))
    planes = [tuple(x * (den // pr._den) for x in r)
              for pr in profiles for r in pr._planes]
    cuts = [_hom_halfplane(a, b) for a, b in P.hrep]
    for pr in profiles:
        # a domain holding every vertex of P contains P: its rows cut nothing
        points = {r[:-1] for r in pr._verts}
        if all(tuple(x * pr._den for x in v) in points for v in P.vertices):
            continue
        # <N, D y> <= R on the domain points y of a profile over D
        cuts.extend(tuple(x * pr._den for x in normal) + (rhs,)
                    for normal, rhs, _ in _domain_hrep(pr))
    return _min_profile(profiles[0].n, den, planes,
                        [_hom_point(p) for p in P.vertices],
                        cuts).to_max_affine()


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
# Exact integration of piecewise-linear data.
# ---------------------------------------------------------------------------


def integrate_profile(prof: ConcaveProfile) -> Fraction:
    """Integral of the profile over its own (full-dimensional) domain.

    Computed on the profile's integers: with every point and plane over
    D, a cell's plane takes the value V / D^2 at a vertex P / D, so an
    interval [P0, P1] contributes (P1 - P0) (V0 + V1) / (2 D^3) and a fan
    triangle of doubled area A / D^2 contributes A (V0 + V1 + V2) / (6 D^4).
    """
    _require_plane(prof.n, "integrate_profile")
    if not prof._cells:
        raise PLError("profile has no full-dimensional cells to integrate")
    den = prof._den
    total = 0
    for poly, plane in zip(prof._cells, prof._planes):
        v = [sum(map(mul, plane, p)) + plane[-1] * den for p in poly]
        total += _fan_sum(poly, v, 1)
    return Fraction(total, 2 * den ** 3 if prof.n == 1 else 6 * den ** 4)


def _h(values, p: int) -> int:
    """The complete homogeneous symmetric polynomial h_p of integers."""
    if p == 1:
        return sum(values)
    return sum(map(prod, combinations_with_replacement(values, p)))


def _fan_sum(pts, v, p: int) -> int:
    """(P1 - P0) h_p(V0, V1) for an interval [P0, P1], and the sum of
    A h_p(V0, Vi, Vi+1) over the fan triangles of a polygon from its first
    vertex, A the doubled area: integer points with integer values v."""
    if len(pts[0]) == 1:
        return (pts[-1][0] - pts[0][0]) * _h(v, p)
    total = 0
    (x0, y0) = pts[0]
    for i in range(1, len(pts) - 1):
        (x1, y1), (x2, y2) = pts[i], pts[i + 1]
        area2 = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        total += area2 * _h((v[0], v[i], v[i + 1]), p)
    return total


# ---------------------------------------------------------------------------
# Overlays of two profiles (n <= 2), on integers.
# ---------------------------------------------------------------------------


class _Overlay:
    """The common refinement of the cells of two profiles q0 and q1.

    Held on integers over D, the lcm of the two profiles' denominators.
    ``cells`` are ``(poly, r0, r1)``: ``poly`` holds homogeneous integer
    points (an interval (lo, hi) of points (X, W) for n = 1, a
    counterclockwise polygon of points (X, Y, W) for n = 2), and r0, r1
    are the integer rows (W.., B) over D of the planes of q0 and q1 on it.
    ``verts`` maps each vertex P of a cell to (V0, V1), the values
    q_i(P) = V_i / (D W); ``edges`` lists each pair of consecutive vertices
    of a cell once, and q0 and q1 are affine along each.  Two profiles
    whose domains share no full-dimensional region have no common cell.
    """

    __slots__ = ("n", "den", "cells", "verts", "edges")

    def __init__(self, n: int, den: int, cells):
        verts, edges = {}, {}
        for poly, r0, r1 in cells:
            for P in poly:
                if P not in verts:
                    verts[P] = (sum(map(mul, r0, P)), sum(map(mul, r1, P)))
            for e in (zip(poly, poly[1:] + poly[:1]) if n == 2 else (poly,)):
                edges[e if e[0] < e[1] else e[::-1]] = None
        self.n, self.den, self.cells = n, den, cells
        self.verts, self.edges = verts, tuple(edges)


def _overlay(q0: ConcaveProfile, q1: ConcaveProfile) -> _Overlay:
    """The common refinement of two profiles' cells, for n <= 2.

    Intervals meet on their integer ends over D; each polygon of q0 is
    clipped by the edges of each polygon of q1 (``_clip_region``).
    """
    if q0.n != q1.n:
        raise PLError("profile dimension mismatch")
    n = q0.n
    _require_plane(n, "overlays")
    d0, d1 = q0._den, q1._den
    den = lcm(d0, d1)
    s0, s1 = den // d0, den // d1
    rows0 = [tuple(x * s0 for x in r) for r in q0._planes]
    rows1 = [tuple(x * s1 for x in r) for r in q1._planes]
    cells = []
    if n == 1:
        for poly0, r0 in zip(q0._cells, rows0):
            for poly1, r1 in zip(q1._cells, rows1):
                lo = max(poly0[0][0] * s0, poly1[0][0] * s1)
                hi = min(poly0[-1][0] * s0, poly1[-1][0] * s1)
                if lo < hi:
                    cells.append(((_canon((lo, den)), _canon((hi, den))),
                                  r0, r1))
        return _Overlay(1, den, cells)
    # the edges of q1's cells, as rows over its denominator
    cuts1 = [[(a0 * d1, a1 * d1, b) for (a0, a1), b in polygon_hrep(poly)]
             for poly in q1._cells]
    for poly, r0 in zip(q0._cells, rows0):
        poly = tuple(_canon(p + (d0,)) for p in poly)
        for cuts, r1 in zip(cuts1, rows1):
            region = _clip_region(poly, cuts)
            if region:
                cells.append((region, r0, r1))
    return _Overlay(2, den, cells)


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

    A cell where the difference row d = r0 - r1 changes sign is split into
    the two halves where it is >= 0 and <= 0 (``clip_polygon`` or
    ``_clip_interval`` on d and on -d), so that |q0 - q1| is affine on each
    piece.  The pieces are put over the lcm L of their points' W, where a
    vertex P / L takes |q0 - q1| = V / (D L) with V = |<d, (P, L)>|.  An
    affine function's p-th power integrates over a simplex of dimension e
    to its volume times h_p of its vertex values over C(p + e, e), so an
    interval [P0, P1] contributes (P1 - P0) h_p(V0, V1) / ((p + 1) L (D L)^p)
    and a fan triangle of doubled area A / L^2 contributes
    A h_p(V0, V1, V2) / (2 C(p + 2, 2) L^2 (D L)^p): one ``Fraction`` of
    the integer sum.
    """
    n = ov.n
    pieces = []
    for poly, r0, r1 in ov.cells:
        d = tuple(map(sub, r0, r1))
        signs = [sum(map(mul, d, P)) for P in poly]
        if not any(signs):
            continue
        if min(signs) < 0 < max(signs):
            # <d, (y, 1)> >= 0 where <-d_y, y> <= d_c, and <= 0 on the rest
            if n == 1:
                lo, hi = poly
                halves = (_clip_interval(lo, hi, -d[0], d[1]),
                          _clip_interval(lo, hi, d[0], -d[1]))
            else:
                halves = (clip_polygon(poly, (-d[0], -d[1]), d[2]),
                          clip_polygon(poly, (d[0], d[1]), -d[2]))
            pieces.extend((half, d) for half in halves if half)
        else:
            pieces.append((poly, d))
    if not pieces:
        return Fraction(0)
    L = lcm(*(P[-1] for poly, _ in pieces for P in poly))
    total = 0
    for poly, d in pieces:
        pts = [tuple(x * (L // P[-1]) for x in P[:-1]) for P in poly]
        total += _fan_sum(
            pts, [abs(sum(map(mul, d, X)) + d[-1] * L) for X in pts], p)
    scale = (p + 1) * L if n == 1 else 2 * comb(p + 2, 2) * L * L
    return Fraction(total, scale * (ov.den * L) ** p)


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


def _shifted_min(ov: _Overlay, tau) -> MaxAffine:
    """The max-affine function whose profile is min(q0, q1 - tau) on the
    overlay's domain, unpruned.

    That min is concave and affine on each half of a cell where
    q1 - tau - q0 keeps its sign, so its hypograph vertices are overlay
    vertices or points strictly inside an edge where q1 - q0 = tau
    (``_crossings``).  Each such point y with its value z gives the piece
    <y, v> + z, whose max is the conjugate of the min.  For tau = S / T the
    values at a vertex P are over D T W: q0 is A = T V0 and
    q1 - tau - q0 is F = T (V1 - V0) - S D W.
    """
    S, T = tau.numerator, tau.denominator
    dt = ov.den * T
    vals = {P: (v0 * T, (v1 - v0) * T - S * ov.den * P[-1])
            for P, (v0, v1) in ov.verts.items()}
    pts = [P + (a + min(f, 0),) for P, (a, f) in vals.items()]
    pts += _crossings(ov.edges, vals)
    L = lcm(*(P[-2] for P in pts))
    return MaxAffine._from_ints(ov.n, dt * L, [
        tuple(x * (L // P[-2]) * dt for x in P[:-2]) + (P[-1] * (L // P[-2]),)
        for P in pts])


def _crossings(edges, vals):
    """The points strictly inside ``edges`` where q1 - tau - q0 changes
    sign, as rows (X.., W, A) with W > 0 and A = q0 there over D T W.

    ``vals`` maps each vertex to its (A, F) of ``_shifted_min``.  Both are
    linear in the homogeneous point along an edge, so the crossing of the
    edge PQ is F_P Q - F_Q P, and A follows the same combination.
    """
    out = []
    for P, Q in edges:
        (ap, fp), (aq, fq) = vals[P], vals[Q]
        if (fp < 0 < fq) or (fq < 0 < fp):
            row = [fp * u - fq * v for u, v in zip(Q + (aq,), P + (ap,))]
            g = gcd(*row) if row[-2] > 0 else -gcd(*row)
            out.append(tuple(x // g for x in row))
    return out
